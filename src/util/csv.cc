#include "util/csv.h"

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/logging.h"

namespace hercules {

CsvWriter::CsvWriter(std::vector<std::string> header)
    : header_(std::move(header))
{
    if (header_.empty())
        fatal("CsvWriter: empty header");
}

void
CsvWriter::addRow(const std::vector<std::string>& cells)
{
    if (cells.size() != header_.size())
        fatal("CsvWriter: row has %zu cells, expected %zu", cells.size(),
              header_.size());
    rows_.push_back(cells);
}

std::string
CsvWriter::escape(const std::string& cell)
{
    bool needs_quote = cell.find_first_of(",\"\n") != std::string::npos;
    if (!needs_quote)
        return cell;
    std::string out = "\"";
    for (char c : cell) {
        if (c == '"')
            out += "\"\"";
        else
            out += c;
    }
    out += "\"";
    return out;
}

std::string
CsvWriter::str() const
{
    std::ostringstream os;
    auto emit = [&](const std::vector<std::string>& row) {
        for (size_t i = 0; i < row.size(); ++i) {
            if (i)
                os << ",";
            os << escape(row[i]);
        }
        os << "\n";
    };
    if (!preamble_.empty())
        os << preamble_ << "\n";
    emit(header_);
    for (const auto& r : rows_)
        emit(r);
    return os.str();
}

void
CsvWriter::write(const std::string& path) const
{
    if (!replaceFile(path, str()))
        fatal("CsvWriter: cannot write %s", path.c_str());
}

bool
replaceFile(const std::string& path, const std::string& text)
{
    // The process id keeps concurrent runs off each other's temporary.
    const std::string tmp = path + ".tmp" + std::to_string(getpid());
    std::FILE* f = std::fopen(tmp.c_str(), "w");
    if (f == nullptr)
        return false;
    bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
    ok = std::fclose(f) == 0 && ok;
    if (ok && std::rename(tmp.c_str(), path.c_str()) == 0)
        return true;
    std::remove(tmp.c_str());
    return false;
}

std::vector<std::vector<std::string>>
parseCsv(const std::string& text)
{
    std::vector<std::vector<std::string>> rows;
    std::vector<std::string> row;
    std::string cell;
    bool in_quotes = false;
    bool cell_started = false;

    auto endCell = [&] {
        row.push_back(cell);
        cell.clear();
        cell_started = false;
    };
    auto endRow = [&] {
        endCell();
        rows.push_back(row);
        row.clear();
    };

    for (size_t i = 0; i < text.size(); ++i) {
        char c = text[i];
        if (in_quotes) {
            if (c == '"') {
                if (i + 1 < text.size() && text[i + 1] == '"') {
                    cell += '"';
                    ++i;
                } else {
                    in_quotes = false;
                }
            } else {
                cell += c;
            }
            continue;
        }
        switch (c) {
          case '"':
            in_quotes = true;
            cell_started = true;
            break;
          case ',':
            endCell();
            cell_started = true;  // next cell exists even if empty
            break;
          case '\n':
            endRow();
            break;
          case '\r':
            break;  // tolerate CRLF
          default:
            cell += c;
            cell_started = true;
        }
    }
    if (cell_started || !cell.empty() || !row.empty())
        endRow();
    return rows;
}

std::vector<std::vector<std::string>>
readCsvFile(const std::string& path)
{
    std::ifstream f(path);
    if (!f)
        fatal("readCsvFile: cannot open %s", path.c_str());
    std::ostringstream os;
    os << f.rdbuf();
    return parseCsv(os.str());
}

}  // namespace hercules
