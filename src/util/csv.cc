#include "util/csv.h"

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
    std::ofstream f(path);
    if (!f)
        fatal("CsvWriter: cannot open %s for writing", path.c_str());
    f << str();
    if (!f)
        fatal("CsvWriter: write to %s failed", path.c_str());
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
