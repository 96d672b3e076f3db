/**
 * @file
 * Minimal CSV writer/reader. Used to persist efficiency tables from
 * offline profiling and to dump bench series for external plotting.
 */
#pragma once

#include <string>
#include <utility>
#include <vector>

namespace hercules {

/** Accumulates rows and writes an RFC-4180-ish CSV file. */
class CsvWriter
{
  public:
    /** @param header column names, written as the first row. */
    explicit CsvWriter(std::vector<std::string> header);

    /**
     * A line written above the header row, as is (no escaping; keep it
     * free of commas and quotes so a parser reads it as one cell).
     * Empty: none.
     */
    void setPreamble(std::string line) { preamble_ = std::move(line); }

    /** Append one row; must match the header width. */
    void addRow(const std::vector<std::string>& cells);

    /** Write everything to `path` (replaceFile); fatal() on failure. */
    void write(const std::string& path) const;

    /** Render to a string (used by tests). */
    std::string str() const;

  private:
    static std::string escape(const std::string& cell);

    std::string preamble_;
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

/**
 * Parse CSV text into rows of cells. Handles quoted cells with embedded
 * commas/quotes/newlines. The first row is returned like any other; the
 * caller decides whether it is a header.
 */
std::vector<std::vector<std::string>> parseCsv(const std::string& text);

/**
 * Write `text` to a temporary file beside `path`, then rename it over
 * `path`, so a run killed mid-write or a concurrent run never leaves a
 * torn file. @return false when the file cannot be written.
 */
bool replaceFile(const std::string& path, const std::string& text);

/** Read and parse a CSV file; fatal() if the file cannot be opened. */
std::vector<std::vector<std::string>> readCsvFile(const std::string& path);

}  // namespace hercules
