/**
 * @file
 * Tests for the console table printer and the CSV writer/parser.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <iterator>
#include <string>

#include "util/csv.h"
#include "util/table.h"

namespace hercules {
namespace {

TEST(TablePrinter, RendersHeaderAndRows)
{
    TablePrinter t({"A", "Bee"});
    t.addRow({"1", "2"});
    t.addRow({"longer", "x"});
    std::string s = t.str();
    EXPECT_NE(s.find("| A      | Bee |"), std::string::npos);
    EXPECT_NE(s.find("| longer | x   |"), std::string::npos);
    EXPECT_EQ(t.rows(), 2u);
}

TEST(TablePrinter, SeparatorNotCountedAsRow)
{
    TablePrinter t({"A"});
    t.addRow({"1"});
    t.addSeparator();
    t.addRow({"2"});
    EXPECT_EQ(t.rows(), 2u);
}

TEST(TablePrinterDeath, WrongColumnCountIsFatal)
{
    TablePrinter t({"A", "B"});
    EXPECT_DEATH(t.addRow({"only-one"}), "row has");
}

TEST(Format, Double)
{
    EXPECT_EQ(fmtDouble(3.14159, 2), "3.14");
    EXPECT_EQ(fmtDouble(3.0, 0), "3");
}

TEST(Format, Engineering)
{
    EXPECT_EQ(fmtEng(1234.0, 1), "1.2K");
    EXPECT_EQ(fmtEng(2'500'000.0, 1), "2.5M");
    EXPECT_EQ(fmtEng(3.2e9, 1), "3.2G");
    EXPECT_EQ(fmtEng(12.0, 1), "12.0");
}

TEST(Format, SpeedupAndPercent)
{
    EXPECT_EQ(fmtSpeedup(2.954, 2), "2.95x");
    EXPECT_EQ(fmtPercent(0.477, 1), "47.7%");
}

TEST(Csv, WriteParseRoundtrip)
{
    CsvWriter w({"a", "b", "c"});
    w.addRow({"1", "two", "3.5"});
    w.addRow({"x,y", "with \"quotes\"", "multi\nline"});
    auto rows = parseCsv(w.str());
    ASSERT_EQ(rows.size(), 3u);
    EXPECT_EQ(rows[0], (std::vector<std::string>{"a", "b", "c"}));
    EXPECT_EQ(rows[1], (std::vector<std::string>{"1", "two", "3.5"}));
    EXPECT_EQ(rows[2][0], "x,y");
    EXPECT_EQ(rows[2][1], "with \"quotes\"");
    EXPECT_EQ(rows[2][2], "multi\nline");
}

TEST(Csv, EmptyCellsPreserved)
{
    auto rows = parseCsv("a,,c\n,,\n");
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[0].size(), 3u);
    EXPECT_EQ(rows[0][1], "");
    EXPECT_EQ(rows[1].size(), 3u);
}

TEST(Csv, CrlfTolerated)
{
    auto rows = parseCsv("a,b\r\nc,d\r\n");
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[1][1], "d");
}

TEST(Csv, MissingTrailingNewline)
{
    auto rows = parseCsv("a,b\nc,d");
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[1][0], "c");
}

TEST(Csv, FileRoundtrip)
{
    std::string path = ::testing::TempDir() + "/hercules_csv_test.csv";
    CsvWriter w({"k", "v"});
    w.addRow({"qps", "1234.5"});
    w.write(path);
    auto rows = readCsvFile(path);
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[1][0], "qps");
    std::remove(path.c_str());
}

/* A rewrite replaces the file whole and leaves no temporary behind. */
TEST(Csv, WriteReplacesTheFile)
{
    const std::string dir = ::testing::TempDir() + "/hercules_csv_replace";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directory(dir);
    const std::string path = dir + "/t.csv";
    for (const char* v : {"1234.5", "6"}) {
        CsvWriter w({"k", "v"});
        w.addRow({"qps", v});
        w.write(path);
    }
    EXPECT_EQ(readCsvFile(path)[1][1], "6");
    EXPECT_EQ(std::distance(std::filesystem::directory_iterator(dir),
                            std::filesystem::directory_iterator{}),
              1);
    EXPECT_FALSE(replaceFile(dir + "/no_such_dir/t.csv", "x"));
    std::filesystem::remove_all(dir);
}

TEST(CsvDeath, WrongWidthRowIsFatal)
{
    CsvWriter w({"a", "b"});
    EXPECT_DEATH(w.addRow({"1"}), "row has");
}

}  // namespace
}  // namespace hercules
