/**
 * @file
 * Unit tests for the table emitter (common/table.hh).
 */

#include <gtest/gtest.h>

#include <sstream>

#include "common/table.hh"

namespace dejavu {
namespace {

TEST(Table, HeaderAndRows)
{
    Table t({"a", "b"});
    t.addRow({"1", "2"});
    t.addNumericRow({3.14159, 2.71828}, 2);
    EXPECT_EQ(t.rows(), 2u);
    EXPECT_EQ(t.columns(), 2u);
    // The numeric row is formatted at 2 digits (each cell padded to
    // its column's width plus two).
    std::ostringstream os;
    t.printText(os);
    EXPECT_EQ(os.str(), "a     b     \n1     2     \n3.14  2.72  \n");
}

TEST(Table, TextOutputAligned)
{
    Table t({"name", "v"});
    t.addRow({"long-name-here", "1"});
    std::ostringstream os;
    t.printText(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("long-name-here"), std::string::npos);
    // Header line padded at least as wide as the longest cell.
    const std::string firstLine = out.substr(0, out.find('\n'));
    EXPECT_GE(firstLine.size(), std::string("long-name-here").size());
}

TEST(Table, NumFormatting)
{
    EXPECT_EQ(Table::num(1.5, 0), "2");  // rounds
    EXPECT_EQ(Table::num(1.25, 1), "1.2");
    EXPECT_EQ(Table::num(-3.456, 2), "-3.46");
}

TEST(Table, MismatchedRowWidthDies)
{
    Table t({"a", "b"});
    EXPECT_DEATH(t.addRow({"only-one"}), "row width");
}

TEST(Table, BannerFormat)
{
    std::ostringstream os;
    printBanner(os, "Figure 6(b): cost");
    EXPECT_EQ(os.str(), "\n=== Figure 6(b): cost ===\n");
}

} // namespace
} // namespace dejavu
