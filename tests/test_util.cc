/**
 * @file
 * Tests for message formatting, table formatting, and CSV emission.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "util/csv.hh"
#include "util/logging.hh"
#include "util/table.hh"

namespace lhr
{

TEST(Logging, MsgOfConcatenates)
{
    EXPECT_EQ(msgOf("a", 1, "b", 2.5), "a1b2.5");
    EXPECT_EQ(msgOf(), "");
}

TEST(Table, FormatFixed)
{
    EXPECT_EQ(formatFixed(3.14159, 2), "3.14");
    EXPECT_EQ(formatFixed(2.0, 0), "2");
    EXPECT_EQ(formatFixed(-1.5, 1), "-1.5");
}

TEST(Table, AlignsColumns)
{
    TableWriter table;
    table.addColumn("name", TableWriter::Align::Left);
    table.addColumn("value");
    table.beginRow();
    table.cell(std::string("alpha"));
    table.cell(1.5, 1);
    table.beginRow();
    table.cell(std::string("b"));
    table.cell(10.26, 1);

    std::ostringstream os;
    table.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("name   value"), std::string::npos);
    EXPECT_NE(out.find("alpha    1.5"), std::string::npos);
    EXPECT_NE(out.find("b       10.3"), std::string::npos);
    EXPECT_EQ(table.rowCount(), 2u);
}

TEST(Table, IntegerAndEmptyCells)
{
    TableWriter table;
    table.addColumn("a");
    table.addColumn("b");
    table.beginRow();
    table.cell(42l);
    table.emptyCell();
    std::ostringstream os;
    table.print(os);
    EXPECT_NE(os.str().find("42"), std::string::npos);
}

TEST(Table, MisuseDies)
{
    TableWriter table;
    table.addColumn("only");
    EXPECT_DEATH(table.cell(std::string("x")), "before beginRow");
    table.beginRow();
    table.cell(std::string("one"));
    EXPECT_DEATH(table.cell(std::string("two")), "too many");
}

TEST(Csv, WritesHeaderAndRows)
{
    std::ostringstream os;
    {
        CsvWriter csv(os, {"a", "b"});
        csv.beginRow();
        csv.field(std::string("x"));
        csv.field(1.5, 2);
        csv.beginRow();
        csv.field(2l);
        csv.field(std::string("y"));
    }
    EXPECT_EQ(os.str(), "a,b\nx,1.50\n2,y\n");
}

TEST(Csv, QuotesSpecialCharacters)
{
    std::ostringstream os;
    {
        CsvWriter csv(os, {"a"});
        csv.beginRow();
        csv.field(std::string("hello, \"world\""));
    }
    EXPECT_EQ(os.str(), "a\n\"hello, \"\"world\"\"\"\n");
}

TEST(Csv, IncompleteRowDies)
{
    std::ostringstream os;
    EXPECT_DEATH(
        {
            CsvWriter csv(os, {"a", "b"});
            csv.beginRow();
            csv.field(1l);
            csv.beginRow(); // previous row incomplete
        },
        "fields");
}

} // namespace lhr
