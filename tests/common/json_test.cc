/**
 * @file
 * Unit tests for the shared JSON writer: escaping, the three number
 * formats, separator placement in objects and arrays, and the
 * checked file write. The report tests pin each report's bytes.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <string>

#include "common/json.hh"
#include "common/status.hh"

using namespace tpcp;

TEST(Json, QuoteEscapesQuotesBackslashesAndControlBytes)
{
    EXPECT_EQ(json::quote("a\"b\\c\nd\te\x01\x1f"),
              "\"a\\\"b\\\\c\\nd\\te\\u0001\\u001f\"");
    // Bytes >= 0x20, UTF-8 included, pass through unchanged.
    EXPECT_EQ(json::quote("\xc3\xa9~/"), "\"\xc3\xa9~/\"");
}

TEST(Json, RealFormats)
{
    EXPECT_EQ(json::real(2.0 / 3.0, json::Real::G10), "0.6666666667");
    EXPECT_EQ(json::real(1e-7, json::Real::G10), "1e-07");
    EXPECT_EQ(json::real(1e-7, json::Real::F6), "0.000000");
    EXPECT_EQ(json::real(3.0, json::Real::F6), "3.000000");
    // The largest double fits %.6f without truncation.
    EXPECT_EQ(json::real(1.7976931348623157e308, json::Real::F6).size(),
              316u);
    // G6 must read exactly like a default `os << double`, the format
    // of the harness JSON goldens.
    for (double v : {0.0, -0.5, 2.0 / 3.0, 123456789.0, 1e-9, 1e300}) {
        std::ostringstream os;
        os << v;
        EXPECT_EQ(json::real(v, json::Real::G6), os.str()) << v;
    }
}

TEST(Json, ObjectPlacesSeparators)
{
    EXPECT_EQ(json::Object().str(), "{}");
    EXPECT_EQ(json::Object()
                  .field("s", std::string("x"))
                  .field("b", true)
                  .field("u", std::uint64_t{18446744073709551615u})
                  .field("i", -3)
                  .field("d", 0.5)
                  .raw("o", "{\"k\": 1}")
                  .str(),
              "{\"s\": \"x\", \"b\": true, \"u\": 18446744073709551615, "
              "\"i\": -3, \"d\": 0.5, \"o\": {\"k\": 1}}");
    EXPECT_EQ(json::Object(json::Real::F6)
                  .wrap("\n  ")
                  .field("a", 0.5)
                  .field("b", 2)
                  .wrap("\n  ")
                  .field("c", 3)
                  .str("\n}"),
              "{\n  \"a\": 0.500000, \"b\": 2,\n  \"c\": 3\n}");
}

TEST(Json, ArrayInlineAndOnePerLine)
{
    auto item = [](std::size_t i) { return std::to_string(i); };
    EXPECT_EQ(json::array(0, item), "[]");
    EXPECT_EQ(json::array(3, item), "[0, 1, 2]");
    EXPECT_EQ(json::array(0, item, "  "), "[\n]");
    EXPECT_EQ(json::array(2, item, "  "), "[\n  0,\n  1\n]");
    EXPECT_EQ(json::array(2, item, "    "), "[\n    0,\n    1\n  ]");
}

TEST(Json, WriteFileRaisesOnOpenAndFlushFailure)
{
    try {
        json::writeFile("/nonexistent-dir/x/y.json", "{}");
        FAIL() << "no error for an unopenable path";
    } catch (const Error &e) {
        EXPECT_STREQ(e.what(), "cannot write /nonexistent-dir/x/y.json");
    }
    // /dev/full opens but every write fails with ENOSPC: only the
    // flush can see it.
    if (std::filesystem::exists("/dev/full")) {
        EXPECT_THROW(json::writeFile("/dev/full", "{}"), Error);
    }
}
