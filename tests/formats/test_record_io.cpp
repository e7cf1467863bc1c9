/// \file test_record_io.cpp
/// \brief The shared lexical layer of the text formats (util/record_io.hpp):
///        exact doubles, strict whole-token numbers, the trailing-whitespace
///        rule, the blank tokenizer, line numbering and JSON escaping.
#include "util/record_io.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

namespace cim::util::record_io {
namespace {

TEST(RecordIo, G17IsPrintfExactAndRoundTrips) {
  using L = std::numeric_limits<double>;
  for (const double v :
       {0.0, -0.0, 0.1, 1.0 / 3.0, -2.7182818284590452, 1e-300, 1e300,
        L::denorm_min(), L::min(), L::max(), L::lowest(), 123456.789}) {
    char ref[40];
    std::snprintf(ref, sizeof ref, "%.17g", v);
    EXPECT_EQ(g17(v), ref);
    const auto back = parse_f64(g17(v));
    ASSERT_TRUE(back.has_value()) << g17(v);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(*back),
              std::bit_cast<std::uint64_t>(v))
        << g17(v);
  }
  // Non-finite values keep a parseable spelling.
  EXPECT_EQ(parse_f64(g17(L::infinity())), L::infinity());
  EXPECT_EQ(parse_f64(g17(-L::infinity())), -L::infinity());
  EXPECT_TRUE(std::isnan(*parse_f64(g17(L::quiet_NaN()))));
}

TEST(RecordIo, ParseU64TakesTheWholeUnsignedToken) {
  EXPECT_EQ(parse_u64("0"), 0u);
  EXPECT_EQ(parse_u64("18446744073709551615"), 18446744073709551615u);
  EXPECT_EQ(parse_u64("2d22df72b139702c", 16), 0x2d22df72b139702cu);
  for (const char* bad : {"", "18446744073709551616", "-1", "+1", " 1", "1 ",
                          "1x", "0x10", "1.0", "1e3"})
    EXPECT_FALSE(parse_u64(bad).has_value()) << '"' << bad << '"';
}

TEST(RecordIo, ParseF64TakesTheWholeToken) {
  EXPECT_EQ(parse_f64("-1.5"), -1.5);
  EXPECT_EQ(parse_f64("1e3"), 1000.0);
  EXPECT_EQ(parse_f64("4.9406564584124654e-324"),
            std::numeric_limits<double>::denorm_min());
  for (const char* bad : {"", "+1.5", " 1", "1 ", "1.5x", "1e999", "-", "."})
    EXPECT_FALSE(parse_f64(bad).has_value()) << '"' << bad << '"';
}

TEST(RecordIo, RstripAndSplitApplyOneBlankRule) {
  EXPECT_EQ(rstrip("a b \t\r \r"), "a b");
  EXPECT_EQ(rstrip("  a"), "  a");  // leading blanks stay significant
  EXPECT_EQ(rstrip(" \t\r"), "");
  EXPECT_EQ(split("  a\tb  c \t"),
            (std::vector<std::string_view>{"a", "b", "c"}));
  EXPECT_TRUE(split(" \t ").empty());
}

TEST(RecordIo, LineReaderNumbersLinesAndStripsTrailingBlanks) {
  LineReader in("fmt", std::string_view("a\r\n\nb \t\nc"));
  std::vector<std::string_view> lines;
  std::string_view line;
  try {
    in.fail("before any line");
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 1u);
  }
  while (in.next(line)) lines.push_back(line);
  EXPECT_EQ(lines, (std::vector<std::string_view>{"a", "", "b", "c"}));
  try {
    in.u64("7x", "count");
    ADD_FAILURE() << "accepted 7x";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.format(), "fmt");
    EXPECT_EQ(e.line(), 4u);
    EXPECT_STREQ(e.what(), "fmt: line 4: bad count '7x'");
  }
}

TEST(RecordIo, JsonEscapeCoversQuotesBackslashesAndControls) {
  EXPECT_EQ(json_escape("a\"b\\c\n\t\r\x01"),
            "a\\\"b\\\\c\\n\\t\\r\\u0001");
  EXPECT_EQ(json_escape("plain"), "plain");
}

}  // namespace
}  // namespace cim::util::record_io
