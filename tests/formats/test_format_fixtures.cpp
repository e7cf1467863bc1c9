/// \file test_format_fixtures.cpp
/// \brief Every checked-in text-format fixture is a dump(parse(x)) == x
///        fixpoint, byte for byte, and a CRLF / trailing-blank damaged copy
///        parses to the same dump (the one trailing-whitespace rule).
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <string>

#include "fixtures.hpp"

namespace cim::formats_test {
namespace {

class FormatFixtures : public ::testing::TestWithParam<const char*> {};

TEST_P(FormatFixtures, RoundTripByteIdentical) {
  const std::string text = read_fixture(GetParam());
  ASSERT_FALSE(text.empty()) << GetParam();
  EXPECT_EQ(redump(GetParam(), text), text);
}

std::string fixture_name(const ::testing::TestParamInfo<const char*>& info) {
  std::string name = info.param;
  for (char& c : name)
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  return name;
}

/// `text` damaged the way transports and editors damage text: CRLF line
/// endings plus trailing spaces and tabs, varying from line to line.
std::string damaged(const std::string& text) {
  static const char* const kTails[] = {"\r", " \r", "\t\r", " \t \t\r"};
  std::string out;
  std::size_t line = 0;
  for (std::size_t pos = 0; pos < text.size(); ++line) {
    const std::size_t nl = std::min(text.find('\n', pos), text.size());
    out.append(text, pos, nl - pos);
    out += kTails[line % 4];
    out += '\n';
    pos = nl + 1;
  }
  return out;
}

TEST_P(FormatFixtures, CrlfAndTrailingBlanksParseToTheSameDump) {
  const std::string text = read_fixture(GetParam());
  EXPECT_EQ(redump(GetParam(), damaged(text)), text);
}

INSTANTIATE_TEST_SUITE_P(Data, FormatFixtures, ::testing::ValuesIn(kFixtures),
                         fixture_name);

}  // namespace
}  // namespace cim::formats_test
