/// \file test_format_mutation.cpp
/// \brief Deterministic mutation sweep over every text-format fixture:
///        each mutant either parses (and its dump is then a fixpoint) or
///        throws util::record_io::ParseError naming a line inside the
///        mutant. Nothing else may be thrown and nothing may crash; run the
///        `formats` label under CIM_SANITIZE="address;undefined" to also
///        catch silent undefined behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <string>
#include <vector>

#include "fixtures.hpp"
#include "util/record_io.hpp"
#include "util/rng.hpp"

namespace cim::formats_test {
namespace {

constexpr int kMutantsPerFixture = 2000;

/// [begin, end) of every token: a maximal run of characters that are not
/// blanks, line breaks or JSON punctuation.
std::vector<std::pair<std::size_t, std::size_t>> tokens(
    const std::string& text) {
  const auto sep = [](char c) {
    return std::isspace(static_cast<unsigned char>(c)) ||
           std::string_view(",:{}\"").find(c) != std::string_view::npos;
  };
  std::vector<std::pair<std::size_t, std::size_t>> out;
  for (std::size_t i = 0; i < text.size();) {
    if (sep(text[i])) {
      ++i;
      continue;
    }
    const std::size_t b = i;
    while (i < text.size() && !sep(text[i])) ++i;
    out.emplace_back(b, i);
  }
  return out;
}

/// One random byte- or token-level edit of `text`.
std::string mutate(const std::string& text, util::Rng& rng) {
  static const std::string kFlips =
      "0123456789abcxyz@!=.-+ \t\r#\",:{}";
  const auto toks = tokens(text);
  const auto [tb, te] = toks[rng.uniform_int(toks.size())];
  const std::size_t at = rng.uniform_int(text.size());
  std::string m = text;
  switch (rng.uniform_int(8)) {
    case 0: m[at] = kFlips[rng.uniform_int(kFlips.size())]; break;
    case 1: m.erase(tb, te - tb); break;                          // drop
    case 2: m.insert(te, " " + text.substr(tb, te - tb)); break;  // dup
    case 3: m.insert(at, "-"); break;
    case 4: m.insert(at, "+"); break;
    case 5: m.insert(at, "\t"); break;
    case 6: m.insert(at, "\r"); break;
    default: m.resize(at); break;  // truncate
  }
  return m;
}

class FormatMutation : public ::testing::TestWithParam<const char*> {};

TEST_P(FormatMutation, EveryMutantParsesOrFailsWithALineNumber) {
  const std::string name = GetParam();
  const std::string text = read_fixture(name);
  ASSERT_FALSE(text.empty()) << name;
  util::Rng rng(20211001);
  int parsed = 0;
  int rejected = 0;
  for (int k = 0; k < kMutantsPerFixture; ++k) {
    const std::string m = mutate(text, rng);
    const auto lines =
        static_cast<std::size_t>(std::count(m.begin(), m.end(), '\n')) + 1;
    try {
      const std::string once = redump(name, m);
      EXPECT_EQ(redump(name, once), once) << "mutant " << k << ":\n" << m;
      ++parsed;
    } catch (const util::record_io::ParseError& e) {
      EXPECT_GE(e.line(), 1u) << e.what();
      EXPECT_LE(e.line(), lines) << e.what();
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutant " << k << " threw a non-ParseError: "
                    << e.what() << "\n" << m;
    }
  }
  // The sweep must exercise both outcomes, or it tests nothing.
  EXPECT_GT(parsed, 0);
  EXPECT_GT(rejected, 0);
}

std::string fixture_name(const ::testing::TestParamInfo<const char*>& info) {
  std::string name = info.param;
  for (char& c : name)
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  return name;
}

INSTANTIATE_TEST_SUITE_P(Data, FormatMutation, ::testing::ValuesIn(kFixtures),
                         fixture_name);

}  // namespace
}  // namespace cim::formats_test
