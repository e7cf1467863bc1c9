/// \file record_io.hpp
/// \brief The lexical layer shared by every line-oriented text format
///        (cim-prog-v1, cim-campaign-v1, cim-reqlog-v1, cim-flight-v1, the
///        campaign worker pipe), numeric env knob and CLI flag.
///
/// Each format keeps its own grammar as plain code; what lives here is only
/// what they all need and must agree on (DESIGN.md "Text formats"):
///  - `g17`: exact doubles, so dump -> parse -> dump is a byte fixpoint;
///  - `json_escape`: one JSON string escaper;
///  - `LineReader`: 1-based line numbers and the one trailing-whitespace
///    rule (`rstrip`: CR, space, tab);
///  - `split`: the blank tokenizer;
///  - `parse_u64` / `parse_f64`: strict whole-token numbers;
///  - `ParseError`: `"<format>: line N: <msg>"`.
///
/// Header-only so that cim_obs (which cim_util links) can use it too.
#pragma once

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <istream>
#include <iterator>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

namespace cim::util::record_io {

/// Malformed input: carries the format name and the 1-based line.
class ParseError : public std::runtime_error {
 public:
  ParseError(const std::string& format, std::size_t line,
             const std::string& msg)
      : std::runtime_error(format + ": line " + std::to_string(line) + ": " +
                           msg),
        format_(format),
        line_(line) {}

  const std::string& format() const noexcept { return format_; }
  std::size_t line() const noexcept { return line_; }

 private:
  std::string format_;
  std::size_t line_;
};

/// `%.17g` text: round-trips every finite double exactly. Non-finite values
/// print as `inf`/`-inf`/`nan`; a caller with another policy applies it
/// before calling.
inline std::string g17(double v) {
  char buf[32];
  const auto r =
      std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general, 17);
  return std::string(buf, r.ptr);
}

/// JSON string-body escaping (no surrounding quotes); control characters
/// become `\u00XX`.
inline std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// The one trailing-whitespace rule: strips trailing CR, space and tab
/// (CRLF transports, padding editors). Leading blanks stay significant.
inline std::string_view rstrip(std::string_view line) {
  while (!line.empty() &&
         (line.back() == '\r' || line.back() == ' ' || line.back() == '\t'))
    line.remove_suffix(1);
  return line;
}

/// Splits `line` on runs of blanks (space, tab); never yields empty tokens.
inline std::vector<std::string_view> split(std::string_view line) {
  std::vector<std::string_view> out;
  std::size_t i = 0;
  while (true) {
    i = line.find_first_not_of(" \t", i);
    if (i == std::string_view::npos) return out;
    const std::size_t j = std::min(line.find_first_of(" \t", i), line.size());
    out.push_back(line.substr(i, j - i));
    i = j;
  }
}

/// The whole token as an unsigned integer; nullopt on an empty token, a
/// sign, leading whitespace, trailing junk or overflow.
inline std::optional<std::uint64_t> parse_u64(std::string_view tok,
                                              int base = 10) {
  std::uint64_t v = 0;
  const char* end = tok.data() + tok.size();
  const auto r = std::from_chars(tok.data(), end, v, base);
  if (tok.empty() || r.ec != std::errc{} || r.ptr != end) return std::nullopt;
  return v;
}

/// The whole token as a double (a leading `-` is the value's own sign; `+`
/// is refused). Accepts the `inf`/`nan` spellings `g17` emits; nullopt on
/// leading whitespace, trailing junk or overflow.
inline std::optional<double> parse_f64(std::string_view tok) {
  double v = 0.0;
  const char* end = tok.data() + tok.size();
  const auto r = std::from_chars(tok.data(), end, v);
  if (tok.empty() || r.ec != std::errc{} || r.ptr != end) return std::nullopt;
  return v;
}

/// Iterates a text's lines with 1-based numbering, each `rstrip`ped. A final
/// line without a newline still counts; errors raised through `fail` carry
/// the current line (line 1 before the first `next`).
class LineReader {
 public:
  LineReader(std::string format, std::string_view text)
      : format_(std::move(format)), text_(text) {}
  LineReader(std::string format, std::istream& is)
      : format_(std::move(format)),
        owned_(std::istreambuf_iterator<char>(is),
               std::istreambuf_iterator<char>()),
        text_(owned_) {}
  LineReader(const LineReader&) = delete;
  LineReader& operator=(const LineReader&) = delete;

  bool next(std::string_view& line) {
    if (pos_ >= text_.size()) return false;
    const std::size_t nl = text_.find('\n', pos_);
    const std::size_t stop = nl == std::string_view::npos ? text_.size() : nl;
    line = rstrip(text_.substr(pos_, stop - pos_));
    pos_ = stop + 1;
    ++line_no_;
    return true;
  }

  [[noreturn]] void fail(const std::string& msg) const {
    throw ParseError(format_, line_no_ == 0 ? 1 : line_no_, msg);
  }

  /// parse_u64 / parse_f64 that fail with "bad <what> '<tok>'".
  std::uint64_t u64(std::string_view tok, const char* what,
                    int base = 10) const {
    if (const auto v = parse_u64(tok, base)) return *v;
    fail(bad(tok, what));
  }
  double f64(std::string_view tok, const char* what) const {
    if (const auto v = parse_f64(tok)) return *v;
    fail(bad(tok, what));
  }

 private:
  static std::string bad(std::string_view tok, const char* what) {
    return std::string("bad ") + what + " '" + std::string(tok) + "'";
  }

  std::string format_;
  std::string owned_;  ///< backing store when constructed from a stream
  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t line_no_ = 0;
};

}  // namespace cim::util::record_io
