/// \file json.hpp
/// \brief Minimal recursive-descent JSON parser used to validate exporter
///        output in tests. Header-only, no allocation tricks, not a speed
///        demon — deliberately small so tests can assert structural
///        well-formedness (Chrome trace_event / snapshot / BENCH_JSON)
///        without external dependencies.
#pragma once

#include <cctype>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "util/record_io.hpp"

namespace cim::obs::json {

class Value;
using Array = std::vector<Value>;
using Object = std::map<std::string, Value>;

/// A parsed JSON value. Accessors throw std::runtime_error on type
/// mismatch so tests fail with a message instead of UB.
class Value {
 public:
  Value() : v_(nullptr) {}
  explicit Value(std::nullptr_t) : v_(nullptr) {}
  explicit Value(bool b) : v_(b) {}
  explicit Value(double d) : v_(d) {}
  explicit Value(std::string s) : v_(std::move(s)) {}
  explicit Value(Array a) : v_(std::move(a)) {}
  explicit Value(Object o) : v_(std::move(o)) {}

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(v_); }
  bool is_bool() const { return std::holds_alternative<bool>(v_); }
  bool is_number() const { return std::holds_alternative<double>(v_); }
  bool is_string() const { return std::holds_alternative<std::string>(v_); }
  bool is_array() const { return std::holds_alternative<Array>(v_); }
  bool is_object() const { return std::holds_alternative<Object>(v_); }

  bool as_bool() const { return get<bool>("bool"); }
  double as_number() const { return get<double>("number"); }
  const std::string& as_string() const { return get<std::string>("string"); }
  const Array& as_array() const { return get<Array>("array"); }
  const Object& as_object() const { return get<Object>("object"); }

  /// Object member access; throws if not an object or key missing.
  const Value& at(const std::string& key) const {
    const Object& obj = as_object();
    auto it = obj.find(key);
    if (it == obj.end())
      throw std::runtime_error("json: missing key '" + key + "'");
    return it->second;
  }
  bool contains(const std::string& key) const {
    return is_object() && as_object().count(key) != 0;
  }

 private:
  template <typename T>
  const T& get(const char* what) const {
    if (!std::holds_alternative<T>(v_))
      throw std::runtime_error(std::string("json: value is not a ") + what);
    return std::get<T>(v_);
  }

  std::variant<std::nullptr_t, bool, double, std::string, Array, Object> v_;
};

namespace detail {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value parse() {
    Value v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after JSON value");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& msg) const {
    throw std::runtime_error("json parse error at offset " +
                             std::to_string(pos_) + ": " + msg);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Value parse_value() {
    skip_ws();
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Value(parse_string());
      case 't':
        if (consume_literal("true")) return Value(true);
        fail("bad literal");
      case 'f':
        if (consume_literal("false")) return Value(false);
        fail("bad literal");
      case 'n':
        if (consume_literal("null")) return Value(nullptr);
        fail("bad literal");
      default: return parse_number();
    }
  }

  Value parse_object() {
    expect('{');
    Object obj;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Value(std::move(obj));
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj.emplace(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return Value(std::move(obj));
    }
  }

  Value parse_array() {
    expect('[');
    Array arr;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Value(std::move(arr));
    }
    while (true) {
      arr.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return Value(std::move(arr));
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("unterminated escape");
        char e = text_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) fail("bad \\u escape");
            // Tests only need round-tripping of ASCII control chars.
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9')
                code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f')
                code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F')
                code |= static_cast<unsigned>(h - 'A' + 10);
              else
                fail("bad \\u escape digit");
            }
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else {  // 2-byte UTF-8 is enough for exporter output
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default: fail("bad escape character");
        }
      } else {
        out += c;
      }
    }
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-'))
      ++pos_;
    if (pos_ == start) fail("expected a number");
    const std::string_view tok = text_.substr(start, pos_ - start);
    const auto d = util::record_io::parse_f64(tok);
    if (!d) fail("malformed number '" + std::string(tok) + "'");
    return Value(*d);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace detail

/// Parses `text` as a single JSON document; throws std::runtime_error with
/// an offset on malformed input.
inline Value parse(std::string_view text) {
  return detail::Parser(text).parse();
}

/// `v` as an integer of type T (ids, counts, labels), exactly: throws
/// std::runtime_error("bad '<field>'") unless `v` is a number with an
/// integral value inside T's range, so inputs such as -1, 1.5, 1e30 or
/// 2^64 never reach an undefined double-to-integer cast.
template <typename T>
T integer(const Value& v, std::string_view field) {
  const double d = v.is_number() ? v.as_number() : std::nan("");
  // 2^digits is exact in a double: the first value past T's range.
  const double hi = std::ldexp(1.0, std::numeric_limits<T>::digits);
  if (!(d >= static_cast<double>(std::numeric_limits<T>::min()) && d < hi) ||
      d != std::floor(d))
    throw std::runtime_error("bad '" + std::string(field) + "'");
  return static_cast<T>(d);
}

}  // namespace cim::obs::json
