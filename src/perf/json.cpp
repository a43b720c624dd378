#include "perf/json.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/assert.hpp"
#include "common/json_escape.hpp"

namespace basrpt::perf::json {

namespace {

constexpr int kMaxDepth = 64;

/// Formats a double the way the records want it: integers (the common
/// case — counters, ns totals) print without a fractional part, and
/// everything else with enough digits to round-trip.
void append_number(std::string& out, double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 9.0e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", v);
    out += buf;
    return;
  }
  // Non-finite values are not representable in JSON; the writers never
  // produce them, but a defensive null beats emitting "inf".
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

void append_escaped(std::string& out, const std::string& s) {
  out += '"';
  out += json_escape(s);
  out += '"';
}

class Parser {
 public:
  Parser(const std::string& text, const std::string& context)
      : text_(text), context_(context) {}

  Value parse_document() {
    skip_ws();
    Value v = parse_value(0);
    skip_ws();
    if (pos_ != text_.size()) {
      fail("trailing garbage after document");
    }
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw ParseError(context_, line_, what);
  }

  bool at_end() const { return pos_ >= text_.size(); }

  char peek() const { return text_[pos_]; }

  char take() {
    const char c = text_[pos_++];
    if (c == '\n') {
      ++line_;
    }
    return c;
  }

  void skip_ws() {
    while (!at_end()) {
      const char c = peek();
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        take();
      } else {
        return;
      }
    }
  }

  void expect(char c, const char* what) {
    if (at_end()) {
      fail(std::string("unexpected end of input, expected ") + what);
    }
    if (peek() != c) {
      fail(std::string("expected ") + what);
    }
    take();
  }

  bool consume_literal(const char* lit) {
    std::size_t n = 0;
    while (lit[n] != '\0') {
      ++n;
    }
    if (text_.compare(pos_, n, lit) != 0) {
      return false;
    }
    pos_ += n;  // literals contain no newlines
    return true;
  }

  Value parse_value(int depth) {
    if (depth > kMaxDepth) {
      fail("nesting deeper than 64 levels");
    }
    if (at_end()) {
      fail("unexpected end of input, expected a value");
    }
    const char c = peek();
    switch (c) {
      case '{':
        return parse_object(depth);
      case '[':
        return parse_array(depth);
      case '"':
        return Value::string(parse_string());
      case 't':
        if (consume_literal("true")) {
          return Value::boolean(true);
        }
        fail("malformed literal (expected 'true')");
      case 'f':
        if (consume_literal("false")) {
          return Value::boolean(false);
        }
        fail("malformed literal (expected 'false')");
      case 'n':
        if (consume_literal("null")) {
          return Value();
        }
        fail("malformed literal (expected 'null')");
      default:
        return parse_number();
    }
  }

  Value parse_object(int depth) {
    expect('{', "'{'");
    Value obj = Value::object();
    skip_ws();
    if (!at_end() && peek() == '}') {
      take();
      return obj;
    }
    for (;;) {
      skip_ws();
      if (at_end()) {
        fail("truncated object (missing '}')");
      }
      if (peek() != '"') {
        fail("object key must be a string");
      }
      std::string key = parse_string();
      skip_ws();
      expect(':', "':' after object key");
      skip_ws();
      obj.set(key, parse_value(depth + 1));
      skip_ws();
      if (at_end()) {
        fail("truncated object (missing '}')");
      }
      const char next = take();
      if (next == '}') {
        return obj;
      }
      if (next != ',') {
        fail("expected ',' or '}' in object");
      }
    }
  }

  Value parse_array(int depth) {
    expect('[', "'['");
    Value arr = Value::array();
    skip_ws();
    if (!at_end() && peek() == ']') {
      take();
      return arr;
    }
    for (;;) {
      skip_ws();
      arr.push(parse_value(depth + 1));
      skip_ws();
      if (at_end()) {
        fail("truncated array (missing ']')");
      }
      const char next = take();
      if (next == ']') {
        return arr;
      }
      if (next != ',') {
        fail("expected ',' or ']' in array");
      }
    }
  }

  std::string parse_string() {
    expect('"', "'\"'");
    std::string out;
    for (;;) {
      if (at_end()) {
        fail("unterminated string");
      }
      char c = take();
      if (c == '"') {
        return out;
      }
      if (c == '\n') {
        fail("raw newline inside string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (at_end()) {
        fail("unterminated escape sequence");
      }
      c = take();
      switch (c) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'n':
          out += '\n';
          break;
        case 't':
          out += '\t';
          break;
        case 'r':
          out += '\r';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            fail("truncated \\u escape");
          }
          unsigned code = 0;
          for (int k = 0; k < 4; ++k) {
            const char h = take();
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code += static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code += static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code += static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("bad hex digit in \\u escape");
            }
          }
          // The writers only emit \u for control characters; decode
          // BMP code points as UTF-8 and reject surrogates outright.
          if (code >= 0xD800 && code <= 0xDFFF) {
            fail("surrogate \\u escapes are not supported");
          }
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          fail("unknown escape sequence");
      }
    }
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (!at_end() && (peek() == '-' || peek() == '+')) {
      take();
    }
    bool any_digit = false;
    auto digits = [&] {
      while (!at_end() && peek() >= '0' && peek() <= '9') {
        take();
        any_digit = true;
      }
    };
    digits();
    if (!at_end() && peek() == '.') {
      take();
      digits();
    }
    if (!at_end() && (peek() == 'e' || peek() == 'E')) {
      take();
      if (!at_end() && (peek() == '-' || peek() == '+')) {
        take();
      }
      const bool before = any_digit;
      any_digit = false;
      digits();
      if (!any_digit) {
        fail("malformed exponent");
      }
      any_digit = before;
    }
    if (!any_digit) {
      fail("malformed value");
    }
    const std::string token = text_.substr(start, pos_ - start);
    errno = 0;
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0' || errno == ERANGE ||
        !std::isfinite(v)) {
      fail("unparsable or overflowing number '" + token + "'");
    }
    return Value::number(v);
  }

  const std::string& text_;
  const std::string& context_;
  std::size_t pos_ = 0;
  std::size_t line_ = 1;
};

}  // namespace

Value Value::boolean(bool b) {
  Value v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}

Value Value::number(double n) {
  Value v;
  v.kind_ = Kind::kNumber;
  v.number_ = n;
  return v;
}

Value Value::string(std::string s) {
  Value v;
  v.kind_ = Kind::kString;
  v.string_ = std::move(s);
  return v;
}

Value Value::array() {
  Value v;
  v.kind_ = Kind::kArray;
  return v;
}

Value Value::object() {
  Value v;
  v.kind_ = Kind::kObject;
  return v;
}

bool Value::as_bool() const {
  BASRPT_REQUIRE(is_bool(), "JSON value is not a boolean");
  return bool_;
}

double Value::as_number() const {
  BASRPT_REQUIRE(is_number(), "JSON value is not a number");
  return number_;
}

const std::string& Value::as_string() const {
  BASRPT_REQUIRE(is_string(), "JSON value is not a string");
  return string_;
}

const std::vector<Value>& Value::items() const {
  BASRPT_REQUIRE(is_array(), "JSON value is not an array");
  return items_;
}

void Value::push(Value v) {
  BASRPT_REQUIRE(is_array(), "push on a non-array JSON value");
  items_.push_back(std::move(v));
}

const std::vector<std::pair<std::string, Value>>& Value::members() const {
  BASRPT_REQUIRE(is_object(), "JSON value is not an object");
  return members_;
}

const Value* Value::find(const std::string& key) const {
  BASRPT_REQUIRE(is_object(), "member lookup on a non-object JSON value");
  for (const auto& [name, value] : members_) {
    if (name == key) {
      return &value;
    }
  }
  return nullptr;
}

const Value& Value::at(const std::string& key) const {
  const Value* v = find(key);
  BASRPT_REQUIRE(v != nullptr, "missing JSON member '" + key + "'");
  return *v;
}

void Value::set(const std::string& key, Value v) {
  BASRPT_REQUIRE(is_object(), "set on a non-object JSON value");
  for (auto& [name, value] : members_) {
    if (name == key) {
      value = std::move(v);
      return;
    }
  }
  members_.emplace_back(key, std::move(v));
}

void Value::serialize_to(std::string& out, int indent, int depth) const {
  const auto newline_at = [&](int d) {
    if (indent > 0) {
      out += '\n';
      out.append(static_cast<std::size_t>(indent * d), ' ');
    }
  };
  switch (kind_) {
    case Kind::kNull:
      out += "null";
      return;
    case Kind::kBool:
      out += bool_ ? "true" : "false";
      return;
    case Kind::kNumber:
      append_number(out, number_);
      return;
    case Kind::kString:
      append_escaped(out, string_);
      return;
    case Kind::kArray: {
      if (items_.empty()) {
        out += "[]";
        return;
      }
      out += '[';
      bool first = true;
      for (const Value& v : items_) {
        if (!first) {
          out += ',';
        }
        first = false;
        newline_at(depth + 1);
        v.serialize_to(out, indent, depth + 1);
      }
      newline_at(depth);
      out += ']';
      return;
    }
    case Kind::kObject: {
      if (members_.empty()) {
        out += "{}";
        return;
      }
      out += '{';
      bool first = true;
      for (const auto& [name, value] : members_) {
        if (!first) {
          out += ',';
        }
        first = false;
        newline_at(depth + 1);
        append_escaped(out, name);
        out += ':';
        if (indent > 0) {
          out += ' ';
        }
        value.serialize_to(out, indent, depth + 1);
      }
      newline_at(depth);
      out += '}';
      return;
    }
  }
}

std::string Value::serialize(int indent) const {
  std::string out;
  serialize_to(out, indent, 0);
  if (indent > 0) {
    out += '\n';  // files end with a newline, like every text artifact here
  }
  return out;
}

Value parse(const std::string& text, const std::string& context) {
  Parser parser(text, context);
  return parser.parse_document();
}

}  // namespace basrpt::perf::json
