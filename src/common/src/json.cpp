#include "perfeng/common/json.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>

namespace pe::json {

std::string escape(std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    const auto byte = static_cast<unsigned char>(c);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (byte < 0x20) {
          out += "\\u00";
          out.push_back(kHex[byte >> 4]);
          out.push_back(kHex[byte & 0xF]);
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

std::string quote(std::string_view s) { return '"' + escape(s) + '"'; }

ParseError::ParseError(std::size_t line, const std::string& reason)
    : Error("line " + std::to_string(line) + ": " + reason),
      line_(line),
      reason_(reason) {}

void fail(const Value& at, const std::string& reason) {
  throw ParseError(at.line, reason);
}

// --- typed access -----------------------------------------------------------

namespace {

constexpr const char* kKindNames[] = {"null",   "bool",  "number",
                                      "string", "array", "object"};
constexpr const char* kKindNouns[] = {"null",     "a bool",   "a number",
                                      "a string", "an array", "an object"};

std::string subject(const Value& v) {
  return v.key.empty() ? "document" : "key '" + v.key + "'";
}

}  // namespace

const Value& Value::expect(Kind k) const {
  if (kind != k)
    fail(*this, subject(*this) + " must be " +
                    kKindNouns[static_cast<int>(k)] + ", got " +
                    kKindNames[static_cast<int>(kind)]);
  return *this;
}

const Value* Value::find(std::string_view name) const noexcept {
  if (kind != Kind::kObject) return nullptr;
  for (const Value& member : items)
    if (member.key == name) return &member;
  return nullptr;
}

const Value& Value::at(std::string_view name) const {
  const Value* member = expect(Kind::kObject).find(name);
  if (member == nullptr) fail(*this, "missing key '" + std::string(name) + "'");
  return *member;
}

double Value::as_number() const { return expect(Kind::kNumber).number; }

const std::string& Value::as_string() const {
  return expect(Kind::kString).text;
}

bool Value::as_bool() const { return expect(Kind::kBool).boolean; }

std::uint64_t Value::as_uint() const {
  expect(Kind::kNumber);
  std::uint64_t v = 0;
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, v);
  const bool ok = stop == end ? ec == std::errc{}
                              : number >= 0.0 && number < 0x1p64 &&
                                    number == std::floor(number);
  if (!ok) fail(*this, subject(*this) + " must be a non-negative integer");
  return stop == end ? v : static_cast<std::uint64_t>(number);
}

// --- parser -----------------------------------------------------------------

namespace {

/// Recursion guard for hostile or corrupt input: far deeper than any file
/// the toolbox writes, far shallower than the stack.
constexpr int kMaxDepth = 256;

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value document() {
    Value v = value({}, 0);
    skip_ws();
    if (pos_ != text_.size()) error("trailing content after document");
    return v;
  }

 private:
  [[noreturn]] void error(const std::string& reason) const {
    throw ParseError(line_, reason);
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      if (c == '\n') ++line_;
      ++pos_;
    }
  }

  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) error("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c)
      error(std::string("expected '") + c + "', got '" + text_[pos_] + "'");
    ++pos_;
  }

  Value value(std::string key, int depth) {
    if (depth > kMaxDepth)
      error("nesting deeper than " + std::to_string(kMaxDepth) + " levels");
    Value v;
    const char c = peek();
    v.key = std::move(key);
    v.line = line_;
    if (c == '{') {
      v.kind = Value::Kind::kObject;
      items(v, '}', depth);
    } else if (c == '[') {
      v.kind = Value::Kind::kArray;
      items(v, ']', depth);
    } else if (c == '"') {
      v.kind = Value::Kind::kString;
      v.text = string_token();
    } else if (c == '-' || (c >= '0' && c <= '9')) {
      number(v);
    } else {
      keyword(v);
    }
    return v;
  }

  // The members of an object (`close` is '}') or elements of an array.
  void items(Value& v, char close, int depth) {
    ++pos_;
    if (peek() == close) {
      ++pos_;
      return;
    }
    for (;;) {
      std::string key;
      if (close == ']') {
        key = v.key + "[" + std::to_string(v.items.size()) + "]";
      } else if (peek() != '"') {
        error("expected a quoted key");
      } else {
        key = string_token();
        expect(':');
      }
      v.items.push_back(value(std::move(key), depth + 1));
      const char c = peek();
      ++pos_;
      if (c == close) return;
      if (c != ',') error(std::string("expected ',' or '") + close + "'");
    }
  }

  std::string string_token() {
    ++pos_;  // opening quote
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) error("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\n') error("newline inside string");
      if (static_cast<unsigned char>(c) < 0x20)
        error("control character inside string");
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) error("unterminated string");
      const char e = text_[pos_++];
      switch (e) {
        case '"': case '\\': case '/': out.push_back(e); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': append_utf8(out, code_point()); break;
        default: error(std::string("unsupported escape '\\") + e + "'");
      }
    }
  }

  unsigned hex4() {
    unsigned v = 0;
    const char* first = text_.data() + pos_;
    const std::size_t n = std::min<std::size_t>(4, text_.size() - pos_);
    const auto [stop, ec] = std::from_chars(first, first + n, v, 16);
    if (ec != std::errc{} || stop - first != 4)
      error("\\u escape needs four hex digits");
    pos_ += 4;
    return v;
  }

  // After "\u": one BMP code point, or a UTF-16 surrogate pair joined.
  unsigned code_point() {
    const unsigned hi = hex4();
    if (hi >= 0xDC00 && hi <= 0xDFFF) error("unpaired surrogate in \\u escape");
    if (hi < 0xD800 || hi > 0xDBFF) return hi;
    if (text_.substr(pos_, 2) != "\\u")
      error("unpaired surrogate in \\u escape");
    pos_ += 2;
    const unsigned lo = hex4();
    if (lo < 0xDC00 || lo > 0xDFFF) error("unpaired surrogate in \\u escape");
    return 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
  }

  static void append_utf8(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
      return;
    }
    const int n = cp < 0x800 ? 2 : cp < 0x10000 ? 3 : 4;  // encoded bytes
    // Lead byte: n one-bits, a zero, then the top bits of the code point.
    const unsigned lead = (0xFF00u >> n) & 0xFF;
    out.push_back(static_cast<char>(lead | (cp >> (6 * (n - 1)))));
    for (int i = n - 2; i >= 0; --i)
      out.push_back(static_cast<char>(0x80 | ((cp >> (6 * i)) & 0x3F)));
  }

  // RFC 8259 grammar: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
  void number(Value& v) {
    v.kind = Value::Kind::kNumber;
    const std::size_t start = pos_;
    const auto digits = [this] {
      const std::size_t from = pos_;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9')
        ++pos_;
      return pos_ - from;
    };
    const auto at = [this](char c) {
      return pos_ < text_.size() && text_[pos_] == c;
    };
    if (at('-')) ++pos_;
    const std::size_t int_start = pos_;
    const std::size_t int_digits = digits();
    bool ok = int_digits == 1 || (int_digits > 1 && text_[int_start] != '0');
    if (ok && at('.')) {
      ++pos_;
      ok = digits() > 0;
    }
    if (ok && (at('e') || at('E'))) {
      ++pos_;
      if (at('+') || at('-')) ++pos_;
      ok = digits() > 0;
    }
    v.text = std::string(text_.substr(start, pos_ - start));
    if (!ok) error("malformed number '" + v.text + "'");
    v.number = std::strtod(v.text.c_str(), nullptr);
  }

  void keyword(Value& v) {
    const auto match = [this](std::string_view word) {
      if (text_.substr(pos_, word.size()) != word) return false;
      pos_ += word.size();
      return true;
    };
    if (match("true")) {
      v.kind = Value::Kind::kBool;
      v.boolean = true;
    } else if (match("false")) {
      v.kind = Value::Kind::kBool;
    } else if (!match("null")) {
      error(std::string("unexpected character '") + text_[pos_] + "'");
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t line_ = 1;
};

}  // namespace

Value parse(std::string_view text) { return Parser(text).document(); }

}  // namespace pe::json
