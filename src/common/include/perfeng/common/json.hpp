#pragma once

/// \file json.hpp
/// The toolbox's one JSON reader and writer.
///
/// Every file that carries a measured or calibrated number is JSON: machine
/// descriptions, pe-bench-v1 snapshots, trace captures and the lint
/// baseline. Callers format their own numbers (each file has its own byte
/// contract) and use this codec for the rest: `escape`/`quote` for strings
/// and `parse` for reading, which keeps every value's 1-based source line so
/// malformed input is reported the way the CSV loader reports it.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "perfeng/common/error.hpp"

namespace pe::json {

/// String-body escaping: `"` and `\` get a backslash, `\n`, `\r` and `\t`
/// are written by name, every other byte below 0x20 as `\u00xx`. All other
/// bytes (UTF-8 included) pass through unchanged.
[[nodiscard]] std::string escape(std::string_view s);

/// `escape(s)` between double quotes: a complete JSON string token.
[[nodiscard]] std::string quote(std::string_view s);

/// Malformed or mistyped input. `what()` reads "line N: <reason>"; callers
/// rethrow with their own prefix from `line()` and `reason()`.
class ParseError : public Error {
 public:
  ParseError(std::size_t line, const std::string& reason);
  [[nodiscard]] std::size_t line() const noexcept { return line_; }
  [[nodiscard]] const std::string& reason() const noexcept { return reason_; }

 private:
  std::size_t line_;
  std::string reason_;
};

/// One parsed value. Typed accessors throw `ParseError` naming `key` and
/// `line` when the value has another kind.
struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  /// A string's decoded bytes, or a number's source token.
  std::string text;
  /// Array elements, or object members in source order.
  std::vector<Value> items;
  /// The member name inside an object, `parent[i]` inside an array, empty
  /// for the document root: what error messages call this value.
  std::string key;
  std::size_t line = 1;

  /// This value if it has kind `k`; throws "key 'x' must be ..." otherwise.
  const Value& expect(Kind k) const;

  /// First object member named `name`, or nullptr (also for non-objects).
  [[nodiscard]] const Value* find(std::string_view name) const noexcept;
  /// First object member named `name`; throws "missing key 'name'".
  [[nodiscard]] const Value& at(std::string_view name) const;

  [[nodiscard]] double as_number() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] bool as_bool() const;
  /// A non-negative integer. Plain digit tokens are parsed exactly from
  /// the source text, so values above 2^53 survive; other spellings
  /// ("1e3", "2.0") go through the double and must be integral.
  [[nodiscard]] std::uint64_t as_uint() const;
};

/// Throw `ParseError` at `at`'s line.
[[noreturn]] void fail(const Value& at, const std::string& reason);

/// Parse one standard JSON document (RFC 8259): `\uXXXX` escapes decode to
/// UTF-8 (surrogate pairs joined), raw control characters inside strings
/// and trailing content are rejected. Throws `ParseError`.
[[nodiscard]] Value parse(std::string_view text);

}  // namespace pe::json
