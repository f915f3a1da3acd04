#pragma once

/// \file lexer.hpp
/// The shared lexing core every pass builds on.
///
/// The old single-file lint re-implemented comment/string stripping per
/// tool and could not see raw strings, digit separators, or line-spliced
/// comments; every new rule re-risked the same false positives. This
/// lexer does the job once, properly, and every pass consumes its output:
///
/// - `cook_lines` blanks comments, string/char literal *contents* (the
///   delimiters stay, so quoted context remains visible), raw strings
///   `R"delim(...)delim"` across physical lines, and comments continued
///   by a trailing backslash (a line splice inside `//` extends the
///   comment to the next physical line — a classic token-scanner trap).
///   Digit separators (`1'000'000`) are not char literals.
/// - Line structure is preserved exactly: cooked line *i* is physical
///   line *i*, so findings report real line numbers.
/// - The preprocessor-line model joins spliced directives and extracts
///   `#include` paths (which live inside string literals and are
///   therefore invisible in cooked text).
/// - `join_lines` and `find_matching` are the one flat text and the one
///   bracket matcher the multi-line passes (lock-order, wait-loop) share.

#include <cstddef>
#include <string>
#include <vector>

namespace pe::lint {

/// One preprocessor directive, with splices joined.
struct Directive {
  std::size_t line = 0;  ///< 1-based physical line of the `#`
  std::string kind;      ///< "include", "pragma", "define", ...
  std::string text;      ///< full logical line, comments stripped
};

/// One `#include` directive.
struct IncludeDirective {
  std::size_t line = 0;  ///< 1-based
  std::string path;      ///< between the delimiters
  bool angled = false;   ///< <system> vs "quoted"
};

/// Comment/string/raw-string-aware cook of `raw`: same number of lines,
/// same column positions, with comment and literal contents blanked.
[[nodiscard]] std::vector<std::string> cook_lines(
    const std::vector<std::string>& raw);

/// Preprocessor-line model over `raw`: directives with splices joined and
/// trailing comments stripped. Directives inside block comments are not
/// directives.
[[nodiscard]] std::vector<Directive> preprocessor_lines(
    const std::vector<std::string>& raw);

/// The `#include` subset of `preprocessor_lines`, with paths parsed.
[[nodiscard]] std::vector<IncludeDirective> include_directives(
    const std::vector<std::string>& raw);

/// `lines` joined into one text, each line ended by '\n', so constructs
/// that span lines (loop heads, function bodies) are one searchable string
/// whose newlines map offsets back to 1-based lines.
[[nodiscard]] std::string join_lines(const std::vector<std::string>& lines);

/// Position of the `close` bracket matching the `open` bracket at `at` in
/// `text`, counting nesting; npos when unbalanced.
[[nodiscard]] std::size_t find_matching(const std::string& text,
                                        std::size_t at, char open,
                                        char close) noexcept;

/// True when `c` can appear in an identifier.
[[nodiscard]] bool is_identifier_char(char c) noexcept;

/// Does `token` occur in `line` delimited by non-identifier characters?
[[nodiscard]] bool contains_token(const std::string& line,
                                  const std::string& token) noexcept;

}  // namespace pe::lint
