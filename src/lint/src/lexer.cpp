#include "perfeng/lint/lexer.hpp"

#include <cctype>
#include <cstddef>

namespace pe::lint {

namespace {

/// Lexing state carried across physical lines.
enum class State {
  kNormal,
  kBlockComment,
  kLineComment,  ///< only survives a line via a trailing backslash splice
  kString,       ///< only survives a line via a trailing backslash splice
  kChar,
  kRawString,
};

bool ends_with_splice(const std::string& line) {
  // A backslash as the last character splices the next physical line
  // onto this one — inside a // comment or a string literal, the
  // comment/literal continues.
  std::size_t n = line.size();
  return n > 0 && line[n - 1] == '\\';
}

/// Is position `i` in `line` the start of a raw-string literal opener
/// (the `"` of `R"`, with optional u8/u/U/L encoding prefix before R)?
/// `i` must point at the quote.
bool is_raw_string_quote(const std::string& line, std::size_t i) {
  if (i == 0 || line[i - 1] != 'R') return false;
  // The R must itself start the identifier (or follow an encoding
  // prefix): uR"..., u8R"..., LR"... are raw, fooR"..." is not.
  std::size_t p = i - 1;
  if (p == 0) return true;
  const char before = line[p - 1];
  if (!is_identifier_char(before)) return true;
  // Walk back over a possible encoding prefix.
  std::size_t s = p;
  while (s > 0 && is_identifier_char(line[s - 1])) --s;
  const std::string prefix = line.substr(s, p - s);
  return prefix == "u8" || prefix == "u" || prefix == "U" || prefix == "L";
}

}  // namespace

bool is_identifier_char(char c) noexcept {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool contains_token(const std::string& line,
                    const std::string& token) noexcept {
  std::size_t pos = 0;
  while ((pos = line.find(token, pos)) != std::string::npos) {
    const std::size_t end = pos + token.size();
    const bool before = pos == 0 || !is_identifier_char(line[pos - 1]);
    const bool after = end >= line.size() || !is_identifier_char(line[end]);
    if (before && after) return true;
    pos = end;
  }
  return false;
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string text;
  for (const std::string& line : lines) {
    text += line;
    text += '\n';
  }
  return text;
}

std::size_t find_matching(const std::string& text, std::size_t at, char open,
                          char close) noexcept {
  int depth = 0;
  for (std::size_t i = at; i < text.size(); ++i) {
    if (text[i] == open) ++depth;
    if (text[i] == close && --depth == 0) return i;
  }
  return std::string::npos;
}

std::vector<std::string> cook_lines(const std::vector<std::string>& raw) {
  std::vector<std::string> out;
  out.reserve(raw.size());
  State state = State::kNormal;
  std::string raw_delim;  // the )delim" closer we are looking for

  for (const std::string& line : raw) {
    std::string cooked(line.size(), ' ');
    std::size_t i = 0;

    // States that survived the previous line.
    if (state == State::kLineComment) {
      // Spliced // comment: this whole line is comment; it continues
      // further only if it splices again.
      if (!ends_with_splice(line)) state = State::kNormal;
      out.push_back(std::move(cooked));
      continue;
    }

    while (i < line.size()) {
      const char c = line[i];
      switch (state) {
        case State::kBlockComment:
          if (c == '*' && i + 1 < line.size() && line[i + 1] == '/') {
            state = State::kNormal;
            ++i;
          }
          ++i;
          break;

        case State::kRawString: {
          // Look for )delim" from here.
          const std::string closer = ")" + raw_delim + "\"";
          const std::size_t close = line.find(closer, i);
          if (close == std::string::npos) {
            i = line.size();  // whole remainder is raw-string body
          } else {
            i = close + closer.size();
            cooked[i - 1] = '"';  // keep the closing delimiter visible
            state = State::kNormal;
          }
          break;
        }

        case State::kString:
          if (c == '\\' && i + 1 < line.size()) {
            i += 2;
          } else if (c == '"') {
            cooked[i] = '"';
            state = State::kNormal;
            ++i;
          } else {
            ++i;
          }
          break;

        case State::kChar:
          if (c == '\\' && i + 1 < line.size()) {
            i += 2;
          } else if (c == '\'') {
            cooked[i] = '\'';
            state = State::kNormal;
            ++i;
          } else {
            ++i;
          }
          break;

        case State::kLineComment:
          // handled above; unreachable mid-line
          ++i;
          break;

        case State::kNormal:
          if (c == '/' && i + 1 < line.size() && line[i + 1] == '/') {
            // Rest of line is comment; continues onto the next physical
            // line if this one ends in a splice.
            state = ends_with_splice(line) ? State::kLineComment
                                          : State::kNormal;
            i = line.size();
            break;
          }
          if (c == '/' && i + 1 < line.size() && line[i + 1] == '*') {
            state = State::kBlockComment;
            i += 2;
            break;
          }
          if (c == '"') {
            cooked[i] = '"';
            if (is_raw_string_quote(line, i)) {
              // Parse the delimiter up to '('.
              std::size_t p = i + 1;
              std::string delim;
              while (p < line.size() && line[p] != '(' &&
                     delim.size() <= 16) {
                delim.push_back(line[p]);
                ++p;
              }
              if (p < line.size() && line[p] == '(') {
                raw_delim = delim;
                state = State::kRawString;
                i = p + 1;
              } else {
                // Malformed opener; treat as ordinary string.
                state = State::kString;
                ++i;
              }
            } else {
              state = State::kString;
              ++i;
            }
            break;
          }
          if (c == '\'') {
            // Digit separator (1'000'000), not a char literal: a quote
            // sandwiched between identifier characters where the left
            // neighbor is alphanumeric.
            const bool digit_sep =
                i > 0 &&
                std::isalnum(static_cast<unsigned char>(line[i - 1])) != 0 &&
                i + 1 < line.size() &&
                std::isalnum(static_cast<unsigned char>(line[i + 1])) != 0;
            if (digit_sep) {
              cooked[i] = '\'';
              ++i;
            } else {
              cooked[i] = '\'';
              state = State::kChar;
              ++i;
            }
            break;
          }
          cooked[i] = c;
          ++i;
          break;
      }
    }

    // A string spliced across lines stays a string; anything else
    // (except block comments and raw strings, which legitimately span
    // lines) resets at end of line.
    if (state == State::kString || state == State::kChar) {
      if (!ends_with_splice(line)) state = State::kNormal;
    }
    out.push_back(std::move(cooked));
  }
  return out;
}

std::vector<Directive> preprocessor_lines(
    const std::vector<std::string>& raw) {
  const std::vector<std::string> code = cook_lines(raw);
  std::vector<Directive> out;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    const std::string& cooked = code[i];
    const std::size_t hash = cooked.find_first_not_of(" \t");
    if (hash == std::string::npos || cooked[hash] != '#') continue;
    // A '#' visible in cooked text is a real directive (comment-interior
    // hashes were blanked). Join spliced continuations from the raw
    // lines, but substitute cooked text for comment safety — except that
    // include paths live in string literals, so keep the raw text and
    // strip a trailing // comment manually.
    Directive d;
    d.line = i + 1;
    std::string text;
    std::size_t j = i;
    for (;;) {
      std::string part = raw[j];
      // Strip trailing line comment using the cooked view (same length).
      const std::string& cpart = code[j];
      const std::size_t slash = cpart.find("//");
      // cooked blanks comments entirely, so "//" never survives in it;
      // find the first position where cooked went blank but raw has '/'.
      (void)slash;
      std::size_t cut = part.size();
      for (std::size_t k = 0; k + 1 < part.size(); ++k) {
        if (part[k] == '/' && (part[k + 1] == '/' || part[k + 1] == '*') &&
            (k >= cpart.size() || cpart[k] == ' ')) {
          cut = k;
          break;
        }
      }
      part = part.substr(0, cut);
      const bool spliced = ends_with_splice(part);
      if (spliced) part.pop_back();
      text += part;
      if (!spliced || j + 1 >= raw.size()) break;
      ++j;
    }
    d.text = text;
    // kind = first word after '#'
    std::size_t p = text.find('#');
    if (p == std::string::npos) continue;
    ++p;
    while (p < text.size() && (text[p] == ' ' || text[p] == '\t')) ++p;
    std::size_t e = p;
    while (e < text.size() &&
           std::isalpha(static_cast<unsigned char>(text[e])) != 0)
      ++e;
    d.kind = text.substr(p, e - p);
    out.push_back(std::move(d));
  }
  return out;
}

std::vector<IncludeDirective> include_directives(
    const std::vector<std::string>& raw) {
  std::vector<IncludeDirective> out;
  for (const Directive& d : preprocessor_lines(raw)) {
    if (d.kind != "include") continue;
    IncludeDirective inc;
    inc.line = d.line;
    const std::size_t q = d.text.find('"');
    const std::size_t a = d.text.find('<');
    if (q != std::string::npos && (a == std::string::npos || q < a)) {
      const std::size_t end = d.text.find('"', q + 1);
      if (end == std::string::npos) continue;
      inc.path = d.text.substr(q + 1, end - q - 1);
      inc.angled = false;
    } else if (a != std::string::npos) {
      const std::size_t end = d.text.find('>', a + 1);
      if (end == std::string::npos) continue;
      inc.path = d.text.substr(a + 1, end - a - 1);
      inc.angled = true;
    } else {
      continue;  // computed include (macro) — out of model
    }
    out.push_back(std::move(inc));
  }
  return out;
}

}  // namespace pe::lint
