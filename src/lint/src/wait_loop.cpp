#include "perfeng/lint/wait_loop.hpp"

#include <array>
#include <string>
#include <string_view>

#include "perfeng/lint/lexer.hpp"

namespace pe::lint {

namespace {

/// Anything in a loop body that either makes progress on an atomic or
/// pauses the burning core counts as pacing.
bool is_pacified(const std::string& body) {
  static constexpr std::array<std::string_view, 14> kPacify = {
      "yield",       ".wait(",       "wait_for",    "wait_until",
      "sleep_for",   "sleep_until",  "park",        "backoff",
      "compare_exchange", "fetch_add", "fetch_sub", ".store(",
      "lock(",       "unlock(",
  };
  for (const std::string_view t : kPacify)
    if (body.find(t) != std::string::npos) return true;
  return false;
}

std::size_t line_of_offset(const std::string& text, std::size_t offset) {
  std::size_t line = 1;
  for (std::size_t i = 0; i < offset && i < text.size(); ++i)
    if (text[i] == '\n') ++line;
  return line;
}

}  // namespace

RuleInfo WaitLoopPass::rule() const {
  return {"wait-loop",
          "spin loops on atomics must pace themselves (yield/park/backoff "
          "or a futex wait)",
          Severity::kWarning};
}

void WaitLoopPass::run(const PassContext& ctx,
                       std::vector<Finding>& out) const {
  for (const SourceFile& f : *ctx.files) {
    if (!f.in_src) continue;
    // Loop headers and bodies may span lines: search the joined text.
    const std::string text = join_lines(f.code);

    std::size_t pos = 0;
    while (pos < text.size()) {
      // Candidate loop heads: while (...) and for (;;).
      const std::size_t w = text.find("while", pos);
      const std::size_t fo = text.find("for", pos);
      std::size_t head = std::string::npos;
      bool is_while = false;
      if (w != std::string::npos && (fo == std::string::npos || w < fo)) {
        head = w;
        is_while = true;
      } else if (fo != std::string::npos) {
        head = fo;
      }
      if (head == std::string::npos) break;
      pos = head + 3;
      // Token boundary (avoid e.g. "meanwhile" / "before").
      if (head > 0 && is_identifier_char(text[head - 1])) continue;
      const std::size_t kw_end = head + (is_while ? 5 : 3);
      if (kw_end < text.size() && is_identifier_char(text[kw_end])) continue;

      const std::size_t open = text.find('(', kw_end);
      if (open == std::string::npos) break;
      // Only immediate parens (skip whitespace) belong to this keyword.
      bool only_space = true;
      for (std::size_t i = kw_end; i < open; ++i)
        if (text[i] != ' ' && text[i] != '\n' && text[i] != '\t')
          only_space = false;
      if (!only_space) continue;
      const std::size_t close = find_matching(text, open, '(', ')');
      if (close == std::string::npos) continue;
      const std::string cond = text.substr(open + 1, close - open - 1);

      // do { ... } while (cond); — the trailing while has no body; its
      // enclosing do-body was already scanned. Detect via the ';' right
      // after the ')'.
      std::size_t after = close + 1;
      while (after < text.size() &&
             (text[after] == ' ' || text[after] == '\n' ||
              text[after] == '\t'))
        ++after;
      if (after < text.size() && text[after] == ';') {
        // while(cond); with an empty body IS a spin if the cond polls an
        // atomic with no pacing possible.
        if (is_while && cond.find(".load(") != std::string::npos &&
            !is_pacified(cond)) {
          const std::size_t line = line_of_offset(text, head);
          if (!line_allows(f, line - 1, "wait-loop"))
            out.push_back(
                {f.rel, line, rule().id, rule().severity,
                 "empty-body spin on an atomic load burns a core — pace "
                 "with yield/park/backoff or a futex-style .wait()",
                 "see the scheduler's spin->yield->park ladder "
                 "(docs/parallel.md)"});
        }
        continue;
      }

      // Body: either a braced block or a single statement up to ';'.
      std::string body;
      if (after < text.size() && text[after] == '{') {
        const std::size_t end = find_matching(text, after, '{', '}');
        if (end == std::string::npos) continue;
        body = text.substr(after + 1, end - after - 1);
      } else {
        const std::size_t end = text.find(';', after);
        if (end == std::string::npos) continue;
        body = text.substr(after, end - after);
      }

      const bool infinite =
          is_while
              ? (cond.find_first_not_of(" \n\t") == std::string::npos ||
                 cond == "true")
              : cond.find_first_not_of("; \n\t") == std::string::npos;
      bool spins = false;
      if (is_while && cond.find(".load(") != std::string::npos) {
        // Exit condition polls an atomic; the body must pace or progress.
        spins = !is_pacified(body);
      } else if (infinite && body.find(".load(") != std::string::npos) {
        // Infinite loop polling an atomic somewhere in the body.
        spins = !is_pacified(body);
      }
      if (!spins) continue;

      const std::size_t line = line_of_offset(text, head);
      if (line_allows(f, line - 1, "wait-loop")) continue;
      out.push_back(
          {f.rel, line, rule().id, rule().severity,
           "spin loop polls an atomic without yielding, parking, backing "
           "off, or making progress on it",
           "insert std::this_thread::yield() / a backoff ladder, or use "
           "std::atomic::wait()"});
    }
  }
}

}  // namespace pe::lint
