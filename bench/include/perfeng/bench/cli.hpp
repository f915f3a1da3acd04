// The entry point every flag-taking bench binary shares: argument
// parsing, snapshot writing and gate collection, so each bench states only
// what it measures and what it claims. The contract (flags, exit codes,
// CHECK lines) is documented once in DESIGN.md §3, "Bench contract".
#pragma once

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "perfeng/measure/bench_json.hpp"

namespace pe::bench {

/// Flags a bench may accept; each bench ORs together the ones it takes.
enum Flag : unsigned { kCheck = 1u, kJson = 2u, kOut = 4u };

struct Cli {
  bool check = false;         ///< --check: failed gates make the exit 1
  std::string json_path;      ///< --json <path>: empty when not asked for
  std::string out_dir = ".";  ///< --out <dir>
};

/// Parses argv against the `accepted` flags. Anything else, including a
/// value flag without its value, prints the usage line built from
/// `accepted` and exits 2 — before the bench measures anything.
inline Cli parse_cli(int argc, char** argv, unsigned accepted) {
  Cli cli;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if ((accepted & kCheck) && arg == "--check") {
      cli.check = true;
    } else if ((accepted & kJson) && arg == "--json" && has_value) {
      cli.json_path = argv[++i];
    } else if ((accepted & kOut) && arg == "--out" && has_value) {
      cli.out_dir = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s%s%s%s\n", argv[0],
                   (accepted & kCheck) ? " [--check]" : "",
                   (accepted & kJson) ? " [--json <path>]" : "",
                   (accepted & kOut) ? " [--out <dir>]" : "");
      std::exit(2);
    }
  }
  return cli;
}

/// Runs `write`; when it throws, prints "cannot write '<path>': <why>" and
/// exits 2.
template <class Write>
void write_or_exit(const std::string& path, Write&& write) {
  try {
    write();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cannot write '%s': %s\n", path.c_str(), e.what());
    std::exit(2);
  }
}

/// Stamps the host's hardware thread count into `report`'s context — the
/// provenance every snapshot carries next to its machine hash — and saves
/// it to `path` through write_or_exit.
inline void save_snapshot(BenchReport& report, const std::string& path) {
  report.set_context(
      "hardware_threads",
      static_cast<double>(std::max(1u, std::thread::hardware_concurrency())));
  write_or_exit(path, [&] { report.save_file(path); });
  std::printf("snapshot written to %s\n", path.c_str());
}

/// Collects a bench's gate results. Every miss prints
/// "CHECK FAILED: <message>" on stdout as it is recorded; finish() prints
/// the closing verdict and returns the exit code.
class Gate {
 public:
  /// `enforce` is the bench's --check: only then does a miss fail the run.
  explicit Gate(bool enforce) : enforce_(enforce) {}

  /// Records one gate; when `ok` is false prints the printf-style message.
  /// Returns `ok`.
  __attribute__((format(printf, 3, 4))) bool expect(bool ok, const char* fmt,
                                                    ...) {
    ++gates_;
    if (ok) return true;
    ++failed_;
    std::fputs("CHECK FAILED: ", stdout);
    va_list args;
    va_start(args, fmt);
    std::vprintf(fmt, args);
    va_end(args);
    std::fputc('\n', stdout);
    return false;
  }

  /// Prints "CHECK OK (<k> passed)" or "CHECK FAILED (<n> of <k> failed)"
  /// and returns the exit code: 1 when enforcing and a gate failed, else 0.
  int finish() const {
    if (failed_ == 0)
      std::printf("\nCHECK OK (%d passed)\n", gates_);
    else
      std::printf("\nCHECK FAILED (%d of %d failed)\n", failed_, gates_);
    return enforce_ && failed_ > 0 ? 1 : 0;
  }

 private:
  bool enforce_;
  int gates_ = 0;
  int failed_ = 0;
};

}  // namespace pe::bench
