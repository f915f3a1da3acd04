// perfbench: the repository's end-to-end benchmark program.
//
//   perfbench --workload kernels-coarse|service-mixed
//             --seed N --seconds S --trace 0|1
//             [--setup-only] [--corrupt]
//
// Untraced runs print the end-to-end metrics, traced runs the per-layer
// ones (see NOTES.md). The last stdout line is the result JSON; the exit
// code is non-zero when any output check failed. perfbench/run.py builds
// this program, measures set-up time around it and is the command
// BENCHMARK.json names.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hpp"
#include "workloads.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "kernels-coarse|service-mixed --seed N --seconds S "
               "--trace 0|1 [--setup-only] [--corrupt]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  pb::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      opt.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--setup-only") {
      opt.setup_only = true;
    } else if (arg == "--corrupt") {
      opt.corrupt = true;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (!(opt.seconds > 0.0)) return usage("--seconds must be positive");
  try {
    if (opt.workload == "kernels-coarse") return pb::run_kernel_workload(opt);
    if (opt.workload == "service-mixed") return pb::run_service_workload(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return usage("unknown workload");
}
