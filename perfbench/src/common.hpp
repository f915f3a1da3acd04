#pragma once

// Shared plumbing of the perfbench program: options, the result report,
// clocks, percentiles and process facts (threads, memory, machine).

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "perfeng/common/rng.hpp"
#include "perfeng/kernels/sparse.hpp"
#include "perfeng/machine/machine.hpp"

namespace pb {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool setup_only = false;  ///< stop at the first timed request
  bool corrupt = false;     ///< self-test: corrupt one checked output
};

/// One named number with its unit and the samples it summarizes.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 1;
};

/// Everything one run prints. `metrics` holds the end-to-end set for an
/// untraced run and the per-layer set for a traced run.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> provenance;

  void add(std::string name, double value, std::string unit,
           std::size_t samples = 1);
  void note(std::string key, std::string value);
  /// Record a failed output check (the run is then marked incorrect).
  void fail_check(const std::string& what);
  /// Print the provenance line, one line per metric, then the result
  /// JSON as the last line of stdout.
  void print() const;
};

/// Nanoseconds on CLOCK_MONOTONIC — the clock run.py reads as well, so
/// set-up time can be measured from before the process was spawned.
[[nodiscard]] std::int64_t monotonic_ns();

/// Seconds on the steady clock.
[[nodiscard]] double now_s();

/// Print the first-timed-request marker run.py turns into setup_s.
void mark_ready();

/// Nearest-rank percentile (q in [0, 1]) of `v`; sorts a copy.
[[nodiscard]] double percentile(std::vector<double> v, double q);

/// Median shorthand.
[[nodiscard]] inline double median(std::vector<double> v) {
  return percentile(std::move(v), 0.5);
}

/// Median wall time of `reps` calls of `fn`, in ms.
template <typename F>
[[nodiscard]] double median_ms(std::size_t reps, F&& fn) {
  std::vector<double> t;
  t.reserve(reps);
  for (std::size_t i = 0; i < reps; ++i) {
    const double t0 = now_s();
    fn();
    t.push_back((now_s() - t0) * 1e3);
  }
  return median(std::move(t));
}

/// Requests per window of the windowed statistics: ten lie beyond the
/// p99 of every window.
inline constexpr std::size_t kWindow = 1000;

/// Tail latency of a run: the p99 of each window of kWindow consecutive
/// requests, median over the run's full windows (the whole run when it
/// has fewer than kWindow requests). A burst of host contention then
/// moves the windows it covers, not the run's figure.
[[nodiscard]] double windowed_p99(const std::vector<double>& latency_ms);

/// Seed of every sparse matrix's structure. It is a constant of the
/// benchmark, so each --seed does the same work per request; --seed draws
/// only the values.
inline constexpr std::uint64_t kStructureSeed = 0x5eed'5;

/// Square power-law CSR matrix: the structure (about `nnz` non-zeros
/// after duplicates merge) from kStructureSeed, the values from `rng`.
[[nodiscard]] pe::kernels::CsrMatrix power_law_csr(std::size_t rows,
                                                   std::size_t nnz,
                                                   pe::Rng& rng);

/// Fill `v` with NaN: a check then passes only on values written after
/// (NaN compares unequal to everything, itself included).
void poison(std::vector<double>& v);
void poison(double* data, std::size_t n);

/// Processors the OS grants this process.
[[nodiscard]] std::size_t nproc();

/// Pool or service workers of every timed run: max(1, nproc - 2). With
/// the participating caller (or the generator) that is nproc - 1
/// runnable threads at most.
[[nodiscard]] std::size_t bench_workers();

/// Threads of this process right now (/proc/self/status).
[[nodiscard]] std::size_t program_threads();

/// Peak resident set of this process in MiB.
[[nodiscard]] double peak_rss_mib();

/// PERFENG_MACHINE's machine, else a probe of this host with a pool of
/// `workers` for the scheduler constants. Traced runs only: probing is
/// never part of a timed window.
[[nodiscard]] pe::machine::Machine traced_machine(std::size_t workers);

/// Median time of a fixed serial loop on this thread, in ms. Runs after
/// the timed window: it tells a slow host from a slow program when runs
/// of the same code disagree.
[[nodiscard]] double host_probe_ms();

/// Record nproc, workers, lanes, seed, calibration hash and host probe.
void note_provenance(Report& report, const Options& opt, std::size_t workers,
                     std::size_t lanes, const std::string& hash);

}  // namespace pb
