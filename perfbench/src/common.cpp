#include "common.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <thread>

#include "perfeng/machine/registry.hpp"
#include "perfeng/microbench/machine_probe.hpp"
#include "perfeng/microbench/scheduler.hpp"

namespace pb {
namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

}  // namespace

void Report::add(std::string name, double value, std::string unit,
                 std::size_t samples) {
  if (!std::isfinite(value)) {
    fail_check("metric " + name + " is not finite");
    value = 0.0;
  }
  metrics.push_back({std::move(name), value, std::move(unit), samples});
}

void Report::note(std::string key, std::string value) {
  provenance.emplace_back(std::move(key), std::move(value));
}

void Report::fail_check(const std::string& what) {
  if (correct) std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
  correct = false;
}

void Report::print() const {
  std::string prov = "{";
  for (std::size_t i = 0; i < provenance.size(); ++i) {
    prov += (i ? ", " : "") + json_string(provenance[i].first) + ": " +
            json_string(provenance[i].second);
  }
  std::printf("provenance %s}\n", prov.c_str());
  for (const Metric& m : metrics) {
    std::printf("metric %-40s %-14s %-8s samples=%zu\n", m.name.c_str(),
                json_number(m.value).c_str(), m.unit.c_str(), m.samples);
  }
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i ? ", " : "") + json_string(metrics[i].name) +
           ": {\"value\": " + json_number(metrics[i].value) +
           ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  std::printf("%s}}\n", out.c_str());
  std::fflush(stdout);
}

std::int64_t monotonic_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void mark_ready() {
  std::printf("ready_ns %lld\n", static_cast<long long>(monotonic_ns()));
  std::fflush(stdout);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto n = static_cast<double>(v.size());
  const auto rank = static_cast<std::size_t>(std::ceil(q * n));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double windowed_p99(const std::vector<double>& latency_ms) {
  if (latency_ms.size() < kWindow) return percentile(latency_ms, 0.99);
  std::vector<double> p99s;
  for (std::size_t lo = 0; lo + kWindow <= latency_ms.size(); lo += kWindow) {
    p99s.push_back(percentile(
        {latency_ms.begin() + static_cast<std::ptrdiff_t>(lo),
         latency_ms.begin() + static_cast<std::ptrdiff_t>(lo + kWindow)},
        0.99));
  }
  return median(std::move(p99s));
}

pe::kernels::CsrMatrix power_law_csr(std::size_t rows, std::size_t nnz,
                                     pe::Rng& rng) {
  pe::Rng structure(kStructureSeed);
  const double r = static_cast<double>(rows);
  pe::kernels::CsrMatrix m = pe::kernels::coo_to_csr(pe::kernels::generate_sparse(
      rows, rows, static_cast<double>(nnz) / (r * r),
      pe::kernels::SparsityPattern::kPowerLaw, structure));
  for (double& v : m.values) v = rng.next_range_double(-1.0, 1.0);
  return m;
}

void poison(double* data, std::size_t n) {
  std::fill(data, data + n, std::numeric_limits<double>::quiet_NaN());
}

void poison(std::vector<double>& v) { poison(v.data(), v.size()); }

std::size_t nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

std::size_t bench_workers() {
  const std::size_t n = nproc();
  return n > 2 ? n - 2 : 1;
}

std::size_t program_threads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) {
      return static_cast<std::size_t>(std::stoul(line.substr(8)));
    }
  }
  return 0;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

pe::machine::Machine traced_machine(std::size_t workers) {
  if (auto m = pe::machine::machine_from_env()) return *m;
  // A short probe: three repetitions instead of ten keeps a traced run
  // well inside its time limit.
  pe::MeasurementConfig cfg;
  cfg.warmup_runs = 1;
  cfg.repetitions = 3;
  const pe::BenchmarkRunner runner(cfg);
  pe::machine::Machine m =
      pe::microbench::probe_machine_description(runner, {}, "probed");
  pe::microbench::SchedulerProbeConfig sched;
  sched.pool_threads = workers;
  pe::microbench::apply_scheduler_probe(
      m, pe::microbench::probe_scheduler(runner, sched));
  return m;
}

double host_probe_ms() {
  // A dependent chain of scalar multiply-adds: no memory traffic and no
  // code from the toolbox, so only the host's speed moves its time.
  return median_ms(5, [] {
    double x = 1.0;
    for (int i = 0; i < 2'000'000; ++i) x = x * 1.0000001 + 1e-9;
    volatile double sink = x;  // keeps the loop
    (void)sink;
  });
}

void note_provenance(Report& report, const Options& opt, std::size_t workers,
                     std::size_t lanes, const std::string& hash) {
  report.note("workload", opt.workload);
  report.note("seed", std::to_string(opt.seed));
  report.note("trace", opt.trace ? "1" : "0");
  report.note("nproc", std::to_string(nproc()));
  report.note("workers", std::to_string(workers));
  report.note("lanes", std::to_string(lanes));
  report.note("calibration_hash", hash);
  report.note("host_probe_ms", std::to_string(host_probe_ms()));
}

}  // namespace pb
