// STREAM microbenchmark suite (McCalpin) over the pe::simd layer: the
// four kernels at a cache-resident and a DRAM-resident working set, each
// measured both through the explicit Vec<double, N> path the library
// ships (perfeng/microbench/stream_kernels.hpp) and through a
// deliberately unvectorized scalar baseline.
//
// The interesting number is the vector/scalar ratio per kernel. At
// cache-resident sizes the explicit SIMD path should win outright on an
// AVX2 build; at DRAM sizes both paths converge on the memory roof (the
// lesson: vectorization moves the compute ceiling, not the bandwidth
// ceiling). `--check` fails when the vectorized path is materially slower
// than scalar anywhere — the "never slower via the generic backend"
// guarantee. `--json <path>` writes the pe-bench-v1 snapshot checked in
// at bench/snapshots/BENCH_stream.json.
#include <cstdio>
#include <string>
#include <vector>

#include "perfeng/bench/cli.hpp"
#include "perfeng/common/aligned_buffer.hpp"
#include "perfeng/common/table.hpp"
#include "perfeng/common/units.hpp"
#include "perfeng/machine/registry.hpp"
#include "perfeng/measure/bench_json.hpp"
#include "perfeng/measure/timer.hpp"
#include "perfeng/microbench/stream.hpp"
#include "perfeng/microbench/stream_kernels.hpp"
#include "perfeng/simd/caps.hpp"
#include "perfeng/simd/vec.hpp"

namespace {

// Scalar baselines pinned to scalar codegen: the whole project builds
// with -mavx2, so without the attribute GCC would auto-vectorize these
// loops and the comparison would measure nothing.
__attribute__((optimize("no-tree-vectorize,no-tree-slp-vectorize"))) void
scalar_copy(const double* a, double* b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) b[i] = a[i];
}
__attribute__((optimize("no-tree-vectorize,no-tree-slp-vectorize"))) void
scalar_scale(const double* a, double* b, double s, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) b[i] = s * a[i];
}
__attribute__((optimize("no-tree-vectorize,no-tree-slp-vectorize"))) void
scalar_add(const double* a, const double* b, double* c, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) c[i] = a[i] + b[i];
}
__attribute__((optimize("no-tree-vectorize,no-tree-slp-vectorize"))) void
scalar_triad(const double* a, const double* b, double* c, double s,
             std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) c[i] = a[i] + s * b[i];
}

struct KernelPair {
  const char* name;
  std::size_t bytes_per_elem;
  void (*vec)(const double*, const double*, double*, double, std::size_t);
  void (*scalar)(const double*, const double*, double*, double,
                 std::size_t);
};

void vec_copy_w(const double* a, const double*, double* c, double,
                std::size_t n) {
  pe::microbench::stream_copy(a, c, n);
}
void vec_scale_w(const double* a, const double*, double* c, double s,
                 std::size_t n) {
  pe::microbench::stream_scale(a, c, s, n);
}
void vec_add_w(const double* a, const double* b, double* c, double,
               std::size_t n) {
  pe::microbench::stream_add(a, b, c, n);
}
void vec_triad_w(const double* a, const double* b, double* c, double s,
                 std::size_t n) {
  pe::microbench::stream_triad(a, b, c, s, n);
}
void sc_copy_w(const double* a, const double*, double* c, double,
               std::size_t n) {
  scalar_copy(a, c, n);
}
void sc_scale_w(const double* a, const double*, double* c, double s,
                std::size_t n) {
  scalar_scale(a, c, s, n);
}
void sc_add_w(const double* a, const double* b, double* c, double,
              std::size_t n) {
  scalar_add(a, b, c, n);
}
void sc_triad_w(const double* a, const double* b, double* c, double s,
                std::size_t n) {
  scalar_triad(a, b, c, s, n);
}

}  // namespace

int main(int argc, char** argv) {
  const pe::bench::Cli cli =
      pe::bench::parse_cli(argc, argv, pe::bench::kCheck | pe::bench::kJson);

  pe::MeasurementConfig cfg;
  cfg.warmup_runs = 1;
  cfg.repetitions = 5;
  cfg.min_batch_seconds = 2e-3;
  const pe::BenchmarkRunner runner(cfg);

  std::printf("== STREAM: pe::simd vector path vs scalar baseline ==\n");
  std::printf("compiled backend: %s, host: %s\n\n",
              pe::simd::compiled_backend_name(),
              pe::simd::runtime_simd_caps().summary().c_str());

  const KernelPair kernels[] = {
      {"Copy", 16, vec_copy_w, sc_copy_w},
      {"Scale", 16, vec_scale_w, sc_scale_w},
      {"Add", 24, vec_add_w, sc_add_w},
      {"Triad", 24, vec_triad_w, sc_triad_w},
  };
  // L1-resident (vectorization-bound) and DRAM-resident (bandwidth-bound).
  const std::size_t sizes[] = {std::size_t{1} << 12, std::size_t{1} << 22};

  pe::Table table(
      {"kernel", "N", "scalar GB/s", "vector GB/s", "vec/scalar"});
  pe::BenchReport report("stream_micro");
  report.set_context("simd_width_bits",
                     static_cast<double>(pe::simd::compiled_width_bits()));
  double worst_ratio = 0.0;
  std::string worst_label;

  for (const std::size_t n : sizes) {
    pe::AlignedBuffer<double> a(n), b(n), c(n);
    for (std::size_t i = 0; i < n; ++i) {
      a[i] = 1.0;
      b[i] = 2.0;
      c[i] = 0.0;
    }
    for (const KernelPair& k : kernels) {
      const std::string label =
          std::string(k.name) + "/" + std::to_string(n);
      const auto vec_m = runner.run("vec " + label, [&] {
        k.vec(a.data(), b.data(), c.data(), 3.0, n);
        pe::do_not_optimize(c.data()[0]);
      });
      const auto sc_m = runner.run("scalar " + label, [&] {
        k.scalar(a.data(), b.data(), c.data(), 3.0, n);
        pe::do_not_optimize(c.data()[0]);
      });
      const double bytes =
          static_cast<double>(n) * static_cast<double>(k.bytes_per_elem);
      // Ratio of medians: vectorized time over scalar time (< 1 = faster).
      const double ratio = vec_m.typical() / sc_m.typical();
      if (ratio > worst_ratio) {
        worst_ratio = ratio;
        worst_label = label;
      }
      table.add_row({std::string(k.name), std::to_string(n),
                     pe::format_sig(bytes / sc_m.typical() / 1e9, 3),
                     pe::format_sig(bytes / vec_m.typical() / 1e9, 3),
                     pe::format_fixed(ratio, 3)});
      report.add_metric("vec_" + label, "s", vec_m.seconds);
      report.add_metric("scalar_" + label, "s", sc_m.seconds);
    }
  }
  std::fputs(table.render().c_str(), stdout);
  report.add_scalar("worst_vec_over_scalar", "ratio", worst_ratio);

  if (!cli.json_path.empty()) {
    const pe::machine::Machine m =
        pe::machine::resolve_or_preset("laptop-x86");
    report.set_machine(m);
    pe::bench::save_snapshot(report, cli.json_path);
  }

  // The explicit-SIMD path must never be materially slower than the
  // scalar baseline — on the generic backend both compile to comparable
  // loops, on AVX2 the vector path should win; 1.15 absorbs CI noise.
  pe::bench::Gate gate(cli.check);
  gate.expect(worst_ratio <= 1.15, "%s vec/scalar = %.3f > 1.15",
              worst_label.c_str(), worst_ratio);
  return gate.finish();
}
