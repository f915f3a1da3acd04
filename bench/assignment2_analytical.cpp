// Assignment 2: analytical modeling and microbenchmarking.
//
// Builds matmul models at three granularities (coarse FLOP-count,
// Roofline-style traffic, instruction-level from a measured op-cost
// table), calibrates them with microbenchmarks, and compares predictions
// against measurements. The histogram kernel adds the data-dependent
// behaviour (uniform vs Zipf-skewed bins) the assignment is designed
// around.
#include <cstdio>

#include "perfeng/common/table.hpp"
#include "perfeng/common/units.hpp"
#include "perfeng/kernels/histogram.hpp"
#include "perfeng/kernels/matmul.hpp"
#include "perfeng/machine/registry.hpp"
#include "perfeng/measure/benchmark_runner.hpp"
#include "perfeng/measure/metrics.hpp"
#include "perfeng/microbench/machine_probe.hpp"
#include "perfeng/microbench/op_costs.hpp"
#include "perfeng/models/analytical.hpp"

using pe::models::MatmulModel;
using pe::models::MatmulVariant;

int main() {
  pe::MeasurementConfig cfg;
  cfg.warmup_runs = 1;
  cfg.repetitions = 5;
  cfg.min_batch_seconds = 5e-3;
  const pe::BenchmarkRunner runner(cfg);

  std::puts("== Assignment 2: analytical models + microbenchmark "
            "calibration ==\n");

  pe::microbench::ProbeConfig probe;
  probe.stream_elements = 1 << 21;
  probe.latency_max_bytes = 1 << 22;
  const pe::machine::Machine desc =
      pe::microbench::resolve_or_probe(runner, probe);
  const auto ops = pe::microbench::OpCostTable::measure(runner);
  std::printf("machine: %s\n", desc.summary().c_str());
  std::printf("calibration: %s  (override with %s=<preset|file>)\n",
              desc.calibration_hash().c_str(), pe::machine::kMachineEnv);

  pe::Table op_table({"op", "latency", "throughput"});
  for (const auto& [op, cost] : ops.entries()) {
    op_table.add_row({pe::microbench::op_name(op),
                      pe::format_time(cost.latency_seconds),
                      pe::format_time(cost.throughput_seconds)});
  }
  std::puts("\nMeasured per-operation cost table (Agner-Fog stand-in):");
  std::fputs(op_table.render().c_str(), stdout);

  // ----- matmul at three granularities -----
  pe::Table mm({"n", "variant", "measured", "coarse", "traffic",
                "instr-level", "best model err %"});
  for (std::size_t n : {128u, 256u}) {
    pe::kernels::Matrix a(n, n), b(n, n), c(n, n);
    pe::Rng rng(n);
    a.randomize(rng);
    b.randomize(rng);

    struct Row {
      MatmulVariant variant;
      const char* name;
      std::function<void()> kernel;
    };
    const Row rows[] = {
        {MatmulVariant::kNaiveIjk, "ijk",
         [&] { pe::kernels::matmul_naive(a, b, c); }},
        {MatmulVariant::kInterchangedIkj, "ikj",
         [&] { pe::kernels::matmul_interchanged(a, b, c); }},
        {MatmulVariant::kTiled, "tiled",
         [&] { pe::kernels::matmul_tiled(a, b, c, 64); }},
    };
    for (const auto& row : rows) {
      const MatmulModel model(n, row.variant, desc);
      const auto m = runner.run(row.name, row.kernel);
      const double measured = m.typical();
      const double coarse = model.predict_coarse();
      const double traffic = model.predict_traffic();
      const double instr = model.predict_instruction(ops);
      double best_err = 1e99;
      for (double p : {coarse, traffic, instr}) {
        best_err = std::min(best_err,
                            std::abs(pe::relative_error(p, measured)));
      }
      mm.add_row({std::to_string(n), row.name, pe::format_time(measured),
                  pe::format_time(coarse), pe::format_time(traffic),
                  pe::format_time(instr),
                  pe::format_fixed(best_err * 100.0, 1)});
    }
  }
  std::puts("\nMatmul: measured vs three model granularities:");
  std::fputs(mm.render().c_str(), stdout);

  // ----- histogram: data-dependent behaviour -----
  pe::Table hist({"bins", "distribution", "measured", "model",
                  "model miss prob"});
  const std::size_t elements = 1 << 22;
  pe::Rng rng(7);
  for (std::size_t bins : {1u << 10, 1u << 22}) {
    for (double skew : {0.0, 1.2}) {
      const auto idx =
          skew == 0.0
              ? pe::kernels::generate_uniform_indices(elements, bins, rng)
              : pe::kernels::generate_zipf_indices(elements, bins, skew,
                                                   rng);
      std::vector<std::uint64_t> counts(bins, 0);
      const auto m = runner.run("histogram", [&] {
        std::fill(counts.begin(), counts.end(), 0);
        pe::kernels::histogram_serial(idx, counts);
      });
      const pe::models::HistogramModel model(elements, bins, skew, desc);
      hist.add_row({std::to_string(bins),
                    skew == 0.0 ? "uniform" : "zipf(1.2)",
                    pe::format_time(m.typical()),
                    pe::format_time(model.predict_traffic()),
                    pe::format_fixed(model.update_miss_probability(), 3)});
    }
  }
  std::puts("\nHistogram: the data-dependent kernel:");
  std::fputs(hist.render().c_str(), stdout);
  std::puts(
      "\nExpected shape (paper): finer-granularity models track the "
      "variants more closely\nthan the coarse model; skewed bins run "
      "faster than uniform on large tables, and\nonly the model with the "
      "data-dependent miss term explains it.");
  return 0;
}
