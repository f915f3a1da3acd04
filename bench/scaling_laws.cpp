// Scale-out topic: measured thread-pool scaling against Amdahl,
// Gustafson, and a fitted Universal Scalability Law curve.
//
// On a single-core host the measured curve is flat (speedup ~1): the
// model table still demonstrates the laws, and the USL fit correctly
// reports a large contention term — a result, not a failure (Lesson 5).
//
// `--json <path>` writes a pe-bench-v1 BenchReport snapshot (full
// per-repetition sample distributions, not just the medians the table
// shows) for bench/snapshots/.
#include <cstdio>
#include <string>

#include "perfeng/bench/cli.hpp"
#include "perfeng/common/table.hpp"
#include "perfeng/common/units.hpp"
#include "perfeng/kernels/stencil.hpp"
#include "perfeng/machine/registry.hpp"
#include "perfeng/measure/bench_json.hpp"
#include "perfeng/measure/benchmark_runner.hpp"
#include "perfeng/models/scaling.hpp"

int main(int argc, char** argv) {
  const pe::bench::Cli cli = pe::bench::parse_cli(argc, argv, pe::bench::kJson);

  pe::MeasurementConfig cfg;
  cfg.warmup_runs = 1;
  cfg.repetitions = 3;
  cfg.min_batch_seconds = 2e-3;
  const pe::BenchmarkRunner runner(cfg);

  std::puts("== Scaling laws: Amdahl / Gustafson / USL ==\n");

  // Model table: what the laws predict for a 5% serial fraction.
  pe::Table model({"p", "Amdahl (f=0.05)", "Gustafson (f=0.05)",
                   "USL (s=0.05,k=0.002)"});
  for (double p : {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0}) {
    model.add_row({pe::format_fixed(p, 0),
                   pe::format_fixed(pe::models::amdahl_speedup(0.05, p), 2),
                   pe::format_fixed(pe::models::gustafson_speedup(0.05, p),
                                    2),
                   pe::format_fixed(
                       pe::models::usl_speedup(0.05, 0.002, p), 2)});
  }
  std::fputs(model.render().c_str(), stdout);
  std::printf("Amdahl limit at f=0.05: %.1fx; USL peak at %.1f workers\n\n",
              pe::models::amdahl_limit(0.05),
              pe::models::usl_peak_workers(0.05, 0.002));

  // Measured: parallel stencil across pool sizes.
  const std::size_t rows = 512, cols = 512;
  pe::kernels::Grid2D grid(rows, cols, 1.0), out(rows, cols);
  std::vector<double> workers, speedups;
  std::vector<pe::Measurement> runs;
  double baseline = 0.0;
  pe::Table measured({"pool threads", "median time", "speedup",
                      "efficiency %", "Karp-Flatt serial frac"});
  const std::size_t hw = pe::ThreadPool::default_thread_count();
  for (std::size_t p = 1; p <= std::max<std::size_t>(4, hw); p *= 2) {
    pe::ThreadPool pool(p);
    const auto m = runner.run("stencil", [&] {
      pe::kernels::stencil_step_parallel(grid, out, pool);
    });
    if (baseline == 0.0) baseline = m.typical();
    const double speedup = baseline / m.typical();
    workers.push_back(double(p));
    speedups.push_back(speedup);
    runs.push_back(m);
    measured.add_row(
        {std::to_string(p), pe::format_time(m.typical()),
         pe::format_fixed(speedup, 2),
         pe::format_fixed(speedup / double(p) * 100.0, 1),
         p > 1 ? pe::format_fixed(
                     pe::models::karp_flatt(speedup, double(p)), 3)
               : std::string("-")});
  }
  std::printf("Measured stencil scaling (host has %zu hardware threads):\n",
              hw);
  std::fputs(measured.render().c_str(), stdout);

  pe::models::UslFit fit{};
  const bool fitted = workers.size() >= 3;
  if (fitted) {
    fit = pe::models::fit_usl(workers, speedups);
    std::printf(
        "\nUSL fit to the measured curve: sigma=%.3f kappa=%.4f "
        "(R^2=%.3f)\n -> predicted peak at %.1f workers\n",
        fit.sigma, fit.kappa, fit.r2,
        pe::models::usl_peak_workers(fit.sigma, fit.kappa));
  }
  std::puts(
      "\nExpected shape (paper): speedup saturates by Amdahl; USL's "
      "contention/coherence\nterms explain retrograde scaling that Amdahl "
      "cannot.");

  if (!cli.json_path.empty()) {
    pe::BenchReport report("scaling_laws");
    report.set_machine(pe::machine::resolve_or_preset("laptop-x86"));
    report.set_context("grid_rows", double(rows));
    report.set_context("grid_cols", double(cols));
    report.set_context("repetitions", double(cfg.repetitions));
    for (std::size_t i = 0; i < runs.size(); ++i) {
      const std::string prefix =
          "stencil.p" + std::to_string(std::size_t(workers[i]));
      report.add_metric(prefix + ".seconds", "s", runs[i].seconds);
      report.add_scalar(prefix + ".speedup", "x", speedups[i]);
    }
    report.add_scalar("model.amdahl_limit_f005", "x",
                      pe::models::amdahl_limit(0.05));
    if (fitted) {
      report.add_scalar("usl_fit.sigma", "frac", fit.sigma);
      report.add_scalar("usl_fit.kappa", "frac", fit.kappa);
      report.add_scalar("usl_fit.r2", "frac", fit.r2);
      report.add_scalar("usl_fit.peak_workers", "workers",
                        pe::models::usl_peak_workers(fit.sigma, fit.kappa));
    }
    pe::bench::save_snapshot(report, cli.json_path);
  }
  return 0;
}
