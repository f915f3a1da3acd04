// The format-adaptive sparse engine's training ground: measure SpMV in
// every storage format (CSR, CSC, COO, ELL, SELL-C-sigma) across a corpus
// of synthetic matrices (uniform / banded / power-law at several shapes
// and densities), train the statmodel FormatSelector on the measurements,
// and report how often the learned selector beats always-CSR.
//
// `--check` gates three claims CI relies on (docs/simd.md):
//   1. every format produces the same y = A x (exact for CSR/COO/ELL/SELL
//      by construction; tolerance-bounded for CSC's column-order sums),
//   2. the trained selector beats or ties always-CSR on a majority of the
//      corpus,
//   3. the selector's chosen formats collectively cost no more than
//      always-CSR in total corpus seconds (never a net pessimization).
// `--json <path>` writes the pe-bench-v1 snapshot checked in at
// bench/snapshots/BENCH_spmv.json.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "perfeng/bench/cli.hpp"
#include "perfeng/common/rng.hpp"
#include "perfeng/common/table.hpp"
#include "perfeng/common/units.hpp"
#include "perfeng/kernels/format_select.hpp"
#include "perfeng/kernels/sparse.hpp"
#include "perfeng/machine/registry.hpp"
#include "perfeng/measure/bench_json.hpp"
#include "perfeng/measure/benchmark_runner.hpp"
#include "perfeng/measure/timer.hpp"
#include "perfeng/simd/vec.hpp"

namespace {

using pe::kernels::SparsityPattern;
using pe::kernels::SpmvFormat;

struct Problem {
  Problem(std::size_t rows, std::size_t cols, double density,
          SparsityPattern pattern, std::uint64_t seed) {
    pe::Rng rng(seed);
    coo = pe::kernels::generate_sparse(rows, cols, density, pattern, rng);
    csr = pe::kernels::coo_to_csr(coo);
    csc = pe::kernels::coo_to_csc(coo);
    ell = pe::kernels::csr_to_ell(csr);
    sell = pe::kernels::csr_to_sell(csr);
    x.assign(cols, 0.0);
    for (std::size_t i = 0; i < cols; ++i)
      x[i] = rng.next_range_double(-1.0, 1.0);
    y.assign(rows, 0.0);
    name = pe::kernels::pattern_name(pattern) + "/" +
           std::to_string(rows) + "x" + std::to_string(cols) + "/d" +
           pe::format_sig(density, 2);
  }
  pe::kernels::CooMatrix coo;
  pe::kernels::CsrMatrix csr;
  pe::kernels::CscMatrix csc;
  pe::kernels::EllMatrix ell;
  pe::kernels::SellMatrix sell;
  std::vector<double> x, y;
  std::string name;
};

double max_rel_diff(const std::vector<double>& a,
                    const std::vector<double>& b) {
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double scale = std::max(1.0, std::abs(a[i]));
    worst = std::max(worst, std::abs(a[i] - b[i]) / scale);
  }
  return worst;
}

}  // namespace

int main(int argc, char** argv) {
  const pe::bench::Cli cli =
      pe::bench::parse_cli(argc, argv, pe::bench::kCheck | pe::bench::kJson);

  pe::MeasurementConfig cfg;
  cfg.warmup_runs = 1;
  cfg.repetitions = 5;
  cfg.min_batch_seconds = 1e-3;
  const pe::BenchmarkRunner runner(cfg);

  std::printf("== SpMV format zoo + learned selector (backend: %s) ==\n\n",
              pe::simd::compiled_backend_name());

  // The corpus: every pattern at shapes/densities where different formats
  // win — banded rows are ELL/SELL territory, power-law rows drown ELL in
  // padding, tall/wide shapes stress x/y traffic asymmetries.
  const SparsityPattern patterns[] = {SparsityPattern::kUniform,
                                     SparsityPattern::kBanded,
                                     SparsityPattern::kPowerLaw};
  struct Shape {
    std::size_t rows, cols;
  };
  const Shape shapes[] = {{2000, 2000}, {6000, 1500}, {1500, 6000}};
  const double densities[] = {0.001, 0.004, 0.016};

  std::vector<pe::kernels::FormatSample> samples;
  std::vector<std::string> sample_names;
  double exact_worst = 0.0, csc_worst = 0.0;
  std::array<std::vector<double>, pe::kernels::kNumSpmvFormats>
      per_format_seconds;

  for (const SparsityPattern pattern : patterns) {
    for (const Shape& shape : shapes) {
      for (const double density : densities) {
        Problem p(shape.rows, shape.cols, density, pattern,
                  shape.rows * 31 + static_cast<std::uint64_t>(
                                        density * 1e4));
        pe::kernels::FormatSample sample;
        sample.features = pe::kernels::FormatFeatures::from_csr(p.csr);

        std::vector<double> y_ref(p.csr.rows, 0.0);
        pe::kernels::spmv_csr(p.csr, p.x, y_ref);

        for (std::size_t fi = 0; fi < pe::kernels::kNumSpmvFormats;
             ++fi) {
          const SpmvFormat f = pe::kernels::kAllSpmvFormats[fi];
          std::function<void()> body;
          switch (f) {
            case SpmvFormat::kCsr:
              body = [&] { pe::kernels::spmv_csr(p.csr, p.x, p.y); };
              break;
            case SpmvFormat::kCsc:
              body = [&] { pe::kernels::spmv_csc(p.csc, p.x, p.y); };
              break;
            case SpmvFormat::kCoo:
              body = [&] { pe::kernels::spmv_coo(p.coo, p.x, p.y); };
              break;
            case SpmvFormat::kEll:
              body = [&] { pe::kernels::spmv_ell(p.ell, p.x, p.y); };
              break;
            case SpmvFormat::kSell:
              body = [&] { pe::kernels::spmv_sell(p.sell, p.x, p.y); };
              break;
          }
          // Correctness first: one run, compared against the CSR
          // reference (exact except CSC, whose column-major sums
          // legitimately reassociate).
          std::fill(p.y.begin(), p.y.end(), 0.0);
          body();
          const double diff = max_rel_diff(y_ref, p.y);
          if (f == SpmvFormat::kCsc) {
            csc_worst = std::max(csc_worst, diff);
          } else {
            exact_worst = std::max(exact_worst, diff);
          }

          const auto m = runner.run(
              pe::kernels::spmv_format_name(f) + " " + p.name, [&] {
                body();
                pe::do_not_optimize(p.y[0]);
              });
          sample.seconds[fi] = m.typical();
          per_format_seconds[fi].push_back(m.typical());
        }
        samples.push_back(sample);
        sample_names.push_back(p.name);
      }
    }
  }

  // Train the selector on the full corpus and score it in-sample: the
  // question CI asks is "did the learned policy recover the format
  // landscape", not generalization (tests/test_sparse.cpp covers that).
  const auto selector = pe::kernels::FormatSelector::train(samples);

  constexpr std::size_t kCsrIdx = 0;
  std::size_t wins = 0;
  double chosen_total = 0.0, csr_total = 0.0, best_total = 0.0;
  pe::Table table({"matrix", "nnz", "best", "chosen", "csr ms", "chosen ms"});
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const auto& s = samples[i];
    const SpmvFormat chosen = selector.choose(s.features);
    const double chosen_s =
        s.seconds[static_cast<std::size_t>(chosen)];
    const double csr_s = s.seconds[kCsrIdx];
    std::size_t best_fi = 0;
    for (std::size_t fi = 1; fi < s.seconds.size(); ++fi)
      if (s.seconds[fi] < s.seconds[best_fi]) best_fi = fi;
    // A win = the chosen format is at least as fast as CSR (5% noise
    // allowance); choosing CSR itself therefore always counts.
    if (chosen_s <= csr_s * 1.05) ++wins;
    chosen_total += chosen_s;
    csr_total += csr_s;
    best_total += s.seconds[best_fi];
    table.add_row(
        {sample_names[i], std::to_string(static_cast<std::size_t>(
                              s.features.nnz)),
         pe::kernels::spmv_format_name(pe::kernels::kAllSpmvFormats[best_fi]),
         pe::kernels::spmv_format_name(chosen),
         pe::format_fixed(csr_s * 1e3, 3),
         pe::format_fixed(chosen_s * 1e3, 3)});
  }
  std::fputs(table.render().c_str(), stdout);

  const double win_fraction =
      static_cast<double>(wins) / static_cast<double>(samples.size());
  const double speedup_vs_csr = csr_total / chosen_total;
  const double oracle_speedup = csr_total / best_total;
  std::printf("\nselector vs always-CSR: wins %zu/%zu (%.0f%%), corpus "
              "speedup %.3fx (oracle %.3fx)\n",
              wins, samples.size(), win_fraction * 100.0, speedup_vs_csr,
              oracle_speedup);
  std::printf("correctness: exact-format worst rel diff %.3e, csc %.3e\n",
              exact_worst, csc_worst);

  if (!cli.json_path.empty()) {
    pe::BenchReport report("spmv_formats");
    report.set_machine(pe::machine::resolve_or_preset("laptop-x86"));
    report.set_context("corpus_size",
                       static_cast<double>(samples.size()));
    report.set_context(
        "simd_width_bits",
        static_cast<double>(pe::simd::compiled_width_bits()));
    for (std::size_t fi = 0; fi < pe::kernels::kNumSpmvFormats; ++fi)
      report.add_metric(
          "spmv_" +
              pe::kernels::spmv_format_name(pe::kernels::kAllSpmvFormats[fi]),
          "s", per_format_seconds[fi]);
    report.add_scalar("selector_win_fraction", "ratio", win_fraction);
    report.add_scalar("selector_speedup_vs_csr", "ratio", speedup_vs_csr);
    report.add_scalar("oracle_speedup_vs_csr", "ratio", oracle_speedup);
    pe::bench::save_snapshot(report, cli.json_path);
  }

  pe::bench::Gate gate(cli.check);
  gate.expect(exact_worst == 0.0, "exact formats differ from CSR by %.3e",
              exact_worst);
  gate.expect(csc_worst <= 1e-10, "csc rel diff %.3e > 1e-10", csc_worst);
  gate.expect(win_fraction > 0.5,
              "selector beats/ties CSR on only %.0f%% of the corpus",
              win_fraction * 100.0);
  gate.expect(chosen_total <= csr_total * 1.05,
              "chosen formats cost %.3fx always-CSR",
              chosen_total / csr_total);
  return gate.finish();
}
