// Scheduler dispatch-overhead experiment: per-task cost of the legacy
// submit/future path vs the bulk parallel_for path, on the work-stealing
// pool (docs/parallel.md).
//
// The interesting number is the *ratio*: absolute dispatch times vary
// wildly across hosts and CI runners, but the bulk path should always be
// several times cheaper than a packaged_task + future per task. `--check`
// exits non-zero when bulk dispatch costs more than half a legacy submit,
// which is the regression guard CI runs; `--json <path>` writes the
// snapshot checked in at bench/snapshots/BENCH_scheduler.json in the
// uniform pe-bench-v1 schema (machine hash + full sample distributions).
#include <cstdio>

#include "perfeng/bench/cli.hpp"
#include "perfeng/common/table.hpp"
#include "perfeng/machine/machine.hpp"
#include "perfeng/machine/registry.hpp"
#include "perfeng/measure/bench_json.hpp"
#include "perfeng/microbench/scheduler.hpp"

int main(int argc, char** argv) {
  const pe::bench::Cli cli =
      pe::bench::parse_cli(argc, argv, pe::bench::kCheck | pe::bench::kJson);

  pe::MeasurementConfig cfg;
  cfg.warmup_runs = 1;
  cfg.repetitions = 5;
  cfg.min_batch_seconds = 2e-3;
  const pe::BenchmarkRunner runner(cfg);

  std::puts("== Scheduler dispatch overhead: submit/future vs bulk ==\n");

  const auto probe = pe::microbench::probe_scheduler(runner);
  std::printf("%s\n\n", probe.summary().c_str());

  pe::Table table({"path", "ns per task", "relative"});
  table.add_row({"submit (packaged_task + future)",
                 pe::format_sig(probe.submit_ns, 3), "1.00x"});
  table.add_row({"bulk parallel_for (chunk = 1)",
                 pe::format_sig(probe.bulk_ns, 3),
                 pe::format_fixed(probe.bulk_ns / probe.submit_ns, 3) + "x"});
  std::fputs(table.render().c_str(), stdout);

  // Record the calibration in a machine description so the numbers travel
  // with a provenance hash, the way every other probe result does.
  pe::machine::Machine m = pe::machine::resolve_or_preset("laptop-x86");
  pe::microbench::apply_scheduler_probe(m, probe);
  std::printf("\ncalibration hash (%s + scheduler): %s\n", m.name.c_str(),
              m.calibration_hash().c_str());

  if (!cli.json_path.empty()) {
    pe::BenchReport report("scheduler_overhead");
    report.set_machine(m);
    report.set_context("pool_threads",
                       static_cast<double>(probe.pool_threads));
    report.set_context("tasks_per_batch", static_cast<double>(probe.tasks));
    report.add_metric("submit_ns_per_task", "ns", probe.submit_samples_ns);
    report.add_metric("bulk_ns_per_chunk", "ns", probe.bulk_samples_ns);
    report.add_scalar("bulk_over_submit", "ratio",
                      probe.bulk_ns / probe.submit_ns);
    pe::bench::save_snapshot(report, cli.json_path);
  }

  // Generous threshold: bulk dispatch must cost at most half a legacy
  // submit. Real hosts show far larger gaps; this only catches a bulk
  // path that regressed into per-chunk allocation or lock handoffs.
  pe::bench::Gate gate(cli.check);
  const double ratio = probe.bulk_ns / probe.submit_ns;
  gate.expect(ratio <= 0.5, "bulk/submit = %.3f > 0.5", ratio);
  return gate.finish();
}
