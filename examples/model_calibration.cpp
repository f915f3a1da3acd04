// model_calibration: the Assignment 2 workflow — calibrate analytical
// matmul models from microbenchmarks, then check which granularity best
// explains the measurement (and bracket it with an ECM-style model).
//
//   $ ./model_calibration
#include <cstdio>

#include "perfeng/common/table.hpp"
#include "perfeng/common/units.hpp"
#include "perfeng/kernels/matmul.hpp"
#include "perfeng/measure/benchmark_runner.hpp"
#include "perfeng/measure/metrics.hpp"
#include "perfeng/microbench/machine_probe.hpp"
#include "perfeng/microbench/op_costs.hpp"
#include "perfeng/models/analytical.hpp"
#include "perfeng/models/ecm.hpp"

int main() {
  pe::MeasurementConfig cfg;
  cfg.warmup_runs = 1;
  cfg.repetitions = 5;
  const pe::BenchmarkRunner runner(cfg);

  std::puts("calibrating (PERFENG_MACHINE or probe + per-op cost table)...");
  const pe::machine::Machine mc =
      pe::microbench::resolve_or_probe(runner);
  const auto ops = pe::microbench::OpCostTable::measure(runner);
  std::printf("-> %s  [calibration %s]\n\n", mc.summary().c_str(),
              mc.calibration_hash().c_str());

  const std::size_t n = 192;
  pe::kernels::Matrix a(n, n), b(n, n), c(n, n);
  pe::Rng rng(3);
  a.randomize(rng);
  b.randomize(rng);
  const auto measured = runner.run("matmul ikj", [&] {
    pe::kernels::matmul_interchanged(a, b, c);
  });

  const pe::models::MatmulModel model(
      n, pe::models::MatmulVariant::kInterchangedIkj, mc);
  pe::Table t({"granularity", "prediction", "relative error %"});
  const double m = measured.typical();
  for (const auto& [name, prediction] :
       {std::pair<const char*, double>{"coarse (FLOPs/peak)",
                                       model.predict_coarse()},
        {"traffic (roofline-style)", model.predict_traffic()},
        {"instruction-level", model.predict_instruction(ops)}}) {
    t.add_row({name, pe::format_time(prediction),
               pe::format_fixed(pe::relative_error(prediction, m) * 100.0,
                                1)});
  }
  std::printf("measured median: %s\n", pe::format_time(m).c_str());
  std::fputs(t.render().c_str(), stdout);

  // ECM-style bracketing: in-core vs data-transfer time per invocation.
  pe::models::EcmModel ecm(model.predict_coarse());
  ecm.add_transfer("MEM", "core",
                   model.dram_bytes() / mc.dram_bandwidth());
  std::printf(
      "\nECM bracket: overlapped %s <= measured %s <= serial %s : %s\n",
      pe::format_time(ecm.predict_overlapped()).c_str(),
      pe::format_time(m).c_str(),
      pe::format_time(ecm.predict_serial()).c_str(),
      ecm.brackets(m, 0.5) ? "bracketed" : "outside (investigate!)");
  return 0;
}
