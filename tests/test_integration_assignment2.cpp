// Integration test: the Assignment 2 model stack — per-op costs feed the
// instruction-level matmul model; the pipeline simulator explains the
// latency-vs-throughput distinction those costs encode; the ECM bracket
// contains the traffic model's prediction. Deterministic end to end
// (synthetic op costs, no wall-clock dependence).
#include <gtest/gtest.h>

#include "perfeng/models/analytical.hpp"
#include "perfeng/models/ecm.hpp"
#include "perfeng/sim/pipeline_sim.hpp"

namespace {

using pe::models::MatmulModel;
using pe::models::MatmulVariant;

// A synthetic machine: 1 GHz core, FMA latency 4 cycles, 2 FMA ports.
constexpr double kCycle = 1e-9;
constexpr double kFmaLatency = 4.0;
constexpr int kFmaPorts = 2;

// The same synthetic machine's roofs and caches for the traffic model.
pe::machine::Machine synthetic_machine() {
  pe::machine::Machine m;
  m.name = "synthetic";
  m.peak_flops = 1e9;
  m.hierarchy = {{"L2", 5e10, 0.0, std::size_t{1} << 21, 64},
                 {"DRAM", 1e10, 0.0, 0, 64}};
  return m;
}

pe::microbench::OpCostTable synthetic_ops() {
  pe::microbench::OpCostTable ops;
  ops.set_cost(pe::microbench::Op::kFma,
               {kFmaLatency * kCycle, kCycle / kFmaPorts});
  return ops;
}

TEST(Assignment2, InstructionModelMatchesPipelineSimulator) {
  // The analytical instruction-level model says: naive (single dependent
  // chain) costs the FMA latency per step; interchanged costs the
  // throughput. The cycle-accurate pipeline simulator must agree.
  const auto ops = synthetic_ops();
  const auto calib = synthetic_machine();
  const std::size_t n = 64;
  const double steps = double(n) * n * n;

  const MatmulModel naive(n, MatmulVariant::kNaiveIjk, calib);
  const MatmulModel ikj(n, MatmulVariant::kInterchangedIkj, calib);

  // One carried chain: simulator gives 4 cycles/step.
  const auto latency_report =
      pe::sim::PipelineSimulator::fma_reduction(1, kFmaPorts, kFmaLatency)
          .run();
  EXPECT_NEAR(naive.predict_instruction(ops),
              steps * latency_report.cycles_per_iteration * kCycle,
              steps * kCycle * 0.1);

  // Many chains: simulator reaches the 2-port throughput of 0.5
  // cycles/step.
  const auto throughput_report =
      pe::sim::PipelineSimulator::fma_reduction(8, kFmaPorts, kFmaLatency)
          .run();
  const double sim_per_step =
      throughput_report.cycles_per_iteration / 8.0;
  EXPECT_NEAR(ikj.predict_instruction(ops), steps * sim_per_step * kCycle,
              steps * kCycle * 0.1);
}

TEST(Assignment2, EcmBracketsTheTrafficModel) {
  // Compose an ECM model from the same calibration the traffic model
  // uses: its [overlapped, serial] window must contain the Roofline-style
  // prediction (max composition) by construction, for every variant.
  const auto calib = synthetic_machine();
  for (const auto variant :
       {MatmulVariant::kNaiveIjk, MatmulVariant::kInterchangedIkj,
        MatmulVariant::kTiled}) {
    const MatmulModel model(1024, variant, calib);
    pe::models::EcmModel ecm(model.predict_coarse());
    ecm.add_transfer("MEM", "core",
                     model.dram_bytes() / calib.dram_bandwidth());
    const double traffic = model.predict_traffic();
    EXPECT_GE(traffic, ecm.predict_overlapped() * 0.999)
        << static_cast<int>(variant);
    EXPECT_LE(traffic, ecm.predict_serial() * 1.001)
        << static_cast<int>(variant);
  }
}

TEST(Assignment2, GranularityLadderOrdersErrorsOnASyntheticTruth) {
  // Construct a "ground truth" runtime that follows the traffic model,
  // then check the coarse model under-predicts the naive variant while
  // the traffic model is exact — the granularity lesson in miniature.
  const auto calib = synthetic_machine();
  const std::size_t n = 2048;  // beyond cache: variants diverge
  const MatmulModel naive(n, MatmulVariant::kNaiveIjk, calib);
  const double truth = naive.predict_traffic();
  const double coarse_error =
      std::abs(naive.predict_coarse() - truth) / truth;
  EXPECT_GT(coarse_error, 0.5);  // coarse misses the traffic blowup
  EXPECT_DOUBLE_EQ(naive.predict_traffic(), truth);
}

}  // namespace
