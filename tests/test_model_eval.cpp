// Tests for the common model-evaluation interface (model_eval.hpp) and
// the eval adapters retrofitted onto the model zoo: every adapter must
// report exactly what the underlying closed form predicts, so wrapping a
// model as a composition leaf never changes its answer.
#include "perfeng/models/model_eval.hpp"

#include <gtest/gtest.h>

#include "perfeng/common/error.hpp"
#include "perfeng/models/energy.hpp"
#include "perfeng/models/gpu.hpp"
#include "perfeng/models/interference.hpp"
#include "perfeng/models/network.hpp"
#include "perfeng/models/offload.hpp"
#include "perfeng/models/queuing.hpp"
#include "perfeng/models/scaling.hpp"

namespace {

using namespace pe::models;

TEST(Footprint, AbsorbSumsTimeLikeFieldsAndMaxesCores) {
  Footprint a{.flops = 10.0, .bytes = 100.0, .cores = 2.0, .joules = 1.0};
  const Footprint b{
      .flops = 5.0, .bytes = 50.0, .cores = 8.0, .joules = 0.5};
  a.absorb(b);
  EXPECT_DOUBLE_EQ(a.flops, 15.0);
  EXPECT_DOUBLE_EQ(a.bytes, 150.0);
  EXPECT_DOUBLE_EQ(a.cores, 8.0);
  EXPECT_DOUBLE_EQ(a.joules, 1.5);
}

TEST(ModelEval, ConstantReturnsTheCapturedEvaluation) {
  Evaluation e;
  e.seconds = 0.25;
  e.footprint.flops = 7.0;
  const ModelEval m = ModelEval::constant("test.constant", e);
  EXPECT_EQ(m.name(), "test.constant");
  EXPECT_EQ(m.evaluate(), e);
  EXPECT_EQ(m.evaluate(), m.evaluate());  // pure: stable across calls
}

TEST(ModelEval, RejectsEmptyNameAndMissingFunction) {
  EXPECT_THROW(ModelEval("", [] { return Evaluation{}; }), pe::Error);
  EXPECT_THROW(ModelEval("named", nullptr), pe::Error);
}

TEST(EvalAdapters, NetworkMatchesClosedForms) {
  const AlphaBetaModel net{1e-6, 1e-9};
  EXPECT_EQ(net.eval_p2p(1000).name(), "network.p2p");
  EXPECT_DOUBLE_EQ(net.eval_p2p(1000).evaluate().seconds, net.p2p(1000));
  EXPECT_DOUBLE_EQ(net.eval_broadcast(8, 256).evaluate().seconds,
                   net.broadcast(8, 256));
  EXPECT_DOUBLE_EQ(net.eval_allreduce(4, 4096).evaluate().seconds,
                   net.ring_allreduce(4, 4096));
  EXPECT_DOUBLE_EQ(net.eval_allreduce(4, 4096).evaluate().footprint.cores,
                   4.0);
}

TEST(EvalAdapters, ScalingProjectsTheSerialRuntime) {
  const SpeedupProjection proj{16.0};
  const Evaluation amdahl = proj.eval_amdahl(10.0, 0.1).evaluate();
  EXPECT_DOUBLE_EQ(amdahl.seconds, 10.0 / proj.amdahl(0.1));
  EXPECT_DOUBLE_EQ(amdahl.footprint.cores, 16.0);
  const Evaluation usl = proj.eval_usl(10.0, 0.05, 0.001).evaluate();
  EXPECT_DOUBLE_EQ(usl.seconds, 10.0 / proj.usl(0.05, 0.001));
}

TEST(EvalAdapters, QueuingWaitAndServiceMatchMmc) {
  const ServiceModel svc{100.0, 4};
  const Evaluation wait = svc.eval_wait(250.0).evaluate();
  EXPECT_DOUBLE_EQ(wait.seconds, svc.mmc(250.0).mean_wait);
  EXPECT_DOUBLE_EQ(wait.footprint.cores, 4.0);
  EXPECT_DOUBLE_EQ(svc.eval_service().evaluate().seconds, 1.0 / 100.0);
}

TEST(EvalAdapters, EnergyCarriesJoulesInTheFootprint) {
  const PowerModel power{20.0, 60.0};
  const Evaluation e = power.eval(2.0, 0.5, 1e9).evaluate();
  EXPECT_DOUBLE_EQ(e.seconds, 2.0);
  EXPECT_DOUBLE_EQ(e.footprint.joules, power.energy(2.0, 0.5));
  EXPECT_DOUBLE_EQ(e.footprint.flops, 1e9);
}

TEST(EvalAdapters, OffloadHostVsDeviceMatchTheDecisionModel) {
  const OffloadModel m{{1e9, 1e10}, {1e10, 1e11}, {1e-5, 1e-10}};
  const double flops = 2e9, in = 1e6, out = 5e5;
  EXPECT_DOUBLE_EQ(m.eval_host(flops, in + out).evaluate().seconds,
                   m.host_time(flops, in + out));
  EXPECT_DOUBLE_EQ(m.eval_offload(flops, in, out).evaluate().seconds,
                   m.offload_time(flops, in, out));
  EXPECT_EQ(m.eval_offload(flops, in, out).name(), "offload.device");
}

TEST(EvalAdapters, InterferencePricesCoRunners) {
  const SharedSystemModel shared{{1e10, 2e10}};
  const double flops = 1e8, bytes = 1e9;
  const ModelEval alone = shared.eval(flops, bytes, 1);
  const ModelEval crowded = shared.eval(flops, bytes, 4);
  EXPECT_DOUBLE_EQ(alone.evaluate().seconds,
                   shared.kernel_time(flops, bytes, 1));
  EXPECT_DOUBLE_EQ(crowded.evaluate().seconds,
                   shared.kernel_time(flops, bytes, 4));
  EXPECT_GT(crowded.evaluate().seconds, alone.evaluate().seconds);
}

TEST(EvalAdapters, GpuStreamTimeFollowsAchievableBandwidth) {
  const LatencyHidingModel gpu{8e11, 400e-9, 80};
  const double bytes = 1e9;
  const Evaluation e = gpu.eval(bytes, 8, 128).evaluate();
  EXPECT_DOUBLE_EQ(e.seconds, bytes / gpu.achievable(8, 128));
  EXPECT_DOUBLE_EQ(e.footprint.cores, 80.0);
}

}  // namespace
