// Tests for the Roofline model in perfeng/models/roofline.hpp.
#include "perfeng/models/roofline.hpp"

#include <gtest/gtest.h>

#include "perfeng/common/error.hpp"

namespace {

using pe::models::Bound;
using pe::models::KernelCharacterization;
using pe::models::RooflineModel;

// A tidy machine: 100 GFLOP/s peak, 10 GB/s DRAM -> ridge at 10 FLOP/B.
RooflineModel machine() { return RooflineModel(1e11, 1e10); }

TEST(Roofline, RidgePoint) {
  EXPECT_DOUBLE_EQ(machine().ridge_intensity(), 10.0);
}

TEST(Roofline, AttainableBelowRidgeIsBandwidthLimited) {
  const auto m = machine();
  EXPECT_DOUBLE_EQ(m.attainable(1.0), 1e10);
  EXPECT_DOUBLE_EQ(m.attainable(5.0), 5e10);
  EXPECT_EQ(m.bound_at(1.0), Bound::kMemory);
}

TEST(Roofline, AttainableAboveRidgeIsComputeLimited) {
  const auto m = machine();
  EXPECT_DOUBLE_EQ(m.attainable(100.0), 1e11);
  EXPECT_DOUBLE_EQ(m.attainable(10.0), 1e11);  // exactly at the ridge
  EXPECT_EQ(m.bound_at(100.0), Bound::kCompute);
}

TEST(Roofline, EfficiencyIsMeasuredOverAttainable) {
  const auto m = machine();
  EXPECT_DOUBLE_EQ(m.efficiency(1.0, 5e9), 0.5);
  EXPECT_DOUBLE_EQ(m.efficiency(100.0, 1e11), 1.0);
}

TEST(Roofline, ExtraBandwidthCeilings) {
  auto m = machine();
  m.add_bandwidth_ceiling("L1", 1e11);
  EXPECT_DOUBLE_EQ(m.attainable_at_level(0.5, "L1"), 5e10);
  EXPECT_DOUBLE_EQ(m.attainable_at_level(0.5, "DRAM"), 5e9);
  EXPECT_THROW((void)m.attainable_at_level(0.5, "L7"), pe::Error);
  EXPECT_THROW(m.add_bandwidth_ceiling("L1", 2e11), pe::Error);  // duplicate
}

TEST(Roofline, ComputeCeilingMustStayUnderPeak) {
  auto m = machine();
  m.add_compute_ceiling("scalar", 2.5e10);
  EXPECT_THROW(m.add_compute_ceiling("too high", 2e11), pe::Error);
  EXPECT_THROW((void)m.attainable_at_level(1.0, "scalar"), pe::Error);
}

TEST(Roofline, CurveIsMonotoneNonDecreasing) {
  const auto curve = machine().curve(0.01, 1000.0, 64);
  ASSERT_EQ(curve.size(), 64u);
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_GE(curve[i].attainable_flops, curve[i - 1].attainable_flops);
    EXPECT_GT(curve[i].intensity, curve[i - 1].intensity);
  }
  EXPECT_DOUBLE_EQ(curve.back().attainable_flops, 1e11);
}

TEST(Roofline, CurveRangeValidated) {
  EXPECT_THROW((void)machine().curve(1.0, 0.5), pe::Error);
  EXPECT_THROW((void)machine().curve(0.0, 1.0), pe::Error);
  EXPECT_THROW((void)machine().curve(1.0, 2.0, 1), pe::Error);
}

TEST(Roofline, KernelCharacterizationIntensity) {
  const KernelCharacterization kc{"triad", 2.0, 24.0};
  EXPECT_NEAR(kc.intensity(), 1.0 / 12.0, 1e-15);
}

TEST(RooflineSeconds, ComputeBound) {
  // 1e9 FLOPs at 1e9 FLOP/s = 1 s > memory 1e-4 s.
  EXPECT_DOUBLE_EQ(RooflineModel(1e9, 1e10).seconds(1e9, 1e6), 1.0);
  // 1e10 FLOPs at 1e10 FLOP/s = 1 s > memory 0.1 s.
  EXPECT_DOUBLE_EQ(RooflineModel(1e10, 1e10).seconds(1e10, 1e9), 1.0);
}

TEST(RooflineSeconds, MemoryBound) {
  EXPECT_DOUBLE_EQ(RooflineModel(1e9, 1e10).seconds(1e3, 1e10), 1.0);
  EXPECT_DOUBLE_EQ(RooflineModel(1e10, 1e10).seconds(1e8, 1e10), 1.0);
}

TEST(RooflineSeconds, ZeroWorkTakesNoTime) {
  EXPECT_DOUBLE_EQ(RooflineModel(1e9, 1e10).seconds(0.0, 0.0), 0.0);
}

TEST(RooflineSeconds, NegativeWorkThrows) {
  const RooflineModel roof(1e9, 1e10);
  EXPECT_THROW((void)roof.seconds(-1.0, 0.0), pe::Error);
  EXPECT_THROW((void)roof.seconds(0.0, -1.0), pe::Error);
}

TEST(Roofline, PlacementClassifiesMemoryBoundKernel) {
  // STREAM-like kernel: intensity 1/12 << ridge 10.
  const KernelCharacterization kc{"triad", 2e8, 2.4e9};
  // Measured: 0.5 s -> 4e8 FLOP/s; attainable = (1/12)*1e10 = 8.33e8.
  const auto p = pe::models::place_kernel(machine(), kc, 0.5);
  EXPECT_EQ(p.bound, Bound::kMemory);
  EXPECT_NEAR(p.measured_flops, 4e8, 1.0);
  EXPECT_NEAR(p.efficiency, 4e8 / (1e10 / 12.0), 1e-6);
}

TEST(Roofline, PlacementClassifiesComputeBoundKernel) {
  // Matmul-like: high intensity.
  const KernelCharacterization kc{"matmul", 2e12, 2.4e9};
  const auto p = pe::models::place_kernel(machine(), kc, 40.0);
  EXPECT_EQ(p.bound, Bound::kCompute);
  EXPECT_NEAR(p.attainable_flops, 1e11, 1.0);
  EXPECT_NEAR(p.efficiency, 0.5, 1e-9);
}

TEST(Roofline, PlacementValidatesInputs) {
  const KernelCharacterization kc{"x", 1.0, 1.0};
  EXPECT_THROW((void)pe::models::place_kernel(machine(), kc, 0.0),
               pe::Error);
  const KernelCharacterization no_flops{"x", 0.0, 1.0};
  EXPECT_THROW((void)pe::models::place_kernel(machine(), no_flops, 1.0),
               pe::Error);
}

TEST(Roofline, ConstructorValidation) {
  EXPECT_THROW(RooflineModel(0.0, 1.0), pe::Error);
  EXPECT_THROW(RooflineModel(1.0, -1.0), pe::Error);
}

TEST(Roofline, OptimizationStoryAcrossVersions) {
  // The Assignment 1 storyline: an optimization that raises intensity
  // (tiling) must raise attainable performance in the memory-bound regime.
  const auto m = machine();
  const double naive = m.attainable(0.25);
  const double tiled = m.attainable(2.0);
  EXPECT_GT(tiled, naive);
  EXPECT_DOUBLE_EQ(tiled / naive, 8.0);
}

}  // namespace
