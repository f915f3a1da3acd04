// Tests for the analytical kernel models in perfeng/models/analytical.hpp.
#include "perfeng/models/analytical.hpp"

#include <gtest/gtest.h>

#include "perfeng/common/error.hpp"

namespace {

using pe::models::HistogramModel;
using pe::models::MatmulModel;
using pe::models::MatmulVariant;
using pe::models::SpmvFormat;
using pe::models::SpmvModel;

pe::machine::Machine calib() {
  pe::machine::Machine m;
  m.name = "analytical-test";
  m.peak_flops = 1e10;
  m.hierarchy = {{"L2", 1e11, 0.0, 1 << 21, 64},  // 2 MiB
                 {"DRAM", 1e10, 0.0, 0, 64}};
  return m;
}

TEST(MatmulModel, FlopsAreTwoNCubed) {
  const MatmulModel m(100, MatmulVariant::kNaiveIjk, calib());
  EXPECT_DOUBLE_EQ(m.flops(), 2e6);
}

TEST(MatmulModel, NaiveTrafficBlowsUpBeyondCache) {
  // n = 1024: one matrix is 8 MiB > 2 MiB cache.
  const std::size_t n = 1024;
  const MatmulModel naive(n, MatmulVariant::kNaiveIjk, calib());
  const MatmulModel ikj(n, MatmulVariant::kInterchangedIkj, calib());
  const MatmulModel tiled(n, MatmulVariant::kTiled, calib());
  // Column-walking B costs a line per element: 8x the sequential traffic.
  EXPECT_NEAR(naive.dram_bytes() / ikj.dram_bytes(), 8.0, 0.5);
  // Tiling divides the n^3 term by the tile edge.
  EXPECT_LT(tiled.dram_bytes(), ikj.dram_bytes() / 4.0);
}

TEST(MatmulModel, SmallMatricesAreCacheResident) {
  // n = 128: 128 KiB per matrix, all three fit in the 2 MiB budget.
  const MatmulModel naive(128, MatmulVariant::kNaiveIjk, calib());
  const MatmulModel ikj(128, MatmulVariant::kInterchangedIkj, calib());
  EXPECT_DOUBLE_EQ(naive.dram_bytes(), ikj.dram_bytes());
}

TEST(MatmulModel, TileEdgeFitsThreeBlocks) {
  const MatmulModel m(4096, MatmulVariant::kTiled, calib());
  const std::size_t t = m.tile_edge();
  EXPECT_GE(t, 8u);
  EXPECT_LE(3 * t * t * sizeof(double), calib().largest_cache_bytes() * 4);
  // Doubling must not fit (maximality up to the power-of-two step).
  EXPECT_GT(3 * (2 * t) * (2 * t) * sizeof(double),
            calib().largest_cache_bytes());
}

TEST(MatmulModel, TileEdgeCappedByMatrixOrder) {
  const MatmulModel m(16, MatmulVariant::kTiled, calib());
  EXPECT_LE(m.tile_edge(), 16u);
}

TEST(MatmulModel, PredictionsOrderLikeTheOptimizations) {
  const std::size_t n = 2048;
  const MatmulModel naive(n, MatmulVariant::kNaiveIjk, calib());
  const MatmulModel ikj(n, MatmulVariant::kInterchangedIkj, calib());
  const MatmulModel tiled(n, MatmulVariant::kTiled, calib());
  EXPECT_GT(naive.predict_traffic(), ikj.predict_traffic());
  EXPECT_GE(ikj.predict_traffic(), tiled.predict_traffic());
  // Coarse model cannot distinguish the variants.
  EXPECT_DOUBLE_EQ(naive.predict_coarse(), tiled.predict_coarse());
}

TEST(MatmulModel, TrafficNeverBelowCoarse) {
  for (std::size_t n : {64u, 256u, 1024u}) {
    const MatmulModel m(n, MatmulVariant::kTiled, calib());
    EXPECT_GE(m.predict_traffic(), m.predict_coarse() * 0.999) << n;
  }
}

TEST(MatmulModel, InstructionLevelUsesLatencyForNaive) {
  pe::microbench::OpCostTable ops;
  ops.set_cost(pe::microbench::Op::kFma, {4e-9, 1e-9});
  const MatmulModel naive(64, MatmulVariant::kNaiveIjk, calib());
  const MatmulModel ikj(64, MatmulVariant::kInterchangedIkj, calib());
  EXPECT_DOUBLE_EQ(naive.predict_instruction(ops), 64.0 * 64 * 64 * 4e-9);
  EXPECT_DOUBLE_EQ(ikj.predict_instruction(ops), 64.0 * 64 * 64 * 1e-9);
}

// ---------------------------------------------------------------- histogram

TEST(HistogramModel, SmallTableNeverMisses) {
  const HistogramModel m(1 << 20, 1 << 10, 0.0, calib());
  EXPECT_DOUBLE_EQ(m.update_miss_probability(), 0.0);
}

TEST(HistogramModel, UniformMissesScaleWithTableExcess) {
  // Table 4x the cache: resident fraction 1/4 -> miss 3/4.
  const std::size_t bins = calib().largest_cache_bytes() / 8 * 4;
  const HistogramModel m(1 << 20, bins, 0.0, calib());
  EXPECT_NEAR(m.update_miss_probability(), 0.75, 1e-9);
}

TEST(HistogramModel, SkewReducesMisses) {
  const std::size_t bins = calib().largest_cache_bytes() / 8 * 16;
  const HistogramModel uniform(1 << 20, bins, 0.0, calib());
  const HistogramModel skewed(1 << 20, bins, 1.2, calib());
  EXPECT_LT(skewed.update_miss_probability(),
            uniform.update_miss_probability() * 0.5);
}

TEST(HistogramModel, PredictTrafficAtLeastCoarse) {
  const HistogramModel m(1 << 20, 1 << 24, 0.0, calib());
  EXPECT_GE(m.predict_traffic(), m.predict_coarse());
  // Even a tiny table pays for streaming the input from DRAM.
  const HistogramModel tiny(1 << 20, 64, 0.0, calib());
  EXPECT_GE(tiny.predict_traffic(), tiny.predict_coarse());
}

TEST(HistogramModel, Validation) {
  EXPECT_THROW(HistogramModel(0, 8, 0.0, calib()), pe::Error);
  EXPECT_THROW(HistogramModel(8, 0, 0.0, calib()), pe::Error);
  EXPECT_THROW(HistogramModel(8, 8, -0.1, calib()), pe::Error);
}

// --------------------------------------------------------------------- spmv

TEST(SpmvModel, FlopsAreTwoNnz) {
  const SpmvModel m(100, 100, 1000, SpmvFormat::kCsr, 1.0, calib());
  EXPECT_DOUBLE_EQ(m.flops(), 2000.0);
}

TEST(SpmvModel, ScatteredColumnsCostMore) {
  const SpmvModel local(10000, 10000, 100000, SpmvFormat::kCsr, 1.0,
                        calib());
  const SpmvModel scattered(10000, 10000, 100000, SpmvFormat::kCsr, 0.0,
                            calib());
  EXPECT_GT(scattered.dram_bytes(), local.dram_bytes() * 2.0);
  EXPECT_GT(scattered.predict(), local.predict());
}

TEST(SpmvModel, CscScatterPaysReadModifyWrite) {
  const SpmvModel csr(10000, 10000, 100000, SpmvFormat::kCsr, 0.0, calib());
  const SpmvModel csc(10000, 10000, 100000, SpmvFormat::kCsc, 0.0, calib());
  EXPECT_GT(csc.dram_bytes(), csr.dram_bytes());
}

TEST(SpmvModel, CooCarriesBothIndexStreams) {
  const SpmvModel csr(10000, 10000, 100000, SpmvFormat::kCsr, 1.0, calib());
  const SpmvModel coo(10000, 10000, 100000, SpmvFormat::kCoo, 1.0, calib());
  EXPECT_GT(coo.dram_bytes(), csr.dram_bytes());
}

TEST(SpmvModel, SpmvIsMemoryBoundOnThisMachine) {
  const SpmvModel m(10000, 10000, 200000, SpmvFormat::kCsr, 0.5, calib());
  const double compute_time = m.flops() / calib().peak_flops;
  EXPECT_GT(m.predict(), compute_time);
}

TEST(SpmvModel, Validation) {
  EXPECT_THROW(SpmvModel(0, 1, 1, SpmvFormat::kCsr, 0.5, calib()),
               pe::Error);
  EXPECT_THROW(SpmvModel(1, 1, 0, SpmvFormat::kCsr, 0.5, calib()),
               pe::Error);
  EXPECT_THROW(SpmvModel(1, 1, 1, SpmvFormat::kCsr, 1.5, calib()),
               pe::Error);
}

}  // namespace
