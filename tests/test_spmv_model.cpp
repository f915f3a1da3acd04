// Tests for the analytical sparse-format cost model in
// perfeng/models/spmv_model.hpp — the white-box sibling of the measured
// pe::kernels::FormatSelector.
#include "perfeng/models/spmv_model.hpp"

#include <gtest/gtest.h>

#include <string>

#include "perfeng/common/error.hpp"
#include "perfeng/machine/registry.hpp"

namespace {

using pe::models::SpmvFormatModel;
using pe::models::SpmvShape;

SpmvShape square_shape() {
  SpmvShape s;
  s.rows = 1000.0;
  s.cols = 1000.0;
  s.nnz = 10000.0;
  s.ell_padding = 1.5;
  s.sell_padding = 1.1;
  return s;
}

TEST(SpmvModel, ConstructionValidated) {
  EXPECT_THROW(SpmvFormatModel({0.0, 1e10}), pe::Error);
  EXPECT_THROW(SpmvFormatModel({1e9, -1.0}), pe::Error);
  EXPECT_NO_THROW(SpmvFormatModel({1e9, 1e10}));
}

TEST(SpmvModel, FromMachinePreset) {
  const auto machine = pe::machine::resolve_or_preset("laptop-x86");
  const auto model = SpmvFormatModel::from_machine(machine);
  for (const std::string& f : SpmvFormatModel::format_names())
    EXPECT_GT(model.predict_seconds(square_shape(), f), 0.0) << f;
}

TEST(SpmvModel, FromMachineRejectsNonMonotoneHierarchy) {
  // An L2 faster than L1 is not a memory hierarchy.
  auto machine = pe::machine::MachineRegistry::builtin().get("laptop-x86");
  machine.hierarchy[1].bandwidth = machine.hierarchy[0].bandwidth * 2.0;
  EXPECT_THROW((void)SpmvFormatModel::from_machine(machine), pe::Error);
}

TEST(SpmvModel, TrafficOrderingMatchesFormatStructure) {
  const SpmvFormatModel model({1e9, 1e10});
  const SpmvShape s = square_shape();
  // COO carries a row index per entry that CSR amortizes into row_ptr, so
  // COO always moves more bytes; CSC pays scattered y read-modify-writes
  // on top of CSR-like index traffic.
  EXPECT_GT(model.traffic_bytes(s, "coo"), model.traffic_bytes(s, "csr"));
  EXPECT_GT(model.traffic_bytes(s, "csc"), model.traffic_bytes(s, "csr"));
  // Padding is real traffic: SELL's tighter padding beats ELL's here.
  EXPECT_LT(model.traffic_bytes(s, "sell"), model.traffic_bytes(s, "ell"));
  EXPECT_THROW((void)model.traffic_bytes(s, "dia"), pe::Error);
}

TEST(SpmvModel, ChoosePrefersLowPaddingFormats) {
  const SpmvFormatModel model({1e9, 1e10});
  // With no padding at all, SELL's traffic equals ELL's minus the row
  // pointer difference — the winner must be one of the padding-free
  // streaming formats, never COO or CSC.
  SpmvShape tight = square_shape();
  tight.ell_padding = 1.0;
  tight.sell_padding = 1.0;
  const std::string best = model.choose(tight);
  EXPECT_TRUE(best == "csr" || best == "ell" || best == "sell") << best;
  // Blow up ELL's padding and it must not be chosen.
  SpmvShape skewed = square_shape();
  skewed.ell_padding = 50.0;
  EXPECT_NE(model.choose(skewed), "ell");
}

TEST(SpmvModel, PredictionRespectsComputeFloor) {
  // Absurdly slow compute: the compute roof dominates, and every format
  // predicts the same 2*nnz/peak seconds.
  const SpmvFormatModel slow({1e3, 1e12});
  const SpmvShape s = square_shape();
  for (const std::string& f : SpmvFormatModel::format_names())
    EXPECT_DOUBLE_EQ(slow.predict_seconds(s, f), 2.0 * s.nnz / 1e3) << f;
}

TEST(SpmvModel, EvalBridgesIntoCompositionLayer) {
  const SpmvFormatModel model({1e9, 1e10});
  const auto eval = model.eval(square_shape(), "csr");
  const auto e = eval.evaluate();
  EXPECT_GT(e.seconds, 0.0);
  EXPECT_DOUBLE_EQ(e.footprint.flops, 2.0 * square_shape().nnz);
  EXPECT_GT(e.footprint.bytes, 0.0);
  EXPECT_EQ(eval.name(), "spmv.csr");
}

TEST(SpmvModel, EmptyShapeRejected) {
  const SpmvFormatModel model({1e9, 1e10});
  SpmvShape s;
  EXPECT_THROW((void)model.traffic_bytes(s, "csr"), pe::Error);
}

}  // namespace
