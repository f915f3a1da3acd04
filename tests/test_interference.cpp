// Tests for the shared-system interference model in
// perfeng/models/interference.hpp.
#include "perfeng/models/interference.hpp"

#include <gtest/gtest.h>

#include "perfeng/common/error.hpp"

namespace {

using pe::models::SharedSystemModel;

SharedSystemModel node() { return {{1e10, 2e10}}; }  // ridge alone at 0.5

TEST(Interference, BandwidthSplitsEvenly) {
  EXPECT_DOUBLE_EQ(node().tenant_bandwidth(1), 2e10);
  EXPECT_DOUBLE_EQ(node().tenant_bandwidth(4), 5e9);
  EXPECT_THROW((void)node().tenant_bandwidth(0), pe::Error);
}

TEST(Interference, MemoryBoundKernelSlowsLinearly) {
  // Pure streaming kernel (AI ~ 0): slowdown equals the tenant count.
  const double flops = 1.0, bytes = 1e9;
  EXPECT_NEAR(node().slowdown(flops, bytes, 4), 4.0, 1e-9);
  EXPECT_NEAR(node().slowdown(flops, bytes, 16), 16.0, 1e-9);
}

TEST(Interference, ComputeBoundKernelIsImmune) {
  // AI = 100 FLOP/B >> ridge even at 16 tenants (ridge_16 = 8).
  const double flops = 1e12, bytes = 1e10;
  EXPECT_NEAR(node().slowdown(flops, bytes, 16), 1.0, 1e-9);
}

TEST(Interference, IntermediateKernelsSlowPartially) {
  // AI = 1 FLOP/B: compute-bound alone (ridge 0.5) but memory-bound
  // beyond 2 tenants.
  const double flops = 1e10, bytes = 1e10;
  EXPECT_NEAR(node().slowdown(flops, bytes, 1), 1.0, 1e-12);
  EXPECT_NEAR(node().slowdown(flops, bytes, 2), 1.0, 1e-9);
  EXPECT_GT(node().slowdown(flops, bytes, 4), 1.9);
}

TEST(Interference, ImmunityIntensityScalesWithTenants) {
  EXPECT_DOUBLE_EQ(node().immunity_intensity(1), 0.5);
  EXPECT_DOUBLE_EQ(node().immunity_intensity(4), 2.0);
  // A kernel exactly at the immunity intensity never slows down.
  const double ai = node().immunity_intensity(8);
  EXPECT_NEAR(node().slowdown(ai * 1e9, 1e9, 8), 1.0, 1e-9);
}

TEST(Interference, TenantEstimationInvertsTheModel) {
  const double flops = 1.0, bytes = 1e9;  // streaming kernel
  for (unsigned actual : {1u, 3u, 8u, 32u}) {
    const double observed = node().slowdown(flops, bytes, actual);
    EXPECT_EQ(node().estimate_tenants(flops, bytes, observed), actual);
  }
}

TEST(Interference, EstimationSaturatesForImmuneKernels) {
  // A compute-bound kernel gives no signal; the estimate stays at 1.
  EXPECT_EQ(node().estimate_tenants(1e12, 1e10, 1.0), 1u);
}

TEST(Interference, Validation) {
  EXPECT_THROW((void)node().slowdown(0.0, 0.0, 2), pe::Error);
  EXPECT_THROW((void)node().estimate_tenants(1.0, 1.0, 0.5), pe::Error);
  EXPECT_THROW((void)node().estimate_tenants(1.0, 1.0, 2.0, 0), pe::Error);
}

}  // namespace
