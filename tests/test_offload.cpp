// Tests for the accelerator-offload model in perfeng/models/offload.hpp.
#include "perfeng/models/offload.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "perfeng/common/error.hpp"

namespace {

using namespace pe::models;

// A GPU-ish device: 10x host FLOPS, 5x host bandwidth, over a slow link.
OffloadModel typical() {
  OffloadModel m;
  m.host = {1e10, 2e10};
  m.device = {1e11, 1e11};
  m.link = {1e-5, 1e-10};  // 10 us latency, 10 GB/s
  return m;
}

TEST(TransferLink, AlphaBetaCost) {
  const TransferLink l{1e-5, 1e-10};
  EXPECT_DOUBLE_EQ(l.transfer_time(0), 0.0);  // nothing to copy
  EXPECT_DOUBLE_EQ(l.transfer_time(1e10), 1e-5 + 1.0);
}

TEST(Offload, TinyKernelsStayOnTheHost) {
  const auto m = typical();
  // 1000 FLOPs on 1 KiB: transfers dwarf the work.
  EXPECT_LT(m.offload_speedup(1e3, 512, 512), 1.0);
}

TEST(Offload, BigKernelsWin) {
  const auto m = typical();
  // 2e12 FLOPs on 24 MB: device 10x compute advantage dominates.
  EXPECT_GT(m.offload_speedup(2e12, 1.6e7, 8e6), 5.0);
}

TEST(Offload, OffloadTimeDecomposes) {
  const auto m = typical();
  const double flops = 1e9, in = 1e6, out = 1e6;
  const double expected = m.link.transfer_time(in) +
                          m.device.seconds(flops, in + out) +
                          m.link.transfer_time(out);
  EXPECT_DOUBLE_EQ(m.offload_time(flops, in, out), expected);
}

TEST(Offload, BreakevenMatmulIsMonotone) {
  const auto m = typical();
  const std::size_t breakeven = offload_breakeven_matmul(m, 8, 4096);
  ASSERT_GT(breakeven, 8u);   // tiny matrices must not offload
  ASSERT_LT(breakeven, 4096u);  // big ones must
  // Above the break-even point offload keeps winning.
  const double nd = static_cast<double>(breakeven) * 2.0;
  EXPECT_GT(m.offload_speedup(2.0 * nd * nd * nd, 2.0 * nd * nd * 8.0,
                              nd * nd * 8.0),
            1.0);
}

TEST(Offload, NoBreakevenWhenDeviceIsSlower) {
  OffloadModel m = typical();
  m.device = {1e9, 1e9};  // slower than the host
  EXPECT_EQ(offload_breakeven_matmul(m, 8, 512), 0u);
}

TEST(Amortization, FiniteWhenDeviceFasterPerKernel) {
  const auto m = typical();
  const double w =
      m.amortization_factor(1e8, 1e6, /*in=*/1e7, /*out=*/1e7);
  EXPECT_GT(w, 0.0);
  EXPECT_TRUE(std::isfinite(w));
  // At w kernels, host time equals offload time by construction.
  const double host = w * m.host.seconds(1e8, 1e6);
  const double dev = m.link.transfer_time(1e7) + m.link.transfer_time(1e7) +
                     w * m.device.seconds(1e8, 1e6);
  EXPECT_NEAR(host, dev, host * 1e-9);
}

TEST(Amortization, InfiniteWhenDeviceSlower) {
  OffloadModel m = typical();
  m.device = {1e8, 1e8};
  EXPECT_TRUE(std::isinf(m.amortization_factor(1e8, 1e6, 1e6, 1e6)));
}

TEST(Offload, SearchRangeValidated) {
  EXPECT_THROW((void)offload_breakeven_matmul(typical(), 0, 10), pe::Error);
  EXPECT_THROW((void)offload_breakeven_matmul(typical(), 10, 5), pe::Error);
}

}  // namespace
