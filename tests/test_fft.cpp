// Tests for the FFT kernels in perfeng/kernels/fft.hpp.
#include "perfeng/kernels/fft.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "perfeng/common/error.hpp"
#include "perfeng/common/rng.hpp"

namespace {

using pe::kernels::Complex;

std::vector<Complex> random_signal(std::size_t n, std::uint64_t seed) {
  pe::Rng rng(seed);
  std::vector<Complex> out(n);
  for (auto& v : out)
    v = {rng.next_range_double(-1, 1), rng.next_range_double(-1, 1)};
  return out;
}

TEST(Fft, ImpulseHasFlatSpectrum) {
  std::vector<Complex> x(8, {0.0, 0.0});
  x[0] = {1.0, 0.0};
  const auto spectrum = pe::kernels::fft(x);
  for (const auto& bin : spectrum) {
    EXPECT_NEAR(bin.real(), 1.0, 1e-12);
    EXPECT_NEAR(bin.imag(), 0.0, 1e-12);
  }
}

TEST(Fft, ConstantSignalIsDcOnly) {
  const std::vector<Complex> x(16, {1.0, 0.0});
  const auto spectrum = pe::kernels::fft(x);
  EXPECT_NEAR(spectrum[0].real(), 16.0, 1e-12);
  for (std::size_t k = 1; k < 16; ++k)
    EXPECT_NEAR(std::abs(spectrum[k]), 0.0, 1e-12);
}

TEST(Fft, SingleToneLandsInOneBin) {
  const std::size_t n = 64;
  std::vector<Complex> x(n);
  for (std::size_t t = 0; t < n; ++t) {
    const double angle = 2.0 * M_PI * 5.0 * t / n;
    x[t] = {std::cos(angle), std::sin(angle)};
  }
  const auto spectrum = pe::kernels::fft(x);
  EXPECT_NEAR(std::abs(spectrum[5]), double(n), 1e-9);
  for (std::size_t k = 0; k < n; ++k) {
    if (k != 5) {
      EXPECT_NEAR(std::abs(spectrum[k]), 0.0, 1e-9) << k;
    }
  }
}

class FftVsDft : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftVsDft, AgreesWithNaiveDft) {
  const auto x = random_signal(GetParam(), GetParam());
  const auto fast = pe::kernels::fft(x);
  const auto slow = pe::kernels::dft(x);
  EXPECT_LT(pe::kernels::spectrum_diff(fast, slow), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Pow2Sizes, FftVsDft,
                         ::testing::Values(2, 4, 8, 32, 128, 512));

TEST(Fft, InverseRoundTrips) {
  const auto x = random_signal(256, 77);
  const auto back = pe::kernels::ifft(pe::kernels::fft(x));
  EXPECT_LT(pe::kernels::spectrum_diff(back, x), 1e-12);
}

TEST(Fft, ParsevalHolds) {
  const auto x = random_signal(128, 99);
  const auto spectrum = pe::kernels::fft(x);
  double time_energy = 0.0, freq_energy = 0.0;
  for (const auto& v : x) time_energy += std::norm(v);
  for (const auto& v : spectrum) freq_energy += std::norm(v);
  EXPECT_NEAR(freq_energy, time_energy * 128.0, 1e-8);
}

TEST(Fft, LinearityHolds) {
  const auto a = random_signal(64, 1);
  const auto b = random_signal(64, 2);
  std::vector<Complex> sum(64);
  for (std::size_t i = 0; i < 64; ++i) sum[i] = a[i] + 2.0 * b[i];
  const auto fa = pe::kernels::fft(a);
  const auto fb = pe::kernels::fft(b);
  const auto fsum = pe::kernels::fft(sum);
  for (std::size_t k = 0; k < 64; ++k)
    EXPECT_LT(std::abs(fsum[k] - (fa[k] + 2.0 * fb[k])), 1e-10);
}

TEST(Fft, NonPowerOfTwoRejected) {
  EXPECT_THROW((void)pe::kernels::fft(random_signal(12, 3)), pe::Error);
  EXPECT_THROW((void)pe::kernels::fft({}), pe::Error);
}

TEST(Dft, HandlesAnyLength) {
  const auto x = random_signal(12, 5);
  const auto spectrum = pe::kernels::dft(x);
  EXPECT_EQ(spectrum.size(), 12u);
}

TEST(Fft, FlopEstimate) {
  EXPECT_DOUBLE_EQ(pe::kernels::fft_flops(1024), 5.0 * 1024 * 10);
  EXPECT_THROW((void)pe::kernels::fft_flops(1), pe::Error);
}

TEST(SpectrumDiff, LengthMismatchRejected) {
  EXPECT_THROW(
      (void)pe::kernels::spectrum_diff(random_signal(4, 1),
                                       random_signal(8, 1)),
      pe::Error);
}

}  // namespace
