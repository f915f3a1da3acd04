// Tests for the derived metrics in perfeng/measure/metrics.hpp.
#include "perfeng/measure/metrics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "perfeng/common/error.hpp"

namespace {

TEST(Metrics, FlopsRate) {
  EXPECT_DOUBLE_EQ(pe::flops_rate(2e9, 2.0), 1e9);
  EXPECT_THROW((void)pe::flops_rate(1.0, 0.0), pe::Error);
  EXPECT_THROW((void)pe::flops_rate(-1.0, 1.0), pe::Error);
}

TEST(Metrics, Bandwidth) {
  EXPECT_DOUBLE_EQ(pe::bandwidth(1e9, 0.5), 2e9);
  EXPECT_THROW((void)pe::bandwidth(1.0, -1.0), pe::Error);
}

TEST(Metrics, ArithmeticIntensity) {
  // Classic triad: 2 FLOPs per 24 bytes.
  EXPECT_NEAR(pe::arithmetic_intensity(2.0, 24.0), 1.0 / 12.0, 1e-15);
  EXPECT_THROW((void)pe::arithmetic_intensity(1.0, 0.0), pe::Error);
}

TEST(Metrics, SpeedupAndEfficiency) {
  EXPECT_DOUBLE_EQ(pe::speedup(10.0, 2.5), 4.0);
  EXPECT_DOUBLE_EQ(pe::parallel_efficiency(4.0, 4), 1.0);
  EXPECT_DOUBLE_EQ(pe::parallel_efficiency(3.0, 4), 0.75);
  EXPECT_THROW((void)pe::speedup(0.0, 1.0), pe::Error);
  EXPECT_THROW((void)pe::parallel_efficiency(1.0, 0), pe::Error);
}

TEST(Metrics, RelativeError) {
  EXPECT_DOUBLE_EQ(pe::relative_error(110.0, 100.0), 0.1);
  EXPECT_DOUBLE_EQ(pe::relative_error(90.0, 100.0), -0.1);
  EXPECT_THROW((void)pe::relative_error(1.0, 0.0), pe::Error);
}

TEST(Metrics, Mape) {
  const std::vector<double> pred = {110.0, 90.0};
  const std::vector<double> obs = {100.0, 100.0};
  EXPECT_NEAR(pe::mape(pred, obs), 0.1, 1e-15);
  EXPECT_THROW((void)pe::mape(pred, std::vector<double>{1.0}), pe::Error);
}

TEST(Metrics, Rmse) {
  const std::vector<double> pred = {1.0, 2.0, 3.0};
  const std::vector<double> obs = {1.0, 2.0, 5.0};
  EXPECT_NEAR(pe::rmse(pred, obs), std::sqrt(4.0 / 3.0), 1e-12);
  EXPECT_DOUBLE_EQ(pe::rmse(obs, obs), 0.0);
}

TEST(Metrics, RSquared) {
  const std::vector<double> obs = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(pe::r_squared(obs, obs), 1.0);
  // Predicting the mean gives exactly 0.
  const std::vector<double> mean_pred = {2.5, 2.5, 2.5, 2.5};
  EXPECT_NEAR(pe::r_squared(mean_pred, obs), 0.0, 1e-12);
  // Worse than the mean goes negative.
  const std::vector<double> bad = {4.0, 3.0, 2.0, 1.0};
  EXPECT_LT(pe::r_squared(bad, obs), 0.0);
}

}  // namespace
