// Tests for the estimators in perfeng/measure/statistics.hpp.
#include "perfeng/measure/statistics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "perfeng/common/error.hpp"

namespace {

const std::vector<double> kSample = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};

TEST(Statistics, Mean) {
  EXPECT_DOUBLE_EQ(pe::mean(kSample), 5.0);
  EXPECT_DOUBLE_EQ(pe::mean(std::vector<double>{}), 0.0);
}

TEST(Statistics, SampleStddev) {
  // Known dataset: population sd = 2, sample sd = sqrt(32/7).
  EXPECT_NEAR(pe::stddev(kSample), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(pe::stddev(std::vector<double>{1.0}), 0.0);
}

TEST(Statistics, MedianOddAndEven) {
  EXPECT_DOUBLE_EQ(pe::median(std::vector<double>{3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(pe::median(std::vector<double>{4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_THROW((void)pe::median(std::vector<double>{}), pe::Error);
}

TEST(Statistics, PercentileInterpolates) {
  const std::vector<double> v = {10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(pe::percentile(v, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(pe::percentile(v, 100.0), 40.0);
  EXPECT_DOUBLE_EQ(pe::percentile(v, 50.0), 25.0);
  EXPECT_THROW((void)pe::percentile(v, -1.0), pe::Error);
  EXPECT_THROW((void)pe::percentile(v, 101.0), pe::Error);
}

class PercentileSweep : public ::testing::TestWithParam<double> {};

TEST_P(PercentileSweep, MonotoneInQ) {
  const std::vector<double> v = {5.0, 1.0, 9.0, 3.0, 7.0, 2.0};
  const double q = GetParam();
  EXPECT_LE(pe::percentile(v, q), pe::percentile(v, std::min(100.0, q + 10)));
}

INSTANTIATE_TEST_SUITE_P(Quantiles, PercentileSweep,
                         ::testing::Values(0.0, 10.0, 25.0, 50.0, 75.0,
                                           90.0));

TEST(Statistics, MedianAbsDeviation) {
  const std::vector<double> v = {1.0, 1.0, 2.0, 2.0, 4.0, 6.0, 9.0};
  EXPECT_DOUBLE_EQ(pe::median_abs_deviation(v), 1.0);
}

TEST(Statistics, GeometricMean) {
  EXPECT_NEAR(pe::geometric_mean(std::vector<double>{1.0, 4.0, 16.0}), 4.0,
              1e-12);
  EXPECT_THROW((void)pe::geometric_mean(std::vector<double>{1.0, -1.0}),
               pe::Error);
}

TEST(Statistics, HarmonicMean) {
  EXPECT_NEAR(pe::harmonic_mean(std::vector<double>{1.0, 2.0, 4.0}),
              3.0 / (1.0 + 0.5 + 0.25), 1e-12);
  EXPECT_THROW((void)pe::harmonic_mean(std::vector<double>{0.0}), pe::Error);
}

TEST(Statistics, MeanInequalityHolds) {
  // HM <= GM <= AM for positive values.
  const std::vector<double> v = {1.3, 2.7, 3.1, 8.9, 0.4};
  EXPECT_LE(pe::harmonic_mean(v), pe::geometric_mean(v) + 1e-12);
  EXPECT_LE(pe::geometric_mean(v), pe::mean(v) + 1e-12);
}

TEST(Statistics, TCriticalKnownValues) {
  EXPECT_NEAR(pe::t_critical_95(1), 12.706, 1e-3);
  EXPECT_NEAR(pe::t_critical_95(10), 2.228, 1e-3);
  EXPECT_NEAR(pe::t_critical_95(30), 2.042, 1e-3);
  EXPECT_NEAR(pe::t_critical_95(1000), 1.980, 1e-2);
}

TEST(Statistics, TCriticalDecreasesWithDof) {
  for (std::size_t dof = 1; dof < 40; ++dof)
    EXPECT_GE(pe::t_critical_95(dof), pe::t_critical_95(dof + 1));
}

TEST(Statistics, Ci95HalfwidthShrinksWithSamples) {
  std::vector<double> small = {1.0, 2.0, 3.0};
  std::vector<double> large;
  for (int i = 0; i < 30; ++i) large.insert(large.end(), small.begin(),
                                            small.end());
  EXPECT_GT(pe::ci95_halfwidth(small), pe::ci95_halfwidth(large));
  EXPECT_EQ(pe::ci95_halfwidth(std::vector<double>{5.0}), 0.0);
}

TEST(Statistics, PearsonCorrelation) {
  const std::vector<double> x = {1.0, 2.0, 3.0, 4.0};
  const std::vector<double> y_pos = {2.0, 4.0, 6.0, 8.0};
  const std::vector<double> y_neg = {8.0, 6.0, 4.0, 2.0};
  EXPECT_NEAR(pe::pearson_correlation(x, y_pos), 1.0, 1e-12);
  EXPECT_NEAR(pe::pearson_correlation(x, y_neg), -1.0, 1e-12);
  const std::vector<double> constant = {3.0, 3.0, 3.0, 3.0};
  EXPECT_EQ(pe::pearson_correlation(x, constant), 0.0);
}

TEST(Statistics, LineFitRecoversSlopeIntercept) {
  std::vector<double> x, y;
  for (int i = 0; i < 20; ++i) {
    x.push_back(i);
    y.push_back(3.0 + 2.5 * i);
  }
  const auto fit = pe::fit_line(x, y);
  EXPECT_NEAR(fit.intercept, 3.0, 1e-9);
  EXPECT_NEAR(fit.slope, 2.5, 1e-9);
  EXPECT_NEAR(fit.r2, 1.0, 1e-12);
}

TEST(Statistics, LineFitNeedsVariance) {
  const std::vector<double> x = {2.0, 2.0, 2.0};
  const std::vector<double> y = {1.0, 2.0, 3.0};
  EXPECT_THROW((void)pe::fit_line(x, y), pe::Error);
}

TEST(Statistics, SummarizeBundlesEverything) {
  const auto s = pe::summarize(kSample);
  EXPECT_EQ(s.count, kSample.size());
  EXPECT_DOUBLE_EQ(s.min, 2.0);
  EXPECT_DOUBLE_EQ(s.max, 9.0);
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  EXPECT_DOUBLE_EQ(s.median, 4.5);
  EXPECT_GT(s.stddev, 0.0);
  EXPECT_GT(s.ci95_half, 0.0);
  EXPECT_LE(s.p05, s.median);
  EXPECT_GE(s.p95, s.median);
}

TEST(Statistics, SummarizeEmptySample) {
  const auto s = pe::summarize(std::vector<double>{});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean, 0.0);
}

TEST(CompareSamples, DetectsAClearDifference) {
  const std::vector<double> a = {10.0, 10.1, 9.9, 10.05, 9.95};
  const std::vector<double> b = {8.0, 8.1, 7.9, 8.05, 7.95};
  const auto r = pe::compare_samples(a, b);
  EXPECT_TRUE(r.significant);
  EXPECT_NEAR(r.mean_difference, -2.0, 0.01);
  EXPECT_NEAR(r.relative_change, -0.2, 0.01);
  EXPECT_LT(r.t_statistic, 0.0);
}

TEST(CompareSamples, NoiseIsNotSignificant) {
  // Two samples from the same distribution (interleaved values).
  const std::vector<double> a = {10.0, 10.4, 9.8, 10.2, 9.6};
  const std::vector<double> b = {10.1, 9.7, 10.3, 9.9, 10.1};
  const auto r = pe::compare_samples(a, b);
  EXPECT_FALSE(r.significant);
  EXPECT_GT(r.ci95_half, std::abs(r.mean_difference));
}

TEST(CompareSamples, UnequalSizesSupported) {
  const std::vector<double> a = {1.0, 1.1, 0.9};
  const std::vector<double> b = {2.0, 2.1, 1.9, 2.05, 1.95, 2.0};
  const auto r = pe::compare_samples(a, b);
  EXPECT_TRUE(r.significant);
  EXPECT_GT(r.dof, 1.0);
}

TEST(CompareSamples, ZeroVarianceExactDifference) {
  const std::vector<double> a = {5.0, 5.0, 5.0};
  const std::vector<double> b = {6.0, 6.0, 6.0};
  EXPECT_TRUE(pe::compare_samples(a, b).significant);
  EXPECT_FALSE(pe::compare_samples(a, a).significant);
}

TEST(FilterOutliers, DropsTheJitterSpike) {
  // Nine tight measurements and one preempted outlier.
  const std::vector<double> xs = {1.0, 1.01, 0.99, 1.02, 0.98,
                                  1.0, 1.01, 0.99, 1.0,  5.0};
  const auto kept = pe::filter_outliers(xs);
  EXPECT_EQ(kept.size(), 9u);
  for (double v : kept) EXPECT_LT(v, 2.0);
}

TEST(FilterOutliers, KeepsCleanSamplesIntact) {
  const std::vector<double> xs = {1.0, 1.1, 0.9, 1.05, 0.95, 1.02};
  const auto kept = pe::filter_outliers(xs);
  EXPECT_EQ(kept.size(), xs.size());
}

TEST(FilterOutliers, PreservesOriginalOrder) {
  const std::vector<double> xs = {3.0, 1.0, 100.0, 2.0, 2.5, 1.5, 2.2,
                                  1.8};
  const auto kept = pe::filter_outliers(xs);
  EXPECT_EQ(kept.front(), 3.0);
  EXPECT_TRUE(std::find(kept.begin(), kept.end(), 100.0) == kept.end());
}

TEST(FilterOutliers, TinySamplesPassThrough) {
  const std::vector<double> xs = {1.0, 99.0};
  EXPECT_EQ(pe::filter_outliers(xs).size(), 2u);
}

TEST(FilterOutliers, WiderFenceKeepsMore) {
  const std::vector<double> xs = {1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.6};
  EXPECT_LE(pe::filter_outliers(xs, 1.5).size(),
            pe::filter_outliers(xs, 100.0).size());
  EXPECT_THROW((void)pe::filter_outliers(xs, -1.0), pe::Error);
}

TEST(CompareSamples, Validation) {
  const std::vector<double> one = {1.0};
  const std::vector<double> two = {1.0, 2.0};
  EXPECT_THROW((void)pe::compare_samples(one, two), pe::Error);
}

TEST(Statistics, CoefficientOfVariation) {
  EXPECT_NEAR(pe::coefficient_of_variation(kSample),
              std::sqrt(32.0 / 7.0) / 5.0, 1e-12);
  EXPECT_EQ(pe::coefficient_of_variation(std::vector<double>{0.0, 0.0}),
            0.0);
}

}  // namespace
