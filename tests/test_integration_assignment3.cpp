// Integration test: the Assignment 3 flow — build a training corpus of
// SpMV configurations, fit statistical models, and validate that the
// black-box models predict unseen configurations well.
#include <gtest/gtest.h>

#include "perfeng/kernels/sparse.hpp"
#include "perfeng/models/analytical.hpp"
#include "perfeng/statmodel/linear.hpp"
#include "perfeng/statmodel/tree.hpp"
#include "perfeng/statmodel/validation.hpp"

namespace {

using pe::kernels::SparsityPattern;

// A synthetic "runtime" with the analytical model's structure plus noise:
// the statistical models must learn it from features alone. Using the
// analytical model as the data generator keeps this integration test
// fast and deterministic while exercising the full modeling pipeline.
pe::machine::Machine textbook_machine() {
  pe::machine::Machine m;
  m.name = "textbook";
  m.peak_flops = 1e9;
  m.hierarchy = {{"L2", 5e10, 0.0, std::size_t{1} << 21, 64},
                 {"DRAM", 1e10, 0.0, 0, 64}};
  return m;
}

double synthetic_runtime(const pe::kernels::CsrMatrix& m, pe::Rng& rng) {
  const pe::models::SpmvModel model(m.rows, m.cols, m.nnz(),
                                    pe::models::SpmvFormat::kCsr, 0.5,
                                    textbook_machine());
  return model.predict() * rng.next_range_double(0.95, 1.05);
}

TEST(Assignment3, StatisticalModelsPredictSpmvRuntime) {
  pe::Rng rng(2024);
  pe::statmodel::Dataset data(pe::kernels::sparse_feature_names());

  for (const auto pattern :
       {SparsityPattern::kUniform, SparsityPattern::kBanded,
        SparsityPattern::kPowerLaw}) {
    for (std::size_t size : {100u, 200u, 400u, 800u}) {
      for (double density : {0.005, 0.01, 0.02, 0.04}) {
        const auto coo =
            pe::kernels::generate_sparse(size, size, density, pattern, rng);
        const auto csr = pe::kernels::coo_to_csr(coo);
        data.add_row(pe::kernels::sparse_features(csr),
                     synthetic_runtime(csr, rng));
      }
    }
  }
  ASSERT_EQ(data.rows(), 48u);
  data.shuffle(rng);

  // Standardize using train statistics only (the assignment's lesson).
  const auto split = data.train_test_split(0.25);
  const auto standardizer = split.train.fit_standardizer();
  const auto train = split.train.standardized(standardizer);
  const auto test = split.test.standardized(standardizer);

  // Square matrices make rows == cols exactly collinear; a whisper of
  // ridge keeps the normal equations well-posed (itself an Assignment 3
  // lesson about engineered features).
  pe::statmodel::LinearRegression linear(1e-6);
  const auto linear_result = pe::statmodel::evaluate(linear, train, test);
  pe::statmodel::RandomForestRegressor forest(32);
  const auto forest_result = pe::statmodel::evaluate(forest, train, test);

  // Runtime is ~linear in nnz (the dominant feature), so OLS over the raw
  // features must do well: the paper's point that simple statistical
  // models already predict performance usefully.
  EXPECT_LT(linear_result.mape, 0.25) << "OLS MAPE too high";
  EXPECT_GT(linear_result.r2, 0.8);
  EXPECT_GT(forest_result.r2, 0.5);
}

TEST(Assignment3, AnalyticalModelRanksFormatsLikeTrafficSays) {
  // The analytical baseline the statistical models are compared against:
  // COO > CSR in traffic for the same matrix.
  const auto calib = textbook_machine();
  pe::Rng rng(7);
  const auto csr = pe::kernels::coo_to_csr(pe::kernels::generate_sparse(
      500, 500, 0.01, SparsityPattern::kUniform, rng));
  const pe::models::SpmvModel csr_model(csr.rows, csr.cols, csr.nnz(),
                                        pe::models::SpmvFormat::kCsr, 0.5,
                                        calib);
  const pe::models::SpmvModel coo_model(csr.rows, csr.cols, csr.nnz(),
                                        pe::models::SpmvFormat::kCoo, 0.5,
                                        calib);
  EXPECT_GT(coo_model.predict(), csr_model.predict() * 0.99);
}

}  // namespace
