#include "perfeng/models/analytical.hpp"

#include <algorithm>
#include <cmath>

#include "perfeng/common/error.hpp"
#include "perfeng/models/roofline.hpp"

namespace pe::models {

// --------------------------------------------------------------- MatmulModel

MatmulModel::MatmulModel(std::size_t n, MatmulVariant variant,
                         const machine::Machine& m)
    : n_(n), variant_(variant), machine_(m) {
  PE_REQUIRE(n >= 1, "matrix order must be positive");
  m.check();
}

double MatmulModel::flops() const {
  const double nd = static_cast<double>(n_);
  return 2.0 * nd * nd * nd;
}

std::size_t MatmulModel::tile_edge() const {
  std::size_t t = 8;
  while (3 * (t * 2) * (t * 2) * sizeof(double) <=
         machine_.largest_cache_bytes())
    t *= 2;
  return std::min(t, n_);
}

double MatmulModel::dram_bytes() const {
  const double nd = static_cast<double>(n_);
  const double matrix_bytes = nd * nd * sizeof(double);
  const bool b_resident =
      matrix_bytes <= static_cast<double>(machine_.largest_cache_bytes());
  // C is read and written once (write-allocate): 2 n^2 doubles of traffic.
  const double c_traffic = 2.0 * matrix_bytes;
  const double a_traffic = matrix_bytes;  // streamed row-wise with reuse

  switch (variant_) {
    case MatmulVariant::kNaiveIjk: {
      // B is walked down columns: one full line per element unless B is
      // cache-resident.
      const double b_traffic =
          b_resident ? matrix_bytes
                     : nd * nd * nd *
                           static_cast<double>(machine_.dram().line_bytes);
      return a_traffic + b_traffic + c_traffic;
    }
    case MatmulVariant::kInterchangedIkj: {
      // All streams sequential; B is re-streamed for every i unless
      // resident.
      const double b_traffic =
          b_resident ? matrix_bytes : nd * nd * nd * sizeof(double);
      return a_traffic + b_traffic + c_traffic;
    }
    case MatmulVariant::kTiled: {
      const double t = static_cast<double>(tile_edge());
      // Each A and B block is loaded n/t times over the computation.
      const double block_reloads = std::max(1.0, nd / t);
      const double ab_traffic = 2.0 * matrix_bytes * block_reloads;
      return ab_traffic + c_traffic;
    }
  }
  return 0.0;
}

double MatmulModel::predict_coarse() const {
  return flops() / machine_.peak_flops;
}

double MatmulModel::predict_traffic() const {
  return RooflineModel::from_machine(machine_).seconds(flops(), dram_bytes());
}

double MatmulModel::predict_instruction(
    const microbench::OpCostTable& ops) const {
  // Inner loop: one multiply-add per step. In the naive column-walking
  // variant the dependency chain through the accumulator makes the FMA
  // *latency* visible; the interchanged/tiled variants expose independent
  // elements so the *throughput* cost applies.
  const auto& fma = ops.cost(microbench::Op::kFma);
  const double per_step = (variant_ == MatmulVariant::kNaiveIjk)
                              ? fma.latency_seconds
                              : fma.throughput_seconds;
  const double nd = static_cast<double>(n_);
  return nd * nd * nd * per_step;
}

// ------------------------------------------------------------ HistogramModel

HistogramModel::HistogramModel(std::size_t elements, std::size_t bins,
                               double zipf_skew, const machine::Machine& m)
    : elements_(elements), bins_(bins), skew_(zipf_skew), machine_(m) {
  PE_REQUIRE(elements >= 1, "need at least one element");
  PE_REQUIRE(bins >= 1, "need at least one bin");
  PE_REQUIRE(zipf_skew >= 0.0, "skew must be non-negative");
  m.check();
}

double HistogramModel::update_miss_probability() const {
  const double table_bytes =
      static_cast<double>(bins_) * sizeof(std::uint64_t);
  const double cache = static_cast<double>(machine_.largest_cache_bytes());
  if (table_bytes <= cache) return 0.0;

  const std::size_t resident_bins =
      static_cast<std::size_t>(cache / sizeof(std::uint64_t));
  if (skew_ == 0.0) {
    // Uniform indices: hit probability is the resident fraction.
    return 1.0 - static_cast<double>(resident_bins) /
                     static_cast<double>(bins_);
  }
  // Zipf: probability mass of the `resident_bins` hottest bins,
  // P(rank <= k) = H_k,s / H_n,s, approximated with the integral form.
  auto harmonic = [this](double k) {
    if (std::abs(1.0 - skew_) < 1e-12) return std::log(k) + 0.5772156649;
    return (std::pow(k, 1.0 - skew_) - 1.0) / (1.0 - skew_) + 1.0;
  };
  const double covered = harmonic(static_cast<double>(resident_bins)) /
                         harmonic(static_cast<double>(bins_));
  return std::clamp(1.0 - covered, 0.0, 1.0);
}

double HistogramModel::dram_bytes() const {
  const double input_bytes = static_cast<double>(elements_) * sizeof(float);
  // A missing counter update costs a full line in and (eventually) out.
  const double miss_bytes =
      update_miss_probability() * static_cast<double>(elements_) * 2.0 *
      static_cast<double>(machine_.dram().line_bytes);
  return input_bytes + miss_bytes;
}

double HistogramModel::predict_coarse() const {
  // One load + one increment per element at cache speed.
  const double bytes_touched =
      static_cast<double>(elements_) * (sizeof(float) + 2.0 * sizeof(std::uint64_t));
  return bytes_touched / machine_.cache_bandwidth();
}

double HistogramModel::predict_traffic() const {
  const double cache_time = predict_coarse();
  const double dram_time = dram_bytes() / machine_.dram_bandwidth();
  return std::max(cache_time, dram_time);
}

// ----------------------------------------------------------------- SpmvModel

SpmvModel::SpmvModel(std::size_t rows, std::size_t cols, std::size_t nnz,
                     SpmvFormat format, double x_locality,
                     const machine::Machine& m)
    : rows_(rows),
      cols_(cols),
      nnz_(nnz),
      format_(format),
      x_locality_(x_locality),
      machine_(m) {
  PE_REQUIRE(rows >= 1 && cols >= 1, "matrix must be non-empty");
  PE_REQUIRE(nnz >= 1, "need at least one non-zero");
  PE_REQUIRE(x_locality >= 0.0 && x_locality <= 1.0,
             "x locality must be in [0,1]");
  m.check();
}

double SpmvModel::flops() const { return 2.0 * static_cast<double>(nnz_); }

double SpmvModel::dram_bytes() const {
  const double nnz = static_cast<double>(nnz_);
  const double rows = static_cast<double>(rows_);
  const double cols = static_cast<double>(cols_);
  const double line = static_cast<double>(machine_.dram().line_bytes);

  // Values are 8 bytes, indices 4 bytes, all streamed exactly once.
  double index_stream = 0.0;
  double vector_traffic = 0.0;
  switch (format_) {
    case SpmvFormat::kCsr:
      index_stream = nnz * 4.0 + (rows + 1.0) * 4.0;
      // y is written sequentially (read+write), x gathered per nnz.
      vector_traffic = rows * 16.0 +
                       nnz * ((1.0 - x_locality_) * line + x_locality_ * 0.0) +
                       cols * 8.0 * x_locality_;  // resident x read once
      break;
    case SpmvFormat::kCsc:
      index_stream = nnz * 4.0 + (cols + 1.0) * 4.0;
      // x is read sequentially, y scattered per nnz (read-modify-write).
      vector_traffic = cols * 8.0 +
                       nnz * ((1.0 - x_locality_) * 2.0 * line) +
                       rows * 16.0 * x_locality_;
      break;
    case SpmvFormat::kCoo:
      index_stream = nnz * 8.0;  // row and column index per entry
      vector_traffic = rows * 16.0 +
                       nnz * ((1.0 - x_locality_) * line) +
                       cols * 8.0 * x_locality_;
      break;
  }
  return nnz * 8.0 + index_stream + vector_traffic;
}

double SpmvModel::predict() const {
  return RooflineModel::from_machine(machine_).seconds(flops(), dram_bytes());
}

namespace {

/// The shared shape of the adapters: a pure snapshot of (seconds, flops,
/// bytes) taken now, so later mutation of the model cannot skew a tree
/// that already captured the evaluation.
ModelEval traffic_eval(std::string name, double seconds, double flops,
                       double bytes) {
  Evaluation e;
  e.seconds = seconds;
  e.footprint.flops = flops;
  e.footprint.bytes = bytes;
  return ModelEval::constant(std::move(name), e);
}

}  // namespace

ModelEval MatmulModel::eval() const {
  const char* variant = "tiled";
  switch (variant_) {
    case MatmulVariant::kNaiveIjk: variant = "naive-ijk"; break;
    case MatmulVariant::kInterchangedIkj: variant = "interchanged-ikj"; break;
    case MatmulVariant::kTiled: variant = "tiled"; break;
  }
  return traffic_eval(std::string("analytical.matmul.") + variant,
                      predict_traffic(), flops(), dram_bytes());
}

ModelEval HistogramModel::eval() const {
  return traffic_eval("analytical.histogram", predict_traffic(),
                      static_cast<double>(elements_), dram_bytes());
}

ModelEval SpmvModel::eval() const {
  return traffic_eval("analytical.spmv", predict(), flops(), dram_bytes());
}

}  // namespace pe::models
