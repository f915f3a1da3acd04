#include "perfeng/models/spmv_model.hpp"

#include <algorithm>
#include <utility>

#include "perfeng/common/error.hpp"

namespace pe::models {

namespace {

constexpr double kValueBytes = 8.0;  // double
constexpr double kIndexBytes = 4.0;  // uint32_t

}  // namespace

SpmvFormatModel::SpmvFormatModel(RooflineModel roof)
    : roof_(std::move(roof)) {}

SpmvFormatModel SpmvFormatModel::from_machine(const machine::Machine& m) {
  return SpmvFormatModel(RooflineModel::from_machine(m));
}

const std::vector<std::string>& SpmvFormatModel::format_names() {
  static const std::vector<std::string> names = {"csr", "csc", "coo", "ell",
                                                 "sell"};
  return names;
}

double SpmvFormatModel::traffic_bytes(const SpmvShape& shape,
                                      const std::string& format) const {
  PE_REQUIRE(shape.rows > 0.0 && shape.cols > 0.0,
             "shape must be non-empty");
  const double nnz = shape.nnz;
  // Streaming x gathers hit at most every element of x once when locality
  // is good; cap at nnz for the hopeless fully-random case.
  const double x_bytes = kValueBytes * std::min(nnz, shape.cols);
  const double y_bytes = kValueBytes * shape.rows;

  if (format == "csr") {
    // values + col_idx once, row_ptr once, y written once.
    return nnz * (kValueBytes + kIndexBytes) +
           shape.rows * kIndexBytes + x_bytes + y_bytes;
  }
  if (format == "coo") {
    // Full triplets (row index travels with every entry) and y is
    // read-modify-written through memory in the worst case.
    return nnz * (kValueBytes + 2.0 * kIndexBytes) + x_bytes +
           2.0 * y_bytes;
  }
  if (format == "csc") {
    // Column-major: x streams, but y takes scattered read-modify-writes —
    // the dominant cost on wide matrices.
    return nnz * (kValueBytes + kIndexBytes) + shape.cols * kIndexBytes +
           x_bytes + 2.0 * kValueBytes * nnz;
  }
  if (format == "ell") {
    // Padding is real traffic: every stored slot streams through.
    return nnz * shape.ell_padding * (kValueBytes + kIndexBytes) + x_bytes +
           y_bytes;
  }
  if (format == "sell") {
    return nnz * shape.sell_padding * (kValueBytes + kIndexBytes) +
           shape.rows * kIndexBytes + x_bytes + y_bytes;
  }
  throw Error("spmv_model: unknown format '" + format + "'");
}

double SpmvFormatModel::predict_seconds(const SpmvShape& shape,
                                        const std::string& format) const {
  return roof_.seconds(2.0 * shape.nnz, traffic_bytes(shape, format));
}

std::string SpmvFormatModel::choose(const SpmvShape& shape) const {
  std::string best;
  double best_seconds = 0.0;
  for (const std::string& f : format_names()) {
    const double s = predict_seconds(shape, f);
    if (best.empty() || s < best_seconds) {
      best = f;
      best_seconds = s;
    }
  }
  return best;
}

ModelEval SpmvFormatModel::eval(const SpmvShape& shape,
                                const std::string& format) const {
  const double seconds = predict_seconds(shape, format);
  Evaluation e;
  e.seconds = seconds;
  e.footprint.flops = 2.0 * shape.nnz;
  e.footprint.bytes = traffic_bytes(shape, format);
  e.footprint.cores = 1.0;
  return ModelEval::constant("spmv." + format, e);
}

}  // namespace pe::models
