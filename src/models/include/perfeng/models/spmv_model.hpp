#pragma once

/// \file spmv_model.hpp
/// Analytical cost model for the sparse-format zoo.
///
/// The statmodel-trained `pe::kernels::FormatSelector` picks formats from
/// *measured* corpus data; this is its analytical sibling: a first-order
/// traffic model per format over a calibrated machine, so composition
/// trees can price a format choice without ever running the kernel (and
/// so the measured selector has a white-box baseline to be compared
/// against). SpMV is memory-bound in practice, so each format's cost is
/// its index+value+vector traffic over DRAM bandwidth, floored by the
/// compute roof.
///
/// The model deliberately speaks plain shape numbers (SpmvShape) rather
/// than pe::kernels types: the models layer stays independent of the
/// kernels layer, and callers bridge from FormatFeatures trivially.

#include <string>
#include <vector>

#include "perfeng/machine/machine.hpp"
#include "perfeng/models/model_eval.hpp"
#include "perfeng/models/roofline.hpp"

namespace pe::models {

/// Shape summary of a sparse matrix (mirrors the selector's features).
struct SpmvShape {
  double rows = 0.0;
  double cols = 0.0;
  double nnz = 0.0;
  double ell_padding = 1.0;   ///< stored slots / nnz for ELL (>= 1)
  double sell_padding = 1.0;  ///< stored slots / nnz for SELL-C-sigma
};

/// Bandwidth/compute cost model per sparse format.
class SpmvFormatModel {
 public:
  explicit SpmvFormatModel(RooflineModel roof);

  /// Calibrate from a machine description: its single-core Roofline
  /// (compute roof over DRAM bandwidth).
  [[nodiscard]] static SpmvFormatModel from_machine(
      const machine::Machine& m);

  /// Format names this model prices (matching
  /// pe::kernels::spmv_format_name): "csr", "csc", "coo", "ell", "sell".
  [[nodiscard]] static const std::vector<std::string>& format_names();

  /// Predicted DRAM traffic of y = A x in `format`, in bytes.
  [[nodiscard]] double traffic_bytes(const SpmvShape& shape,
                                     const std::string& format) const;

  /// Predicted seconds: the Roofline time of 2 nnz FLOPs over the
  /// format's traffic (memory time, floored by the compute roof).
  [[nodiscard]] double predict_seconds(const SpmvShape& shape,
                                       const std::string& format) const;

  /// Cheapest predicted format for this shape.
  [[nodiscard]] std::string choose(const SpmvShape& shape) const;

  /// Composition adapter: one SpMV in `format`, named "spmv.<format>".
  [[nodiscard]] ModelEval eval(const SpmvShape& shape,
                               const std::string& format) const;

 private:
  RooflineModel roof_;
};

}  // namespace pe::models
