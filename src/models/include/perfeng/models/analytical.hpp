#pragma once

/// \file analytical.hpp
/// Analytical performance models of the course kernels (Assignment 2).
///
/// Three granularities, coarse to fine, exactly as the assignment has
/// students discover them:
///
///  1. *Coarse / function level*: T = useful FLOPs / peak FLOP/s. Cheap,
///     explains nothing about memory behaviour.
///  2. *Traffic level* (Roofline-style): T = max(T_compute, T_memory) with a
///     per-variant memory-traffic model that knows about cache capacity and
///     line granularity. Captures why loop interchange and tiling help.
///  3. *Instruction level*: T = Σ op_count(op) × op_cost(op) from a measured
///     per-operation cost table (the host-measured stand-in for Agner Fog's
///     tables / OSACA).
///
/// Every `predict_*` returns seconds per kernel invocation. All models take
/// an explicit `machine::Machine` (probed, preset or loaded) and read its
/// compute and DRAM roofs, the fastest level's bandwidth for
/// cache-resident sets, the largest cache capacity for reuse, and the
/// DRAM line granularity — the models contain no magic constants about
/// the host. Traffic-level predictions are priced by
/// `RooflineModel::seconds`.

#include <cstddef>
#include <map>

#include "perfeng/machine/machine.hpp"
#include "perfeng/microbench/op_costs.hpp"
#include "perfeng/models/model_eval.hpp"

namespace pe::models {

// ---------------------------------------------------------------------------
// Dense matrix multiplication C = A * B (n x n doubles, row-major).
// ---------------------------------------------------------------------------

/// Loop organizations modeled (matching perfeng/kernels/matmul.hpp).
enum class MatmulVariant { kNaiveIjk, kInterchangedIkj, kTiled };

/// Analytical matmul model.
class MatmulModel {
 public:
  MatmulModel(std::size_t n, MatmulVariant variant,
              const machine::Machine& m);

  /// Useful work: 2 n^3 (one multiply + one add per inner step).
  [[nodiscard]] double flops() const;

  /// Estimated DRAM traffic in bytes for this variant and cache capacity.
  ///
  /// ijk: row of A reused (8 n^2); B walked down columns -> one full line
  ///      per element (line_bytes * n^3) unless all of B fits in cache;
  ///      C streamed once (16 n^2 for read+write).
  /// ikj: all streams sequential; B re-read per i (8 n^3) unless resident;
  ///      A read once, C row reused across k.
  /// tiled: with tile t chosen so three t x t blocks fit in cache, each
  ///      operand block is loaded n/t times -> ~ 2 * 8 n^3 / t + 16 n^2.
  [[nodiscard]] double dram_bytes() const;

  /// Tile edge used by the tiled traffic model (largest t with
  /// 3 t^2 doubles <= the largest cache, floored to a multiple of 8,
  /// min 8).
  [[nodiscard]] std::size_t tile_edge() const;

  /// Granularity 1: FLOPs / peak.
  [[nodiscard]] double predict_coarse() const;

  /// Granularity 2: Roofline-style with the variant traffic model.
  [[nodiscard]] double predict_traffic() const;

  /// Granularity 3: per-iteration instruction mix x measured op costs.
  /// The inner step is one FMA (throughput-bound across iterations).
  [[nodiscard]] double predict_instruction(
      const microbench::OpCostTable& ops) const;

  /// Composition adapter: the traffic-level prediction with its FLOP and
  /// DRAM-byte footprint, as "analytical.matmul.<variant>".
  [[nodiscard]] ModelEval eval() const;

  [[nodiscard]] std::size_t n() const { return n_; }
  [[nodiscard]] MatmulVariant variant() const { return variant_; }

 private:
  std::size_t n_;
  MatmulVariant variant_;
  machine::Machine machine_;
};

// ---------------------------------------------------------------------------
// Histogram of n values into b bins (Assignment 2's data-dependent kernel).
// ---------------------------------------------------------------------------

/// Analytical histogram model with data-dependent bin locality.
///
/// Per element: one sequential input load plus one read-modify-write of a
/// bin counter. The *distribution* of bin indices decides whether counter
/// updates hit in cache: with Zipf skew `s`, the hot bins that fit in the
/// cache absorb most updates; with uniform indices over a table larger than
/// the cache, most updates miss. This is the "data-dependent behaviour"
/// the assignment adds on purpose.
class HistogramModel {
 public:
  HistogramModel(std::size_t elements, std::size_t bins, double zipf_skew,
                 const machine::Machine& m);

  /// Probability that a counter update misses the cache under the model.
  [[nodiscard]] double update_miss_probability() const;

  /// Estimated DRAM traffic: streaming input + missing counter updates.
  [[nodiscard]] double dram_bytes() const;

  /// Coarse model: n updates at cache speed (ignores data dependence).
  [[nodiscard]] double predict_coarse() const;

  /// Traffic model including the data-dependent miss term.
  [[nodiscard]] double predict_traffic() const;

  /// Composition adapter: the traffic-level prediction as
  /// "analytical.histogram".
  [[nodiscard]] ModelEval eval() const;

 private:
  std::size_t elements_;
  std::size_t bins_;
  double skew_;
  machine::Machine machine_;
};

// ---------------------------------------------------------------------------
// Sparse matrix-vector multiply y = A x (Assignment 3's analytical baseline).
// ---------------------------------------------------------------------------

/// Storage formats modeled (matching perfeng/kernels/sparse).
enum class SpmvFormat { kCsr, kCsc, kCoo };

/// Analytical SpMV model: memory-bound with a format-dependent traffic
/// term and an x-gather term that depends on column locality.
class SpmvModel {
 public:
  /// `x_locality` in [0,1]: fraction of x-gathers that hit in cache
  ///   (1 = banded/structured matrix, 0 = scattered columns).
  SpmvModel(std::size_t rows, std::size_t cols, std::size_t nnz,
            SpmvFormat format, double x_locality, const machine::Machine& m);

  [[nodiscard]] double flops() const;  ///< 2 nnz
  [[nodiscard]] double dram_bytes() const;
  [[nodiscard]] double predict() const;  ///< Roofline-style composition

  /// Composition adapter: `predict()` with its footprint, as
  /// "analytical.spmv".
  [[nodiscard]] ModelEval eval() const;

 private:
  std::size_t rows_, cols_, nnz_;
  SpmvFormat format_;
  double x_locality_;
  machine::Machine machine_;
};

}  // namespace pe::models
