#pragma once

/// \file offload.hpp
/// Accelerator-offload modeling for heterogeneous (CPU + GPU) systems.
///
/// The course targets "multi-node heterogeneous platforms combining CPUs
/// and GPUs"; with no GPU in this environment, the *decision model* is the
/// reproducible part: a device is a second Roofline (its own peak and
/// bandwidth) behind a transfer link (α + β·bytes each way). The model
/// answers the three questions every offload project starts with:
///
///   1. how long does the kernel take on the host vs the device?
///   2. including transfers, when does offload win (break-even size)?
///   3. how much work must stay resident on the device to amortize copies?

#include <cstddef>

#include "perfeng/machine/machine.hpp"
#include "perfeng/models/model_eval.hpp"
#include "perfeng/models/roofline.hpp"

namespace pe::models {

/// Host-device transfer link (PCIe-style): alpha + bytes * beta per copy.
struct TransferLink {
  double alpha = 1e-5;   ///< per-transfer latency (s)
  double beta = 1e-10;   ///< per-byte time (s); 1/bandwidth

  [[nodiscard]] double transfer_time(double bytes) const;
};

/// Full offload decision model: one execution target per Roofline.
struct OffloadModel {
  RooflineModel host{1e9, 1e10};
  RooflineModel device{1e9, 1e10};
  TransferLink link;

  /// Calibrate both rooflines from machine descriptions, each as the
  /// whole-machine compute roof (per-core peak x cores) over the DRAM
  /// roof; the transfer link comes from the device machine's link
  /// coefficients (`Machine::has_link()` must hold on `device`).
  [[nodiscard]] static OffloadModel from_machine(
      const machine::Machine& host, const machine::Machine& device);

  /// Time on the host (no transfers).
  [[nodiscard]] double host_time(double flops, double bytes) const;

  /// Time offloaded: input copy + device kernel + output copy.
  [[nodiscard]] double offload_time(double flops, double input_bytes,
                                    double output_bytes) const;

  /// Offload speedup (> 1 means the device wins end-to-end).
  [[nodiscard]] double offload_speedup(double flops, double input_bytes,
                                       double output_bytes) const;

  /// Smallest work multiplier w such that offloading w * (flops, bytes)
  /// with the *same* transfer volume wins — the classic "keep data
  /// resident and batch kernels" amortization factor. Returns infinity
  /// when the device kernel alone is slower than the host.
  [[nodiscard]] double amortization_factor(double flops, double bytes,
                                           double input_bytes,
                                           double output_bytes) const;

  /// Composition adapters: the same kernel kept on the host
  /// ("offload.host") or shipped to the device including both copies
  /// ("offload.device") — so an offload decision can be made by swapping
  /// one leaf of a larger composition.
  [[nodiscard]] ModelEval eval_host(double flops, double bytes) const;
  [[nodiscard]] ModelEval eval_offload(double flops, double input_bytes,
                                       double output_bytes) const;
};

/// Break-even matrix order for an n x n x n matmul-like kernel (2 n^3
/// FLOPs, 3 n^2 * 8 bytes of operands each way at most): the smallest n
/// in [lo, hi] where offload wins, or 0 when it never does.
[[nodiscard]] std::size_t offload_breakeven_matmul(const OffloadModel& m,
                                                   std::size_t lo,
                                                   std::size_t hi);

}  // namespace pe::models
