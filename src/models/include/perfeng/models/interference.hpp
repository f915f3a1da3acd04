#pragma once

/// \file interference.hpp
/// Shared-system interference modeling — the paper's future-work topic
/// "(3) expanding ... towards shared systems like cloud computing".
///
/// On a multi-tenant node the compute pipeline is private per core but
/// the memory system is shared: co-runners shrink the bandwidth roof
/// while the compute roof stands. The model predicts per-kernel slowdown
/// from arithmetic intensity alone — memory-bound tenants suffer,
/// compute-bound ones barely notice — and inverts the same relation into
/// a co-runner detector: observed slowdown → estimated contention level.

#include <cstddef>

#include "perfeng/machine/machine.hpp"
#include "perfeng/models/model_eval.hpp"
#include "perfeng/models/roofline.hpp"

namespace pe::models {

/// A node shared by several tenants.
struct SharedSystemModel {
  /// The node as one tenant sees it alone: the per-tenant (private)
  /// compute roof over the whole shared memory bandwidth.
  RooflineModel roof{1e10, 2e10};

  /// Calibrate from a machine description: the per-core peak is each
  /// tenant's private compute roof, the DRAM roof is what they share.
  [[nodiscard]] static SharedSystemModel from_machine(
      const machine::Machine& m);

  /// Bandwidth available to one tenant among `tenants` equal co-runners.
  [[nodiscard]] double tenant_bandwidth(unsigned tenants) const;

  /// Roofline execution time of (flops, bytes) with `tenants` co-runners:
  /// the tenant's bandwidth share is its memory roof.
  [[nodiscard]] double kernel_time(double flops, double bytes,
                                   unsigned tenants) const;

  /// Slowdown of a kernel at `tenants` vs running alone (>= 1).
  [[nodiscard]] double slowdown(double flops, double bytes,
                                unsigned tenants) const;

  /// The intensity below which a kernel sees *any* slowdown at `tenants`
  /// co-runners (kernels above it remain compute-bound throughout).
  [[nodiscard]] double immunity_intensity(unsigned tenants) const;

  /// Invert the model: given a measured slowdown of a known kernel,
  /// estimate how many equal co-runners are present (>= 1; rounds to the
  /// nearest integer tenant count in [1, max_tenants]).
  [[nodiscard]] unsigned estimate_tenants(double flops, double bytes,
                                          double observed_slowdown,
                                          unsigned max_tenants = 64) const;

  /// Composition adapter: the kernel's time under `tenants` co-runners
  /// ("interference.shared") — a leaf that prices multi-tenancy into a
  /// larger composition.
  [[nodiscard]] ModelEval eval(double flops, double bytes,
                               unsigned tenants) const;
};

}  // namespace pe::models
