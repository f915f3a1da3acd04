#include "perfeng/models/interference.hpp"

#include <cmath>

#include "perfeng/common/error.hpp"

namespace pe::models {

SharedSystemModel SharedSystemModel::from_machine(
    const machine::Machine& m) {
  return {RooflineModel::from_machine(m)};
}

double SharedSystemModel::tenant_bandwidth(unsigned tenants) const {
  PE_REQUIRE(tenants >= 1, "need at least one tenant");
  return roof.memory_bandwidth() / static_cast<double>(tenants);
}

double SharedSystemModel::kernel_time(double flops, double bytes,
                                      unsigned tenants) const {
  return RooflineModel(roof.peak_flops(), tenant_bandwidth(tenants))
      .seconds(flops, bytes);
}

double SharedSystemModel::slowdown(double flops, double bytes,
                                   unsigned tenants) const {
  const double alone = kernel_time(flops, bytes, 1);
  PE_REQUIRE(alone > 0.0, "kernel needs some work");
  return kernel_time(flops, bytes, tenants) / alone;
}

double SharedSystemModel::immunity_intensity(unsigned tenants) const {
  // Compute time >= shared memory time iff AI >= peak / (BW / tenants).
  return roof.peak_flops() / tenant_bandwidth(tenants);
}

unsigned SharedSystemModel::estimate_tenants(double flops, double bytes,
                                             double observed_slowdown,
                                             unsigned max_tenants) const {
  PE_REQUIRE(observed_slowdown >= 1.0, "slowdown must be >= 1");
  PE_REQUIRE(max_tenants >= 1, "need a positive tenant cap");
  unsigned best = 1;
  double best_err = std::abs(slowdown(flops, bytes, 1) - observed_slowdown);
  for (unsigned t = 2; t <= max_tenants; ++t) {
    const double err =
        std::abs(slowdown(flops, bytes, t) - observed_slowdown);
    if (err < best_err) {
      best_err = err;
      best = t;
    }
  }
  return best;
}

ModelEval SharedSystemModel::eval(double flops, double bytes,
                                  unsigned tenants) const {
  Evaluation e;
  e.seconds = kernel_time(flops, bytes, tenants);
  e.footprint.flops = flops;
  e.footprint.bytes = bytes;
  return ModelEval::constant("interference.shared", e);
}

}  // namespace pe::models
