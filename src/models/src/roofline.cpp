#include "perfeng/models/roofline.hpp"

#include <algorithm>
#include <cmath>

#include "perfeng/common/error.hpp"

namespace pe::models {

RooflineModel::RooflineModel(double peak_flops, double memory_bandwidth)
    : peak_flops_(peak_flops), memory_bandwidth_(memory_bandwidth) {
  PE_REQUIRE(peak_flops > 0.0, "peak FLOP/s must be positive");
  PE_REQUIRE(memory_bandwidth > 0.0, "bandwidth must be positive");
  ceilings_.push_back({"peak", false, peak_flops});
  ceilings_.push_back({"DRAM", true, memory_bandwidth});
}

RooflineModel RooflineModel::from_machine(const machine::Machine& m) {
  m.check();
  RooflineModel model(m.peak_flops, m.dram_bandwidth());
  for (std::size_t i = 0; i + 1 < m.hierarchy.size(); ++i) {
    const machine::MemoryLevel& level = m.hierarchy[i];
    // The classic model already owns the "DRAM" label.
    if (level.name != "DRAM")
      model.add_bandwidth_ceiling(level.name, level.bandwidth);
  }
  return model;
}

void RooflineModel::add_bandwidth_ceiling(const std::string& label,
                                          double bandwidth) {
  PE_REQUIRE(bandwidth > 0.0, "bandwidth must be positive");
  require_unique_name(ceilings_, label, "ceiling label",
                      [](const Ceiling& c) -> const std::string& {
                        return c.label;
                      });
  ceilings_.push_back({label, true, bandwidth});
}

void RooflineModel::add_compute_ceiling(const std::string& label,
                                        double flops) {
  PE_REQUIRE(flops > 0.0, "FLOP/s must be positive");
  PE_REQUIRE(flops <= peak_flops_, "compute ceiling above the peak");
  require_unique_name(ceilings_, label, "ceiling label",
                      [](const Ceiling& c) -> const std::string& {
                        return c.label;
                      });
  ceilings_.push_back({label, false, flops});
}

double RooflineModel::ridge_intensity() const {
  return peak_flops_ / memory_bandwidth_;
}

double RooflineModel::attainable(double intensity) const {
  PE_REQUIRE(intensity > 0.0, "intensity must be positive");
  return std::min(peak_flops_, intensity * memory_bandwidth_);
}

double RooflineModel::attainable_at_level(double intensity,
                                          const std::string& label) const {
  PE_REQUIRE(intensity > 0.0, "intensity must be positive");
  for (const auto& c : ceilings_) {
    if (c.label == label) {
      PE_REQUIRE(c.is_bandwidth, "ceiling is not a bandwidth ceiling");
      return std::min(peak_flops_, intensity * c.value);
    }
  }
  throw Error("roofline: no ceiling labeled '" + label + "'");
}

double RooflineModel::seconds(double flops, double bytes) const {
  PE_REQUIRE(flops >= 0.0 && bytes >= 0.0, "negative work");
  return std::max(flops / peak_flops_, bytes / memory_bandwidth_);
}

Bound RooflineModel::bound_at(double intensity) const {
  return intensity < ridge_intensity() ? Bound::kMemory : Bound::kCompute;
}

double RooflineModel::efficiency(double intensity,
                                 double measured_flops) const {
  PE_REQUIRE(measured_flops >= 0.0, "negative measured FLOP/s");
  return measured_flops / attainable(intensity);
}

std::vector<RooflineModel::CurvePoint> RooflineModel::curve(
    double min_intensity, double max_intensity, int points) const {
  PE_REQUIRE(min_intensity > 0.0, "intensity must be positive");
  PE_REQUIRE(max_intensity > min_intensity, "empty intensity range");
  PE_REQUIRE(points >= 2, "need at least two curve points");
  std::vector<CurvePoint> out;
  out.reserve(static_cast<std::size_t>(points));
  const double log_lo = std::log(min_intensity);
  const double log_hi = std::log(max_intensity);
  for (int i = 0; i < points; ++i) {
    const double frac =
        static_cast<double>(i) / static_cast<double>(points - 1);
    const double intensity = std::exp(log_lo + frac * (log_hi - log_lo));
    out.push_back({intensity, attainable(intensity)});
  }
  return out;
}

RooflinePlacement place_kernel(const RooflineModel& machine,
                               const KernelCharacterization& kernel,
                               double measured_seconds) {
  PE_REQUIRE(measured_seconds > 0.0, "measured time must be positive");
  PE_REQUIRE(kernel.flops > 0.0, "kernel needs a FLOP count");
  PE_REQUIRE(kernel.bytes > 0.0, "kernel needs a byte count");
  RooflinePlacement p;
  p.kernel = kernel;
  p.measured_flops = kernel.flops / measured_seconds;
  p.attainable_flops = machine.attainable(kernel.intensity());
  p.bound = machine.bound_at(kernel.intensity());
  p.efficiency = p.measured_flops / p.attainable_flops;
  return p;
}

ModelEval RooflineModel::eval(const KernelCharacterization& kernel) const {
  PE_REQUIRE(kernel.flops > 0.0, "kernel needs a FLOP count");
  PE_REQUIRE(kernel.bytes > 0.0, "kernel needs a byte count");
  Evaluation e;
  e.seconds = seconds(kernel.flops, kernel.bytes);
  e.footprint.flops = kernel.flops;
  e.footprint.bytes = kernel.bytes;
  return ModelEval::constant("roofline." + kernel.name, e);
}

}  // namespace pe::models
