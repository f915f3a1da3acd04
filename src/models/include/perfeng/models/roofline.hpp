#pragma once

/// \file roofline.hpp
/// The Roofline model (Williams, Waterman, Patterson, CACM 2009) and its
/// cache-aware extension — the subject of Assignment 1.
///
/// A machine is two ceilings: peak compute (FLOP/s) and peak memory
/// bandwidth (byte/s); an application is a point on the x-axis (arithmetic
/// intensity, FLOP/byte). Attainable performance is
///     min(peak_flops, intensity * bandwidth),
/// and the model classifies a kernel as memory- or compute-bound by which
/// ceiling it hits. The cache-aware extension adds one ceiling per memory
/// level so a kernel's placement can be judged against the bandwidth of the
/// level that actually serves it.

#include <string>
#include <vector>

#include "perfeng/machine/machine.hpp"
#include "perfeng/models/model_eval.hpp"

namespace pe::models {

/// Which ceiling limits a kernel at a given intensity.
enum class Bound { kMemory, kCompute };

struct KernelCharacterization;

/// Machine side of the model: one compute roof + one or more bandwidth
/// ceilings (DRAM only for the classic model).
class RooflineModel {
 public:
  /// Classic roofline: one compute peak (FLOP/s), one bandwidth (B/s).
  RooflineModel(double peak_flops, double memory_bandwidth);

  /// Cache-aware roofline calibrated from a machine description: the
  /// single-core compute peak, the DRAM roof, and one bandwidth ceiling
  /// per cache level (labelled with the level names).
  [[nodiscard]] static RooflineModel from_machine(
      const machine::Machine& m);

  /// Add an extra bandwidth ceiling (e.g. L1/L2/L3) with a label.
  void add_bandwidth_ceiling(const std::string& label, double bandwidth);

  /// Add an extra compute ceiling (e.g. "no vectorization") below the peak.
  void add_compute_ceiling(const std::string& label, double flops);

  [[nodiscard]] double peak_flops() const { return peak_flops_; }
  [[nodiscard]] double memory_bandwidth() const { return memory_bandwidth_; }

  /// Ridge point: intensity where the two classic roofs intersect.
  [[nodiscard]] double ridge_intensity() const;

  /// Attainable FLOP/s at `intensity` under the classic two-roof model.
  [[nodiscard]] double attainable(double intensity) const;

  /// Attainable FLOP/s against a specific bandwidth ceiling.
  [[nodiscard]] double attainable_at_level(double intensity,
                                           const std::string& label) const;

  /// Predicted seconds of (flops, bytes) of work under the classic two
  /// roofs: max(flops / peak, bytes / bandwidth), i.e. compute and memory
  /// traffic fully overlapped. The one place the toolbox turns work into
  /// roofline time; throws pe::Error on negative work.
  [[nodiscard]] double seconds(double flops, double bytes) const;

  /// Which roof binds at `intensity`.
  [[nodiscard]] Bound bound_at(double intensity) const;

  /// Fraction of attainable performance achieved by a measured kernel.
  [[nodiscard]] double efficiency(double intensity,
                                  double measured_flops) const;

  /// Composition adapter: predicted seconds of one kernel invocation at
  /// the attainable ceiling, as "roofline.<kernel name>".
  [[nodiscard]] ModelEval eval(const KernelCharacterization& kernel) const;

  /// Sampled roofline curve for plotting: log-spaced intensities in
  /// [min_intensity, max_intensity] with attainable FLOP/s.
  struct CurvePoint {
    double intensity;
    double attainable_flops;
  };
  [[nodiscard]] std::vector<CurvePoint> curve(double min_intensity,
                                              double max_intensity,
                                              int points = 32) const;

  /// All ceilings, for report rendering.
  struct Ceiling {
    std::string label;
    bool is_bandwidth;
    double value;
  };
  [[nodiscard]] const std::vector<Ceiling>& ceilings() const {
    return ceilings_;
  }

 private:
  double peak_flops_;
  double memory_bandwidth_;
  std::vector<Ceiling> ceilings_;
};

/// Application side of the model: a kernel's operational counts.
struct KernelCharacterization {
  std::string name;
  double flops = 0.0;   ///< floating-point operations per invocation
  double bytes = 0.0;   ///< memory traffic per invocation
  [[nodiscard]] double intensity() const { return flops / bytes; }
};

/// Full placement of one measured kernel on a roofline.
struct RooflinePlacement {
  KernelCharacterization kernel;
  double measured_flops = 0.0;     ///< achieved FLOP/s
  double attainable_flops = 0.0;   ///< model ceiling at the kernel intensity
  Bound bound = Bound::kMemory;
  double efficiency = 0.0;         ///< measured / attainable
};

/// Place a kernel: given its characterization and measured runtime.
[[nodiscard]] RooflinePlacement place_kernel(
    const RooflineModel& machine, const KernelCharacterization& kernel,
    double measured_seconds);

}  // namespace pe::models
