#pragma once

/// \file patterns.hpp
/// Performance-pattern detection (Treibig, Hager, Wellein — Euro-Par 2012).
///
/// Assignment 4 teaches students to hypothesize a performance pattern and
/// confirm it with counter evidence. Each detector below encodes one such
/// hypothesis test: it consumes counter values (and, for the thread-level
/// patterns, per-worker timings or A/B measurements) and returns a report
/// with the verdict, a severity in [0,1], and the evidence that triggered
/// it — the structure students are asked to produce by hand.

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "perfeng/counters/counter_set.hpp"

namespace pe::counters {

/// The patterns the toolbox can diagnose.
enum class Pattern {
  kBadSpatialLocality,     ///< strided/column-major access
  kBandwidthSaturation,    ///< memory-bound streaming
  kBranchUnpredictability, ///< data-dependent branching
  kLoadImbalance,          ///< skewed work distribution
  kFalseSharing,           ///< coherence thrashing on shared lines
};

[[nodiscard]] std::string pattern_name(Pattern p);

/// One detector verdict.
struct PatternReport {
  Pattern pattern;
  bool detected = false;
  double severity = 0.0;  ///< 0 (absent) .. 1 (dominant)
  std::string evidence{};  ///< human-readable justification
};

/// Strided/column-walking access: L1 miss rate per memory access far above
/// the streaming expectation (element_size / line_size).
[[nodiscard]] PatternReport detect_bad_spatial_locality(
    const CounterSet& counters, std::size_t element_bytes = 8,
    std::size_t line_bytes = 64);

/// Bandwidth saturation: achieved bandwidth within `threshold` (default
/// 80%) of the machine's measured sustainable bandwidth.
[[nodiscard]] PatternReport detect_bandwidth_saturation(
    double achieved_bandwidth, double sustainable_bandwidth,
    double threshold = 0.8);

/// Branch unpredictability: misprediction rate above `threshold` (default
/// 10%; a well-predicted loop sits under 1%).
[[nodiscard]] PatternReport detect_branch_unpredictability(
    const CounterSet& counters, double threshold = 0.10);

/// Load imbalance: max/mean of per-worker busy times above `threshold`
/// (default 1.25).
[[nodiscard]] PatternReport detect_load_imbalance(
    std::span<const double> per_worker_seconds, double threshold = 1.25);

/// False sharing: the padded variant of an otherwise-identical kernel runs
/// at least `threshold` times faster (default 1.3).
[[nodiscard]] PatternReport detect_false_sharing(double shared_seconds,
                                                 double padded_seconds,
                                                 double threshold = 1.3);

/// Run every counter-based detector on one diagnostics bundle.
struct Diagnostics {
  CounterSet counters;
  std::vector<double> per_worker_seconds;  ///< empty = skip imbalance
  double achieved_bandwidth = 0.0;         ///< 0 = skip saturation
  double sustainable_bandwidth = 0.0;
  double shared_seconds = 0.0;             ///< 0 = skip false sharing
  double padded_seconds = 0.0;
};
[[nodiscard]] std::vector<PatternReport> detect_all(const Diagnostics& d);

}  // namespace pe::counters
