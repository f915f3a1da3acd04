#include "perfeng/microbench/machine_probe.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <thread>

#include "perfeng/common/error.hpp"
#include "perfeng/common/table.hpp"
#include "perfeng/common/units.hpp"
#include "perfeng/machine/registry.hpp"
#include "perfeng/microbench/latency.hpp"
#include "perfeng/microbench/peak_flops.hpp"
#include "perfeng/microbench/stream.hpp"
#include "perfeng/simd/caps.hpp"

namespace pe::microbench {

std::string MachineCharacterization::summary() const {
  std::ostringstream ss;
  ss << "peak " << format_flops(peak_flops) << ", DRAM "
     << format_bandwidth(memory_bandwidth) << ", cache "
     << format_bandwidth(cache_bandwidth) << ", ridge "
     << format_sig(ridge_intensity(), 3) << " FLOP/B, mem latency "
     << format_time(memory_latency);
  return ss.str();
}

MachineCharacterization probe_machine(const BenchmarkRunner& runner,
                                      const ProbeConfig& config) {
  MachineCharacterization mc;
  mc.peak_flops = peak_flops(runner);
  mc.memory_bandwidth = sustainable_bandwidth(config.stream_elements, runner);
  mc.cache_bandwidth =
      sustainable_bandwidth(config.cache_stream_elements, runner);

  const auto sweep =
      latency_sweep(config.latency_min_bytes, config.latency_max_bytes,
                    runner);
  if (!sweep.empty()) {
    mc.cache_latency = sweep.front().seconds_per_load;
    mc.memory_latency = sweep.back().seconds_per_load;
    mc.cache_level_bytes = detect_cache_levels(sweep);
  }

  const simd::SimdCaps caps = simd::runtime_simd_caps();
  mc.simd_width_bits = caps.width_bits();
  mc.simd_fma = caps.fma && caps.width_bits() > 0;
  return mc;
}

machine::Machine probe_machine_description(const BenchmarkRunner& runner,
                                           const ProbeConfig& config,
                                           std::string name) {
  return machine::from_probe(probe_machine(runner, config),
                             std::move(name));
}

machine::Machine resolve_or_probe(const BenchmarkRunner& runner,
                                  const ProbeConfig& config) {
  if (auto m = machine::machine_from_env()) return *m;
  return probe_machine_description(runner, config);
}

}  // namespace pe::microbench

namespace pe::machine {

Machine from_probe(const pe::microbench::MachineCharacterization& probe,
                   std::string name) {
  PE_REQUIRE(probe.peak_flops > 0.0, "probe has no peak FLOP/s");
  PE_REQUIRE(probe.memory_bandwidth > 0.0, "probe has no DRAM bandwidth");
  Machine m;
  m.name = std::move(name);
  m.description = "calibrated by the microbenchmark suite on this host";
  m.source = "probe";
  m.peak_flops = probe.peak_flops;
  m.cores = std::max(1u, std::thread::hardware_concurrency());

  // The probe measures the two hierarchy endpoints (cache-resident and
  // DRAM-resident bandwidth/latency); intermediate detected levels get
  // geometrically interpolated values, clamped monotone so a noisy probe
  // still yields a machine that passes check().
  const double cache_bw =
      probe.cache_bandwidth > 0.0 ? probe.cache_bandwidth
                                  : probe.memory_bandwidth;
  const double cache_lat =
      probe.cache_latency > 0.0 ? probe.cache_latency : probe.memory_latency;
  std::vector<std::size_t> capacities = probe.cache_level_bytes;
  std::erase(capacities, std::size_t{0});
  std::sort(capacities.begin(), capacities.end());
  capacities.erase(std::unique(capacities.begin(), capacities.end()),
                   capacities.end());
  if (capacities.empty()) capacities.push_back(std::size_t{1} << 21);

  const auto levels = static_cast<double>(capacities.size());
  double prev_bw = cache_bw;
  double prev_lat = cache_lat;
  for (std::size_t i = 0; i < capacities.size(); ++i) {
    const double frac = static_cast<double>(i) / levels;
    double bw = cache_bw *
                std::pow(probe.memory_bandwidth / cache_bw, frac);
    double lat =
        cache_lat > 0.0 && probe.memory_latency > 0.0
            ? cache_lat * std::pow(probe.memory_latency / cache_lat, frac)
            : 0.0;
    bw = std::min(bw, prev_bw);
    lat = std::max(lat, prev_lat);
    m.hierarchy.push_back(
        {std::string("L").append(std::to_string(i + 1)), bw, lat,
         capacities[i], 64});
    prev_bw = bw;
    prev_lat = lat;
  }
  m.hierarchy.push_back({"DRAM", std::min(probe.memory_bandwidth, prev_bw),
                         std::max(probe.memory_latency, prev_lat), 0, 64});
  // Record the host's vector capability so calibration_hash pins down
  // which SIMD hardware the measured peak belongs to.
  m.simd_width_bits = probe.simd_width_bits;
  m.simd_fma = probe.simd_fma && probe.simd_width_bits > 0;
  m.check();
  return m;
}

}  // namespace pe::machine
