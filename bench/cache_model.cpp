// Simulation topic: cache-simulator miss counts for the matmul loop
// orders and strided sweeps, against the analytical traffic model — the
// "simulation and simulators" lecture in executable form.
#include <algorithm>
#include <cstdio>

#include "perfeng/common/table.hpp"
#include "perfeng/common/units.hpp"
#include "perfeng/counters/attribution.hpp"
#include "perfeng/counters/simulated_counters.hpp"
#include "perfeng/kernels/traces.hpp"
#include "perfeng/kernels/transpose.hpp"
#include "perfeng/models/analytical.hpp"

using pe::kernels::TraceVariant;

namespace {

pe::sim::CacheHierarchy scaled_hierarchy() {
  // Scaled-down hierarchy (2 KiB L1 / 64 KiB L2) so modest trace sizes
  // exercise every level; the analytical model is fed the same geometry.
  std::vector<pe::sim::LevelSpec> specs;
  specs.push_back({pe::sim::CacheConfig{"L1", 2 * 1024, 64, 8}, 4.0});
  specs.push_back({pe::sim::CacheConfig{"L2", 64 * 1024, 64, 8}, 12.0});
  return pe::sim::CacheHierarchy(std::move(specs), 200.0);
}

}  // namespace

int main() {
  std::puts("== Cache simulation vs analytical traffic model ==\n");

  const std::size_t n = 48;
  pe::Table mm({"matmul variant", "accesses", "L1 miss %", "L2 miss %",
                "DRAM lines", "sim DRAM bytes", "model DRAM bytes"});

  // The model knows the scaled L2 capacity and line size.
  pe::machine::Machine scaled;
  scaled.name = "scaled-l2";
  scaled.peak_flops = 1e9;
  scaled.hierarchy = {{"L2", 5e10, 0.0, 64 * 1024, 64},
                      {"DRAM", 1e10, 0.0, 0, 64}};

  struct Row {
    TraceVariant trace;
    pe::models::MatmulVariant model;
    const char* name;
  };
  const Row rows[] = {
      {TraceVariant::kNaiveIjk, pe::models::MatmulVariant::kNaiveIjk,
       "ijk (naive)"},
      {TraceVariant::kInterchangedIkj,
       pe::models::MatmulVariant::kInterchangedIkj, "ikj (interchange)"},
      {TraceVariant::kTiled, pe::models::MatmulVariant::kTiled,
       "tiled(8)"},
  };
  for (const auto& row : rows) {
    auto h = scaled_hierarchy();
    pe::kernels::trace_matmul(h, n, row.trace, 8);
    const auto s = h.stats();
    const pe::models::MatmulModel model(n, row.model, scaled);
    mm.add_row(
        {row.name, std::to_string(s.total_accesses),
         pe::format_fixed(s.levels[0].miss_rate() * 100.0, 1),
         pe::format_fixed(s.levels[1].miss_rate() * 100.0, 1),
         std::to_string(s.dram_accesses),
         pe::format_bytes(s.dram_accesses * 64),
         pe::format_bytes(std::uint64_t(model.dram_bytes()))});
  }
  std::fputs(mm.render().c_str(), stdout);

  std::puts("\nStrided sweep: simulated misses track the stride:");
  pe::Table strided({"stride (doubles)", "L1 misses", "L1 miss %",
                     "expected miss %"});
  const std::size_t elements = 1 << 15;
  for (std::size_t stride : {1u, 2u, 4u, 8u, 16u}) {
    auto h = scaled_hierarchy();
    pe::kernels::trace_strided(h, elements, stride);
    const auto s = h.stats();
    const double expected = std::min(1.0, double(stride) / 8.0) * 100.0;
    strided.add_row({std::to_string(stride),
                     std::to_string(s.levels[0].misses()),
                     pe::format_fixed(s.levels[0].miss_rate() * 100.0, 1),
                     pe::format_fixed(expected, 1)});
  }
  std::fputs(strided.render().c_str(), stdout);

  std::puts("\nTranspose: the canonical blocking example (256x256):");
  pe::Table tr({"variant", "L1 miss %", "DRAM lines", "top cycle sink"});
  for (const auto& [name, block] :
       {std::pair<const char*, std::size_t>{"naive", 0}, {"blocked(8)", 8}}) {
    auto h = scaled_hierarchy();
    pe::kernels::trace_transpose(h, 256, 256, block);
    const auto counters = pe::counters::from_hierarchy(h.stats());
    const auto shares = pe::counters::attribute_cycles(counters);
    const auto top = std::max_element(
        shares.begin(), shares.end(),
        [](const auto& a, const auto& b) { return a.share < b.share; });
    tr.add_row({name,
                pe::format_fixed(h.stats().levels[0].miss_rate() * 100.0, 1),
                std::to_string(h.stats().dram_accesses),
                top->level + " (" +
                    pe::format_fixed(top->share * 100.0, 0) + "%)"});
  }
  std::fputs(tr.render().c_str(), stdout);
  std::puts(
      "\nExpected shape (paper): the naive loop order pays roughly a "
      "full line per B\nelement; interchange and tiling collapse DRAM "
      "traffic, exactly as the\nanalytical model predicts; strided miss "
      "rates follow stride/8 up to one miss\nper access; blocking turns "
      "the transpose's DRAM-dominated cycle profile into a\ncache-"
      "dominated one.");
  return 0;
}
