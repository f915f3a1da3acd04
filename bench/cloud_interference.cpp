// Shared-systems extension (the paper's future-work topic 3): predicted
// multi-tenant slowdown by kernel intensity, the immunity frontier, and
// model inversion as a noisy-neighbour detector.
#include <cstdio>

#include "perfeng/common/table.hpp"
#include "perfeng/common/units.hpp"
#include "perfeng/machine/registry.hpp"
#include "perfeng/models/interference.hpp"

using pe::models::SharedSystemModel;

int main() {
  std::puts("== Cloud / shared-system interference model ==\n");
  const pe::machine::Machine desc =
      pe::machine::resolve_or_preset("cloud-smt");
  const SharedSystemModel node = SharedSystemModel::from_machine(desc);
  std::printf("machine: %s  [calibration %s; override with %s]\n",
              desc.name.c_str(), desc.calibration_hash().c_str(),
              pe::machine::kMachineEnv);
  std::printf("node: %s per tenant, %s shared; ridge alone at %.2f "
              "FLOP/B\n\n",
              pe::format_flops(node.roof.peak_flops()).c_str(),
              pe::format_bandwidth(node.roof.memory_bandwidth()).c_str(),
              node.immunity_intensity(1));

  // Representative kernels across the intensity axis.
  struct Kernel {
    const char* name;
    double flops;
    double bytes;
  };
  const Kernel kernels[] = {
      {"STREAM triad (AI 0.08)", 2e8, 2.4e9},
      {"SpMV (AI ~0.17)", 2e8, 1.2e9},
      {"stencil (AI ~0.3)", 3e8, 1e9},
      {"FFT (AI ~1.7)", 1.7e9, 1e9},
      {"matmul n=2048 (AI ~170)", 1.7e10, 1e8},
  };

  pe::Table t({"kernel", "x1", "x2 tenants", "x4", "x8", "x16"});
  for (const Kernel& k : kernels) {
    t.add_row({k.name, "1.00",
               pe::format_fixed(node.slowdown(k.flops, k.bytes, 2), 2),
               pe::format_fixed(node.slowdown(k.flops, k.bytes, 4), 2),
               pe::format_fixed(node.slowdown(k.flops, k.bytes, 8), 2),
               pe::format_fixed(node.slowdown(k.flops, k.bytes, 16), 2)});
  }
  std::puts("Predicted slowdown by co-runner count:");
  std::fputs(t.render().c_str(), stdout);

  pe::Table frontier({"tenants", "immunity intensity (FLOP/B)"});
  for (unsigned tenants : {1u, 2u, 4u, 8u, 16u, 32u}) {
    frontier.add_row({std::to_string(tenants),
                      pe::format_fixed(node.immunity_intensity(tenants),
                                       2)});
  }
  std::puts("\nImmunity frontier (kernels above it never notice "
            "neighbours):");
  std::fputs(frontier.render().c_str(), stdout);

  std::puts("\nNoisy-neighbour detection: observed STREAM slowdowns "
            "inverted to tenant counts:");
  for (double observed : {1.0, 2.1, 3.9, 7.8}) {
    std::printf("  slowdown %.1fx -> ~%u tenant(s)\n", observed,
                node.estimate_tenants(2e8, 2.4e9, observed));
  }
  std::puts(
      "\nExpected shape: memory-bound kernels degrade linearly with "
      "tenants while\ncompute-bound ones are immune — why cloud noisy "
      "neighbours hurt STREAM-like\nworkloads first, and why a streaming "
      "canary detects them.");
  return 0;
}
