#pragma once
// Seeded model-from-machine defect: this model can only be built from
// positional doubles, never from a machine description.
namespace pe::models {
struct PositionalModel {
  PositionalModel(double peak_flops, double bandwidth);
};
}  // namespace pe::models
