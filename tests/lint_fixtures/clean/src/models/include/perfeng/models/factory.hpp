#pragma once
// Clean twin: a from_machine() factory next to the positional constructor.
namespace pe::machine {
struct Machine;
}  // namespace pe::machine
namespace pe::models {
struct FactoryModel {
  FactoryModel(double peak_flops, double bandwidth);
  static FactoryModel from_machine(const machine::Machine& m);
};
}  // namespace pe::models
