#pragma once
// Clean twin: the constructor takes the machine description itself.
namespace pe::machine {
struct Machine;
}  // namespace pe::machine
namespace pe::models {
struct DirectModel {
  explicit DirectModel(const machine::Machine& m);
};
}  // namespace pe::models
