#include "perfeng/models/offload.hpp"

#include <cmath>
#include <limits>

#include "perfeng/common/error.hpp"

namespace pe::models {

namespace {

RooflineModel whole_machine_roof(const machine::Machine& m) {
  m.check();
  return {m.total_peak_flops(), m.dram_bandwidth()};
}

}  // namespace

OffloadModel OffloadModel::from_machine(const machine::Machine& host,
                                        const machine::Machine& device) {
  PE_REQUIRE(device.has_link(),
             "device machine carries no transfer-link coefficients");
  return {whole_machine_roof(host), whole_machine_roof(device),
          {device.link_alpha, device.link_beta}};
}

double TransferLink::transfer_time(double bytes) const {
  PE_REQUIRE(bytes >= 0.0, "negative transfer size");
  PE_REQUIRE(alpha >= 0.0 && beta >= 0.0, "link costs must be non-negative");
  if (bytes == 0.0) return 0.0;
  return alpha + beta * bytes;
}

double OffloadModel::host_time(double flops, double bytes) const {
  return host.seconds(flops, bytes);
}

double OffloadModel::offload_time(double flops, double input_bytes,
                                  double output_bytes) const {
  // The transferred payload is also what the device kernel reads/writes.
  const double device_bytes = input_bytes + output_bytes;
  return link.transfer_time(input_bytes) +
         device.seconds(flops, device_bytes) +
         link.transfer_time(output_bytes);
}

double OffloadModel::offload_speedup(double flops, double input_bytes,
                                     double output_bytes) const {
  const double host_t = host_time(flops, input_bytes + output_bytes);
  const double dev_t = offload_time(flops, input_bytes, output_bytes);
  PE_REQUIRE(dev_t > 0.0, "degenerate offload time");
  return host_t / dev_t;
}

double OffloadModel::amortization_factor(double flops, double bytes,
                                         double input_bytes,
                                         double output_bytes) const {
  PE_REQUIRE(flops > 0.0, "work must be positive");
  const double host_unit = host.seconds(flops, bytes);
  const double device_unit = device.seconds(flops, bytes);
  if (device_unit >= host_unit)
    return std::numeric_limits<double>::infinity();
  const double transfers = link.transfer_time(input_bytes) +
                           link.transfer_time(output_bytes);
  // Solve w * host_unit = transfers + w * device_unit.
  return transfers / (host_unit - device_unit);
}

std::size_t offload_breakeven_matmul(const OffloadModel& m, std::size_t lo,
                                     std::size_t hi) {
  PE_REQUIRE(lo >= 1 && lo <= hi, "bad search range");
  for (std::size_t n = lo; n <= hi; ++n) {
    const double nd = static_cast<double>(n);
    const double flops = 2.0 * nd * nd * nd;
    const double in_bytes = 2.0 * nd * nd * sizeof(double);   // A and B
    const double out_bytes = nd * nd * sizeof(double);        // C
    if (m.offload_speedup(flops, in_bytes, out_bytes) > 1.0) return n;
  }
  return 0;
}

ModelEval OffloadModel::eval_host(double flops, double bytes) const {
  Evaluation e;
  e.seconds = host_time(flops, bytes);
  e.footprint.flops = flops;
  e.footprint.bytes = bytes;
  return ModelEval::constant("offload.host", e);
}

ModelEval OffloadModel::eval_offload(double flops, double input_bytes,
                                     double output_bytes) const {
  Evaluation e;
  e.seconds = offload_time(flops, input_bytes, output_bytes);
  e.footprint.flops = flops;
  e.footprint.bytes = input_bytes + output_bytes;
  return ModelEval::constant("offload.device", e);
}

}  // namespace pe::models
