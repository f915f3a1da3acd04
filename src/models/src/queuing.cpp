#include "perfeng/models/queuing.hpp"

#include <cmath>

#include "perfeng/common/error.hpp"
#include "perfeng/models/roofline.hpp"

namespace pe::models {

QueueMetrics mm1(double arrival_rate, double service_rate) {
  PE_REQUIRE(arrival_rate > 0.0 && service_rate > 0.0,
             "rates must be positive");
  PE_REQUIRE(arrival_rate < service_rate, "M/M/1 requires rho < 1");
  const double rho = arrival_rate / service_rate;
  QueueMetrics m;
  m.utilization = rho;
  m.mean_wait = rho / (service_rate - arrival_rate);
  m.mean_response = 1.0 / (service_rate - arrival_rate);
  m.mean_queue_length = arrival_rate * m.mean_wait;
  m.mean_in_system = arrival_rate * m.mean_response;
  return m;
}

double erlang_c(double arrival_rate, double service_rate, unsigned servers) {
  PE_REQUIRE(arrival_rate > 0.0 && service_rate > 0.0,
             "rates must be positive");
  PE_REQUIRE(servers >= 1, "need at least one server");
  const double c = static_cast<double>(servers);
  const double a = arrival_rate / service_rate;  // offered load (Erlangs)
  PE_REQUIRE(a < c, "M/M/c requires rho < 1");

  // Sum a^k/k! for k < c, computed incrementally to avoid overflow.
  double term = 1.0;  // a^0/0!
  double sum = 1.0;
  for (unsigned k = 1; k < servers; ++k) {
    term *= a / static_cast<double>(k);
    sum += term;
  }
  const double last = term * a / c;  // a^c/c!
  const double rho = a / c;
  const double pw = (last / (1.0 - rho)) / (sum + last / (1.0 - rho));
  return pw;
}

QueueMetrics mmc(double arrival_rate, double service_rate, unsigned servers) {
  const double c = static_cast<double>(servers);
  const double rho = arrival_rate / (c * service_rate);
  const double pw = erlang_c(arrival_rate, service_rate, servers);
  QueueMetrics m;
  m.utilization = rho;
  m.mean_wait = pw / (c * service_rate - arrival_rate);
  m.mean_response = m.mean_wait + 1.0 / service_rate;
  m.mean_queue_length = arrival_rate * m.mean_wait;
  m.mean_in_system = arrival_rate * m.mean_response;
  return m;
}

QueueMetrics mg1(double arrival_rate, double service_rate, double scv) {
  PE_REQUIRE(arrival_rate > 0.0 && service_rate > 0.0,
             "rates must be positive");
  PE_REQUIRE(arrival_rate < service_rate, "M/G/1 requires rho < 1");
  PE_REQUIRE(scv >= 0.0, "squared CV must be non-negative");
  const double rho = arrival_rate / service_rate;
  QueueMetrics m;
  m.utilization = rho;
  // Pollaczek–Khinchine mean wait.
  m.mean_wait = rho * (1.0 + scv) / (2.0 * (1.0 - rho)) / service_rate;
  m.mean_response = m.mean_wait + 1.0 / service_rate;
  m.mean_queue_length = arrival_rate * m.mean_wait;
  m.mean_in_system = arrival_rate * m.mean_response;
  return m;
}

double littles_law_occupancy(double throughput, double response_time) {
  PE_REQUIRE(throughput >= 0.0 && response_time >= 0.0,
             "negative inputs");
  return throughput * response_time;
}

double interactive_response_time(double users, double throughput,
                                 double think_time) {
  PE_REQUIRE(users > 0.0 && throughput > 0.0, "inputs must be positive");
  PE_REQUIRE(think_time >= 0.0, "negative think time");
  return users / throughput - think_time;
}

ServiceModel ServiceModel::from_machine(const machine::Machine& m,
                                        double flops_per_request,
                                        double bytes_per_request) {
  const double seconds = RooflineModel::from_machine(m).seconds(
      flops_per_request, bytes_per_request);
  PE_REQUIRE(seconds > 0.0, "request needs some work");
  return {1.0 / seconds, m.cores};
}

QueueMetrics ServiceModel::mm1(double arrival_rate) const {
  return pe::models::mm1(arrival_rate, service_rate);
}

QueueMetrics ServiceModel::mmc(double arrival_rate) const {
  return pe::models::mmc(arrival_rate, service_rate, servers);
}

double ServiceModel::saturation_rate() const {
  return service_rate * static_cast<double>(servers);
}

ModelEval ServiceModel::eval_wait(double arrival_rate) const {
  Evaluation e;
  e.seconds = mmc(arrival_rate).mean_wait;
  e.footprint.cores = servers;
  return ModelEval::constant("queuing.wait", e);
}

ModelEval ServiceModel::eval_service() const {
  PE_REQUIRE(service_rate > 0.0, "service rate must be positive");
  Evaluation e;
  e.seconds = 1.0 / service_rate;
  return ModelEval::constant("queuing.service", e);
}

}  // namespace pe::models
