// Queuing theory topic: M/M/1, M/M/c and M/G/1 closed forms validated
// against the discrete-event simulator across a utilization sweep.
//
// `--json <path>` writes a pe-bench-v1 BenchReport snapshot (model vs
// simulated response times per system) for bench/snapshots/. The closed
// forms are machine-independent, so the machine field records that
// rather than a calibration.
#include <cctype>
#include <cmath>
#include <cstdio>
#include <string>

#include "perfeng/bench/cli.hpp"
#include "perfeng/common/table.hpp"
#include "perfeng/measure/bench_json.hpp"
#include "perfeng/models/queuing.hpp"
#include "perfeng/sim/queue_sim.hpp"

int main(int argc, char** argv) {
  const pe::bench::Cli cli = pe::bench::parse_cli(argc, argv, pe::bench::kJson);

  std::puts("== Queuing theory: closed forms vs discrete-event simulation "
            "==\n");

  pe::BenchReport report("queuing_theory");
  report.set_machine("analytical", "machine-independent");
  report.set_context("jobs", 200000);
  report.set_context("warmup_jobs", 5000);

  pe::Table t({"system", "rho", "W model", "W sim", "Lq model", "Lq sim",
               "err %"});
  auto add_row = [&t, &report](const std::string& name, double rho,
                               const pe::models::QueueMetrics& model,
                               const pe::sim::QueueSimResult& sim) {
    const double err =
        std::abs(sim.mean_response - model.mean_response) /
        model.mean_response * 100.0;
    t.add_row({name, pe::format_fixed(rho, 2),
               pe::format_fixed(model.mean_response, 3),
               pe::format_fixed(sim.mean_response, 3),
               pe::format_fixed(model.mean_queue_length, 3),
               pe::format_fixed(sim.mean_queue_length, 3),
               pe::format_fixed(err, 1)});
    std::string prefix = name;
    for (char& c : prefix) {
      if (c == '/') c = '_';
      c = char(std::tolower(static_cast<unsigned char>(c)));
    }
    prefix += ".rho" + pe::format_fixed(rho * 100.0, 0);
    report.add_scalar(prefix + ".response_model", "s", model.mean_response);
    report.add_scalar(prefix + ".response_sim", "s", sim.mean_response);
    report.add_scalar(prefix + ".queue_len_model", "jobs",
                      model.mean_queue_length);
    report.add_scalar(prefix + ".queue_len_sim", "jobs",
                      sim.mean_queue_length);
    report.add_scalar(prefix + ".response_err_pct", "%", err);
  };

  for (double rho : {0.3, 0.5, 0.7, 0.9}) {
    pe::sim::QueueSimConfig cfg;
    cfg.arrival_rate = rho;
    cfg.service_rate = 1.0;
    cfg.servers = 1;
    cfg.jobs = 200000;
    cfg.warmup_jobs = 5000;
    add_row("M/M/1", rho, pe::models::mm1(rho, 1.0),
            pe::sim::simulate_mmc(cfg));
  }

  for (unsigned c : {2u, 4u}) {
    const double rho = 0.8;
    pe::sim::QueueSimConfig cfg;
    cfg.arrival_rate = rho * c;
    cfg.service_rate = 1.0;
    cfg.servers = c;
    cfg.jobs = 200000;
    cfg.warmup_jobs = 5000;
    add_row(c == 2 ? "M/M/2" : "M/M/4", rho,
            pe::models::mmc(rho * c, 1.0, c), pe::sim::simulate_mmc(cfg));
  }

  {
    // M/D/1: deterministic service, scv = 0.
    const double rho = 0.7;
    pe::sim::QueueSimConfig cfg;
    cfg.arrival_rate = rho;
    cfg.service_rate = 1.0;
    cfg.jobs = 200000;
    cfg.warmup_jobs = 5000;
    add_row("M/D/1", rho, pe::models::mg1(rho, 1.0, 0.0),
            pe::sim::simulate_mgc(cfg, [](pe::Rng&) { return 1.0; }));
  }

  std::fputs(t.render().c_str(), stdout);

  std::puts("\nLittle's law and the interactive response-time law:");
  const auto m = pe::models::mm1(0.7, 1.0);
  std::printf("  M/M/1 rho=0.7: L = lambda*W = %.3f (model L = %.3f)\n",
              pe::models::littles_law_occupancy(0.7, m.mean_response),
              m.mean_in_system);
  std::printf("  20 users, X=2 req/s, Z=5 s think time -> R = %.1f s\n",
              pe::models::interactive_response_time(20.0, 2.0, 5.0));
  std::puts(
      "\nExpected shape (paper): simulation matches the closed forms "
      "within sampling\nerror at every rho; waits explode as rho -> 1; "
      "M/D/1 waits are half of M/M/1.");

  if (!cli.json_path.empty()) {
    report.add_scalar("littles_law.occupancy", "jobs",
                      pe::models::littles_law_occupancy(0.7,
                                                        m.mean_response));
    report.add_scalar("interactive.response_s", "s",
                      pe::models::interactive_response_time(20.0, 2.0, 5.0));
    pe::bench::save_snapshot(report, cli.json_path);
  }
  return 0;
}
