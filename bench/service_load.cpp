// Benchmark-as-a-service load experiment: drive `pe::service` with a
// seeded synthetic multi-tenant arrival stream and validate its behaviour
// against the course's own queuing theory (perfeng/models) and
// discrete-event simulator (perfeng/sim).
//
// Three campaigns:
//   1. underload (rho ~ 0.5): nothing sheds; the measured queue wait is
//      compared against the M/M/c closed form and `simulate_mmc`. The
//      models bound the *queuing* wait; the measured wait also carries
//      the pool's dispatch latency (park/unpark, visible as the traced
//      sched p99), so agreement within a small factor — not equality —
//      is the claim, and the trace explains the gap.
//   2. overload (rho ~ 2, tiny queue): the service answers with explicit
//      backpressure; the accepted throughput saturates at c*mu, so the
//      shed fraction converges on 1 - 1/rho. `models::mmc` refuses
//      rho >= 1 (steady state does not exist), which is exactly why the
//      bound is computed by hand here.
//   3. chaos: injected faults at every service fault site plus a bounded
//      kernel-fault budget, impossible deadlines on a third of the work,
//      and a small key space (coalescing + cache under fire).
//
// Every campaign runs under a `pe::observe` scheduler trace and asserts
// the service's terminal-state ledger: every submission resolves, and
//   submitted == admitted + coalesced + cache_hits + shed_at_admission
//   admitted  == completed + failed + shed_deadline + shed_shutdown
//
// `--check` is the CI gate: smaller campaigns, non-zero exit if any
// ledger identity breaks, any future is lost, underload sheds, overload
// fails to shed near the predicted fraction, or chaos never completes
// anything.
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "perfeng/bench/cli.hpp"
#include "perfeng/common/rng.hpp"
#include "perfeng/common/table.hpp"
#include "perfeng/common/units.hpp"
#include "perfeng/models/queuing.hpp"
#include "perfeng/observe/analysis.hpp"
#include "perfeng/observe/tracer.hpp"
#include "perfeng/resilience/fault_injection.hpp"
#include "perfeng/service/service.hpp"
#include "perfeng/sim/queue_sim.hpp"

namespace {

using pe::service::BenchmarkService;
using pe::service::ServiceConfig;
using pe::service::ServiceStats;
using pe::service::SubmissionRequest;
using pe::service::SubmitResult;
using pe::service::TerminalState;

/// A kernel that busy-spins for a fixed wall time: the service time is a
/// controlled variable, not a property of some workload.
std::function<void()> spin_kernel(double seconds) {
  return [seconds] {
    const auto until = std::chrono::steady_clock::now() +
                       std::chrono::duration<double>(seconds);
    while (std::chrono::steady_clock::now() < until) {
    }
  };
}

/// Service tuning shared by every campaign: one repetition, no warmup, a
/// tiny batch floor — the run cost is dominated by the spin kernel, so
/// the per-submission service time is predictable.
ServiceConfig base_config(std::size_t workers, std::size_t queue_capacity) {
  ServiceConfig config;
  config.workers = workers;
  config.queue.capacity = queue_capacity;
  config.queue.tenant_capacity = queue_capacity;  // fairness not under test
  config.measurement.warmup_runs = 0;
  config.measurement.repetitions = 1;
  config.measurement.min_batch_seconds = 1e-5;
  config.calibration_hash = "service-load";
  return config;
}

/// Everything one campaign produced, plus the arrival rate it actually
/// achieved (sleep overshoot makes the offered rate lower than asked;
/// models are fed the measured rate, not the intended one).
struct CampaignResult {
  ServiceStats stats;
  std::size_t resolved = 0;       ///< futures that reached a terminal state
  std::size_t outstanding = 0;    ///< futures that did not (must be 0)
  double lambda_effective = 0.0;  ///< measured arrivals/s
  double mean_wait = 0.0;         ///< mean queue_seconds over completed
  double mean_response = 0.0;     ///< mean queue+run over completed
  double shed_fraction = 0.0;     ///< shed_total / submitted
  pe::observe::TraceSummary sched;  ///< scheduler-trace aggregate
};

struct CampaignConfig {
  ServiceConfig service;
  double arrival_rate = 0.0;    ///< intended lambda (jobs/s)
  std::size_t jobs = 0;
  std::uint64_t seed = 1;
  double kernel_seconds = 0.0;
  std::size_t tenants = 4;
  std::size_t key_space = 0;    ///< 0 = every job a distinct key
  double deadline_seconds = 0.0;
  int deadline_every = 0;       ///< 0 = never; n = every nth job
};

CampaignResult run_campaign(const CampaignConfig& cc) {
  pe::observe::Tracer tracer;
  CampaignResult out;
  std::vector<SubmitResult> results;
  results.reserve(cc.jobs);
  {
    pe::observe::ScopedTrace scope(tracer);
    BenchmarkService service(cc.service);
    pe::Rng rng(cc.seed);
    const auto start = std::chrono::steady_clock::now();
    auto next_arrival = start;
    for (std::size_t i = 0; i < cc.jobs; ++i) {
      // Open-loop Poisson arrivals on an absolute schedule: a slow
      // submission does not delay later arrivals.
      next_arrival += std::chrono::duration_cast<
          std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(
              rng.next_exponential(cc.arrival_rate)));
      std::this_thread::sleep_until(next_arrival);
      SubmissionRequest request;
      request.tenant = "tenant" + std::to_string(i % cc.tenants);
      request.workload_key =
          "job-" + std::to_string(cc.key_space == 0 ? i : i % cc.key_space);
      request.kernel = spin_kernel(cc.kernel_seconds);
      if (cc.deadline_every > 0 &&
          i % static_cast<std::size_t>(cc.deadline_every) == 0) {
        request.deadline_seconds = cc.deadline_seconds;
      }
      results.push_back(service.submit(std::move(request)));
    }
    const std::chrono::duration<double> span =
        std::chrono::steady_clock::now() - start;
    out.lambda_effective =
        span.count() > 0.0 ? static_cast<double>(cc.jobs) / span.count()
                           : 0.0;

    // Drain: every future must resolve to exactly one terminal state.
    double wait_sum = 0.0, response_sum = 0.0;
    std::size_t completed = 0;
    for (const SubmitResult& r : results) {
      if (!r.outcome.valid()) {
        ++out.outstanding;
        continue;
      }
      const pe::service::Outcome outcome = r.outcome.get();
      ++out.resolved;
      if (outcome.state == TerminalState::kCompleted && r.admitted) {
        wait_sum += outcome.queue_seconds;
        response_sum += outcome.queue_seconds + outcome.run_seconds;
        ++completed;
      }
    }
    if (completed > 0) {
      out.mean_wait = wait_sum / static_cast<double>(completed);
      out.mean_response = response_sum / static_cast<double>(completed);
    }
    out.stats = service.stats();
  }  // trace scope closes with the pool quiesced
  out.shed_fraction =
      out.stats.submitted > 0
          ? static_cast<double>(out.stats.shed_total()) /
                static_cast<double>(out.stats.submitted)
          : 0.0;
  out.sched = pe::observe::summarize(tracer.take());
  return out;
}

/// Assert the terminal-state ledger of one campaign.
void check_ledger(pe::bench::Gate& gate, const char* name,
                  const CampaignResult& r) {
  const ServiceStats& s = r.stats;
  gate.expect(r.outstanding == 0, "%s: outstanding futures", name);
  gate.expect(s.terminal() == s.submitted,
              "%s: terminal() covers every submission", name);
  gate.expect(s.submitted == s.admitted + s.coalesced + s.cache_hits +
                                 s.shed_at_admission(),
              "%s: admission ledger identity", name);
  gate.expect(s.admitted == s.completed + s.failed + s.shed_deadline +
                                s.shed_shutdown_queued,
              "%s: retirement ledger identity", name);
  gate.expect(s.workloads_run <= s.admitted,
              "%s: cache never causes extra runs", name);
}

void print_stats_row(pe::Table& t, const char* name,
                     const CampaignResult& r) {
  const ServiceStats& s = r.stats;
  t.add_row({name, std::to_string(s.submitted), std::to_string(s.completed),
             std::to_string(s.failed), std::to_string(s.shed_total()),
             std::to_string(s.coalesced + s.cache_hits),
             pe::format_time(r.mean_wait), pe::format_time(r.mean_response),
             pe::format_time(r.sched.latency_p99_ns * 1e-9)});
}

/// Mean service time of one submission, measured on an idle service: the
/// spin kernel plus the runner's calibration overhead. Feeding models a
/// measured mu (instead of the nominal spin time) is the difference
/// between validating the service and validating the sleep loop.
double calibrate_service_seconds(double kernel_seconds) {
  ServiceConfig config = base_config(1, 64);
  BenchmarkService service(config);
  constexpr int kProbes = 20;
  double total = 0.0;
  for (int i = 0; i < kProbes; ++i) {
    SubmissionRequest request;
    request.tenant = "calibrate";
    request.workload_key = "probe-" + std::to_string(i);
    request.kernel = spin_kernel(kernel_seconds);
    total += service.submit(std::move(request)).outcome.get().run_seconds;
  }
  return total / kProbes;
}

}  // namespace

int main(int argc, char** argv) {
  const pe::bench::Cli cli =
      pe::bench::parse_cli(argc, argv, pe::bench::kCheck);

  std::puts("== pe::service under synthetic multi-tenant load ==\n");

  const double kernel_seconds = 300e-6;
  const std::size_t workers = 2;
  const double service_seconds = calibrate_service_seconds(kernel_seconds);
  const double mu = 1.0 / service_seconds;
  std::printf("calibration: service time %s per submission (mu = %.0f/s "
              "per worker, %zu workers)\n\n",
              pe::format_time(service_seconds).c_str(), mu, workers);

  const std::size_t jobs = cli.check ? 200 : 400;
  pe::Table table({"campaign", "submitted", "completed", "failed", "shed",
                   "coalesced+hits", "mean wait", "mean response",
                   "sched p99"});

  pe::bench::Gate gate(cli.check);

  // ---- 1. underload: rho ~ 0.5, queue never fills ----
  CampaignConfig under;
  under.service = base_config(workers, 1024);
  under.arrival_rate = 0.5 * static_cast<double>(workers) * mu;
  under.jobs = jobs;
  under.seed = 42;
  under.kernel_seconds = kernel_seconds;
  const CampaignResult u = run_campaign(under);
  print_stats_row(table, "underload", u);
  check_ledger(gate, "underload", u);
  gate.expect(u.stats.shed_total() == 0, "underload: nothing sheds");

  const double rho_eff =
      u.lambda_effective / (static_cast<double>(workers) * mu);
  std::printf("underload: offered %.0f/s, achieved %.0f/s (rho_eff %.2f)\n",
              under.arrival_rate, u.lambda_effective, rho_eff);
  if (rho_eff < 0.95) {
    // Closed form and simulator at the *measured* arrival rate.
    const pe::models::QueueMetrics model = pe::models::mmc(
        u.lambda_effective, mu, static_cast<unsigned>(workers));
    pe::sim::QueueSimConfig sim_config;
    sim_config.arrival_rate = u.lambda_effective;
    sim_config.service_rate = mu;
    sim_config.servers = static_cast<unsigned>(workers);
    sim_config.jobs = 200000;
    sim_config.seed = 7;
    const pe::sim::QueueSimResult sim = pe::sim::simulate_mmc(sim_config);
    pe::Table waits({"source", "mean wait Wq", "mean response W"});
    waits.add_row({"measured (service)", pe::format_time(u.mean_wait),
                   pe::format_time(u.mean_response)});
    waits.add_row({"M/M/c closed form", pe::format_time(model.mean_wait),
                   pe::format_time(model.mean_response)});
    waits.add_row({"M/M/c simulation", pe::format_time(sim.mean_wait),
                   pe::format_time(sim.mean_response)});
    std::fputs(waits.render().c_str(), stdout);
    std::puts("(the measured wait adds the pool's dispatch latency on top "
              "of pure queuing delay; the traced sched p99 quantifies it)\n");
    // Generous CI bound: the measured wait must be in the model's orbit,
    // not equal to it — scheduler jitter and near-deterministic service
    // both push it around.
    gate.expect(u.mean_wait <= model.mean_wait * 20.0 + 10e-3,
                "underload: measured wait within 20x of M/M/c prediction");
    gate.expect(u.mean_response >= service_seconds * 0.5,
                "underload: response at least one service time");
  } else {
    std::puts("underload: achieved rate too close to saturation; "
              "skipping model comparison");
  }

  // ---- 2. overload: rho ~ 2, tiny queue, explicit backpressure ----
  CampaignConfig over;
  over.service = base_config(workers, 8);
  over.arrival_rate = 2.0 * static_cast<double>(workers) * mu;
  over.jobs = jobs;
  over.seed = 43;
  over.kernel_seconds = kernel_seconds;
  const CampaignResult o = run_campaign(over);
  print_stats_row(table, "overload", o);
  check_ledger(gate, "overload", o);

  const double rho_over =
      o.lambda_effective / (static_cast<double>(workers) * mu);
  // Steady state does not exist at rho >= 1 (models::mmc refuses it); the
  // asymptotic accepted throughput is c*mu, so shed -> 1 - 1/rho.
  const double shed_bound = rho_over > 1.0 ? 1.0 - 1.0 / rho_over : 0.0;
  std::printf("overload: achieved %.0f/s (rho_eff %.2f); model shed "
              "fraction 1 - 1/rho = %.2f, measured %.2f\n\n",
              o.lambda_effective, rho_over, shed_bound, o.shed_fraction);
  gate.expect(o.stats.shed_total() > 0, "overload: backpressure engaged");
  // 1 - 1/rho is the fluid *lower* bound (accepted throughput <= c*mu);
  // Poisson burstiness against a tiny queue always sheds somewhat more,
  // so the tolerance is asymmetric.
  gate.expect(o.shed_fraction >= shed_bound - 0.10 &&
                  o.shed_fraction <= shed_bound + 0.35,
              "overload: shed fraction within [-0.10, +0.35] of 1 - 1/rho");

  // ---- 3. chaos: faults at every service site, deadlines, small keys ----
  {
    pe::resilience::FaultPlan plan;
    plan.seed = 2026;
    plan.faults.push_back(
        {.site = std::string(pe::fault_sites::kServiceAdmit),
         .probability = 0.10});
    plan.faults.push_back(
        {.site = std::string(pe::fault_sites::kServiceDequeue),
         .probability = 0.10});
    plan.faults.push_back(
        {.site = std::string(pe::fault_sites::kServiceCache),
         .probability = 0.25});
    // kernel.call is visited per batch iteration, so bound kernel chaos
    // by fire budget rather than probability (see tests/test_service_chaos).
    plan.faults.push_back(
        {.site = std::string(pe::fault_sites::kKernelCall),
         .probability = 0.02,
         .max_fires = 5});
    pe::resilience::ScopedFaultInjection scope(std::move(plan));

    CampaignConfig chaos;
    chaos.service = base_config(workers, 16);
    chaos.service.breaker.failure_threshold = 8;
    chaos.arrival_rate = 1.2 * static_cast<double>(workers) * mu;
    chaos.jobs = jobs;
    chaos.seed = 44;
    chaos.kernel_seconds = kernel_seconds;
    chaos.key_space = 25;          // coalescing + cache under fire
    chaos.deadline_seconds = 1e-9; // expires in any queue
    chaos.deadline_every = 3;
    const CampaignResult c = run_campaign(chaos);
    print_stats_row(table, "chaos", c);
    check_ledger(gate, "chaos", c);
    gate.expect(c.stats.completed > 0, "chaos: service still completes work");
    gate.expect(c.stats.shed_total() > 0, "chaos: faults and deadlines shed");
  }

  std::fputs(table.render().c_str(), stdout);
  return gate.finish();
}
