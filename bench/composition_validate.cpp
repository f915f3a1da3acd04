// Validation experiment for the compositional prediction system
// (perfeng/models/composition): pattern trees built from measured leaves
// must predict what the machine, the simulators, and the service layer
// actually do.
//
// Five scenarios:
//   1. map      — K tiled-matmul tiles over `parallel_for` (dynamic,
//                 grain 1), traced through `pe::observe`; predicted by
//                 map(leaf, K) under a scheduler-probe-calibrated context.
//   2. farm     — J matmul jobs through `ThreadPool::submit`; predicted
//                 by farm(leaf, J, pool width).
//   3. pipeline — a three-stage software pipeline (stage threads handing
//                 items downstream); predicted by pipeline(stages, items).
//   4. sim      — a distributed pipeline with alpha-beta hops checked
//                 against `sim::simulate_pipeline` (netsim), and a
//                 heterogeneous job map checked against a discrete-event
//                 list scheduler on `sim::EventSimulator` (DES).
//   5. service  — a submission campaign as a composition: the
//                 wait+service pipeline must reproduce the M/M/c closed
//                 form exactly, and a farm over calibrated submissions
//                 must predict a measured `pe::service` batch campaign.
//
// Measured scenarios assert a [0.5x, 2x] band — the models are structural
// estimates, not fits; the simulator and closed-form cross-checks are
// deterministic and must agree much tighter. `--check` exits non-zero on
// any violation (the CI gate); `--json <path>` writes the pe-bench-v1
// snapshot checked in at bench/snapshots/BENCH_composition.json, whose
// ratio scalars record the band actually observed.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "perfeng/bench/cli.hpp"
#include "perfeng/common/table.hpp"
#include "perfeng/common/units.hpp"
#include "perfeng/kernels/matmul.hpp"
#include "perfeng/machine/machine.hpp"
#include "perfeng/machine/registry.hpp"
#include "perfeng/measure/bench_json.hpp"
#include "perfeng/measure/timer.hpp"
#include "perfeng/microbench/scheduler.hpp"
#include "perfeng/models/composition/node.hpp"
#include "perfeng/models/composition/patterns.hpp"
#include "perfeng/models/queuing.hpp"
#include "perfeng/observe/tracer.hpp"
#include "perfeng/parallel/parallel_for.hpp"
#include "perfeng/parallel/thread_pool.hpp"
#include "perfeng/service/service.hpp"
#include "perfeng/sim/des.hpp"
#include "perfeng/sim/netsim.hpp"

namespace {

namespace comp = pe::models::composition;
using comp::Context;
using comp::NodePtr;
using pe::models::Evaluation;
using pe::models::ModelEval;

/// One validated scenario row: the prediction, the ground truth, and the
/// band the comparison must stay inside.
struct Scenario {
  std::string name;
  double predicted = 0.0;
  double measured = 0.0;
  double band = 2.0;  ///< measured/predicted must lie in [1/band, band]

  [[nodiscard]] double ratio() const { return measured / predicted; }
};

std::vector<Scenario> g_scenarios;

/// Median of a few repetitions — robust against one preempted run.
double median_seconds(int reps, const std::function<void()>& fn) {
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    pe::WallTimer timer;
    fn();
    samples.push_back(timer.elapsed());
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

/// A leaf from a measured serial time: composition validated against the
/// machine tests the *algebra*, not the kernel model underneath.
NodePtr measured_leaf(const std::string& name, double seconds,
                      double flops, double bytes) {
  Evaluation e;
  e.seconds = seconds;
  e.footprint.flops = flops;
  e.footprint.bytes = bytes;
  return comp::leaf(ModelEval::constant(name, e));
}

/// Cores the OS can actually run concurrently — predictions must not
/// assume more parallelism than the host has.
unsigned hardware_width() {
  return std::max(1u, std::thread::hardware_concurrency());
}

/// Scenario 1: map of matmul tiles over parallel_for, under a trace.
void validate_map(pe::ThreadPool& pool, Context ctx,
                  pe::bench::Gate& gate) {
  // parallel_for's bulk path executes chunks on the submitting thread
  // too, so the effective width is one more than the pool's workers.
  ctx.workers = std::min(static_cast<unsigned>(pool.size()) + 1,
                         hardware_width());
  const std::size_t n = 96;
  const std::size_t tiles = 8 * pool.size();
  const pe::kernels::Matrix a(n, n, 1.0 / 3.0), b(n, n, 2.0 / 7.0);
  std::vector<pe::kernels::Matrix> cs(tiles, pe::kernels::Matrix(n, n));

  pe::kernels::Matrix warm(n, n);
  const double tile_seconds = median_seconds(
      7, [&] { pe::kernels::matmul_tiled(a, b, warm); });
  const double nd = static_cast<double>(n);
  const NodePtr tree =
      comp::map(measured_leaf("kernel.matmul_tiled", tile_seconds,
                              2.0 * nd * nd * nd, 3.0 * nd * nd * 8.0),
                tiles);
  const comp::Prediction p = tree->predict(ctx);

  pe::observe::Tracer tracer;
  double measured = 0.0;
  {
    pe::observe::ScopedTrace scope(tracer);
    measured = median_seconds(5, [&] {
      pe::parallel_for(
          pool, 0, tiles,
          [&](std::size_t i) { pe::kernels::matmul_tiled(a, b, cs[i]); },
          pe::Schedule::kDynamic, 1);
    });
  }
  const pe::observe::Trace trace = tracer.take();
  gate.expect(trace.recorded > 0,
              "map runs produced no scheduler trace events");

  std::printf("map: %zu tiles of %zux%zu, leaf %s, %llu trace events\n",
              tiles, n, n, pe::format_time(tile_seconds).c_str(),
              static_cast<unsigned long long>(trace.recorded));
  g_scenarios.push_back({"map.matmul_tiles", p.seconds, measured});
}

/// Scenario 2: farm of matmul jobs through the submit/future path.
void validate_farm(pe::ThreadPool& pool, Context ctx) {
  // The submitting thread blocks on futures: only pool workers serve,
  // and no more of them than the host has cores.
  ctx.workers =
      std::min(static_cast<unsigned>(pool.size()), hardware_width());
  const std::size_t n = 96;
  const std::size_t jobs = 6 * pool.size();
  const pe::kernels::Matrix a(n, n, 1.0 / 3.0), b(n, n, 2.0 / 7.0);
  std::vector<pe::kernels::Matrix> cs(jobs, pe::kernels::Matrix(n, n));

  pe::kernels::Matrix warm(n, n);
  const double job_seconds = median_seconds(
      7, [&] { pe::kernels::matmul_tiled(a, b, warm); });
  const double nd = static_cast<double>(n);
  const NodePtr tree = comp::farm(
      measured_leaf("kernel.matmul_tiled", job_seconds, 2.0 * nd * nd * nd,
                    3.0 * nd * nd * 8.0),
      jobs, static_cast<unsigned>(pool.size()));
  const comp::Prediction p = tree->predict(ctx);

  const double measured = median_seconds(5, [&] {
    std::vector<std::future<void>> futures;
    futures.reserve(jobs);
    for (std::size_t i = 0; i < jobs; ++i)
      futures.push_back(pool.submit(
          [&, i] { pe::kernels::matmul_tiled(a, b, cs[i]); }));
    for (auto& f : futures) f.get();
  });

  std::printf("farm: %zu jobs over %zu replicas\n", jobs, pool.size());
  g_scenarios.push_back({"farm.matmul_jobs", p.seconds, measured});
}

/// Scenario 3: a real three-stage software pipeline — stage threads,
/// items handed downstream through acquire/release counters. The middle
/// stage is made the clear bottleneck so the drain rate, not scheduling
/// noise from the light stages, dominates the measurement.
void validate_pipeline(Context ctx) {
  constexpr std::size_t kStages = 3;
  constexpr std::size_t kItems = 24;
  const std::size_t sizes[kStages] = {48, 128, 48};
  ctx.workers = std::min(static_cast<unsigned>(kStages), hardware_width());

  std::vector<pe::kernels::Matrix> as, bs, cs;
  for (const std::size_t n : sizes) {
    as.emplace_back(n, n, 1.0 / 3.0);
    bs.emplace_back(n, n, 2.0 / 7.0);
    cs.emplace_back(n, n);
  }
  double stage_seconds[kStages];
  std::vector<NodePtr> stages;
  for (std::size_t s = 0; s < kStages; ++s) {
    stage_seconds[s] = median_seconds(
        7, [&] { pe::kernels::matmul_tiled(as[s], bs[s], cs[s]); });
    const double nd = static_cast<double>(sizes[s]);
    stages.push_back(measured_leaf(
        "stage" + std::to_string(s), stage_seconds[s], 2.0 * nd * nd * nd,
        3.0 * nd * nd * 8.0));
  }
  const comp::Prediction p =
      comp::pipeline(std::move(stages), kItems)->predict(ctx);

  const double measured = median_seconds(3, [&] {
    std::atomic<std::size_t> done[kStages];
    for (auto& d : done) d.store(0, std::memory_order_relaxed);
    std::vector<std::thread> threads;
    for (std::size_t s = 0; s < kStages; ++s) {
      threads.emplace_back([&, s] {
        for (std::size_t item = 0; item < kItems; ++item) {
          // Sleep, don't spin, in both waits: busy-waiting stages would
          // steal cycles from the bottleneck stage on small hosts. The
          // 20 us granularity re-syncs per item and does not accumulate.
          if (s > 0)
            while (done[s - 1].load(std::memory_order_acquire) <= item)
              std::this_thread::sleep_for(std::chrono::microseconds(20));
          // Bounded buffers: stay at most two items ahead of the next
          // stage, like a real pipeline — an unbounded producer would
          // thrash the caches of whoever holds the core.
          if (s + 1 < kStages)
            while (item > done[s + 1].load(std::memory_order_acquire) + 1)
              std::this_thread::sleep_for(std::chrono::microseconds(20));
          pe::kernels::matmul_tiled(as[s], bs[s], cs[s]);
          done[s].store(item + 1, std::memory_order_release);
        }
      });
    }
    for (auto& t : threads) t.join();
  });

  std::printf("pipeline: %zu items through stages {%s, %s, %s}\n", kItems,
              pe::format_time(stage_seconds[0]).c_str(),
              pe::format_time(stage_seconds[1]).c_str(),
              pe::format_time(stage_seconds[2]).c_str());
  g_scenarios.push_back({"pipeline.three_stage", p.seconds, measured});
}

/// Scenario 4a: distributed pipeline against the message-network
/// simulator. Transfers are kept below the bottleneck stage because the
/// logical-clock network does not serialize link bandwidth — both sides
/// then agree the compute bottleneck sets the drain rate.
void validate_netsim(const Context& base) {
  const std::vector<double> stage_seconds = {200e-6, 400e-6, 300e-6};
  const std::size_t item_bytes = 64 * 1024;
  const std::size_t items = 32;
  const pe::sim::NetworkCost cost{5e-6, 1e-9};

  pe::sim::MessageNetwork net(3, cost);
  const double simulated = pe::sim::simulate_pipeline(
      net, stage_seconds, item_bytes, items);

  Context ctx = base;
  ctx.workers = 3;  // each simulated rank is a real concurrent processor
  ctx.link_alpha = cost.alpha;
  ctx.link_beta = cost.beta;
  const double fb = static_cast<double>(item_bytes);
  const NodePtr tree = comp::pipeline(
      {measured_leaf("rank0", stage_seconds[0], 0.0, 0.0),
       comp::comm("hop01", fb),
       measured_leaf("rank1", stage_seconds[1], 0.0, 0.0),
       comp::comm("hop12", fb),
       measured_leaf("rank2", stage_seconds[2], 0.0, 0.0)},
      items);
  const comp::Prediction p = tree->predict(ctx);

  std::printf("netsim: %zu items over 3 ranks, %llu messages simulated\n",
              items,
              static_cast<unsigned long long>(net.messages_sent()));
  g_scenarios.push_back(
      {"sim.distributed_pipeline", p.seconds, simulated, 1.25});
}

/// Scenario 4b: heterogeneous job map against a DES list scheduler.
void validate_des(const Context& base) {
  const unsigned replicas = 4;
  const std::size_t jobs = 64;
  const auto job_seconds = [](std::size_t j) {
    return 300e-6 * (1.0 + 0.25 * static_cast<double>(j % 3));
  };

  pe::sim::EventSimulator des;
  std::size_t next = 0;
  double makespan = 0.0;
  std::function<void()> finish = [&] {
    makespan = des.now();
    if (next < jobs) des.schedule_in(job_seconds(next++), finish);
  };
  for (unsigned r = 0; r < replicas && next < jobs; ++r)
    des.schedule_in(job_seconds(next++), finish);
  des.run();

  std::vector<NodePtr> leaves;
  for (std::size_t j = 0; j < jobs; ++j)
    leaves.push_back(measured_leaf("job" + std::to_string(j),
                                   job_seconds(j), 0.0, 0.0));
  Context ctx = base;
  ctx.workers = replicas;
  const comp::Prediction p = comp::map(std::move(leaves))->predict(ctx);

  std::printf("des: %zu heterogeneous jobs over %u servers\n", jobs,
              replicas);
  g_scenarios.push_back({"sim.farm_list_schedule", p.seconds, makespan, 1.25});
}

/// Scenario 5a: the wait+service pipeline reproduces M/M/c exactly.
void validate_queuing_identity(pe::bench::Gate& gate) {
  const pe::models::ServiceModel svc{100.0, 4};
  const double lambda = 250.0;
  const NodePtr campaign = comp::pipeline(
      {comp::leaf(svc.eval_wait(lambda)), comp::leaf(svc.eval_service())});
  const double predicted =
      campaign->predict(Context{.workers = 1}).seconds;
  const double closed_form = svc.mmc(lambda).mean_response;
  std::printf("queuing: composed response %s vs M/M/c %s\n",
              pe::format_time(predicted).c_str(),
              pe::format_time(closed_form).c_str());
  gate.expect(std::abs(predicted - closed_form) <= 1e-12 * closed_form,
              "wait+service pipeline must equal the M/M/c closed form");
  g_scenarios.push_back(
      {"service.mmc_identity", predicted, closed_form, 1.001});
}

/// Scenario 5b: a measured batch submission campaign on pe::service,
/// predicted as a farm over one calibrated submission leaf.
void validate_service_campaign(pe::bench::Gate& gate) {
  const std::size_t workers = 2;
  const std::size_t jobs = 32;
  const double kernel_seconds = 300e-6;

  pe::service::ServiceConfig config;
  config.workers = workers;
  config.queue.capacity = jobs + 8;
  config.queue.tenant_capacity = jobs + 8;
  config.measurement.warmup_runs = 0;
  config.measurement.repetitions = 1;
  config.measurement.min_batch_seconds = 1e-5;
  config.calibration_hash = "composition-validate";

  const auto spin = [kernel_seconds] {
    const auto until = std::chrono::steady_clock::now() +
                       std::chrono::duration<double>(kernel_seconds);
    while (std::chrono::steady_clock::now() < until) {
    }
  };

  // Calibrate the per-submission service time on an idle service (the
  // spin kernel plus the runner's overhead), then predict the batch.
  double service_seconds = 0.0;
  {
    pe::service::BenchmarkService service(config);
    constexpr int kProbes = 10;
    for (int i = 0; i < kProbes; ++i) {
      pe::service::SubmissionRequest request;
      request.tenant = "calibrate";
      request.workload_key = "probe-" + std::to_string(i);
      request.kernel = spin;
      service_seconds +=
          service.submit(std::move(request)).outcome.get().run_seconds;
    }
    service_seconds /= kProbes;
  }

  const NodePtr campaign = comp::farm(
      measured_leaf("service.submission", service_seconds, 0.0, 0.0),
      jobs, static_cast<unsigned>(workers));
  const unsigned effective =
      std::min(static_cast<unsigned>(workers), hardware_width());
  const double predicted =
      campaign->predict(Context{.workers = effective}).seconds;

  pe::service::BenchmarkService service(config);
  pe::WallTimer timer;
  std::vector<std::shared_future<pe::service::Outcome>> outcomes;
  outcomes.reserve(jobs);
  for (std::size_t i = 0; i < jobs; ++i) {
    pe::service::SubmissionRequest request;
    request.tenant = "campaign";
    request.workload_key = "job-" + std::to_string(i);
    request.kernel = spin;
    outcomes.push_back(service.submit(std::move(request)).outcome);
  }
  std::size_t completed = 0;
  for (auto& o : outcomes)
    completed += o.get().state == pe::service::TerminalState::kCompleted;
  const double measured = timer.elapsed();

  gate.expect(completed == jobs, "batch campaign must complete every job");
  std::printf("service: %zu submissions over %zu workers, calibrated %s "
              "per submission\n",
              jobs, workers, pe::format_time(service_seconds).c_str());
  g_scenarios.push_back({"service.batch_campaign", predicted, measured});
}

}  // namespace

int main(int argc, char** argv) {
  const pe::bench::Cli cli =
      pe::bench::parse_cli(argc, argv, pe::bench::kCheck | pe::bench::kJson);

  std::puts("== Compositional model validation: trees vs machine, "
            "simulators, service ==\n");

  // Calibrate the context the way any user of the composition layer
  // would: a machine description plus the measured scheduler probe.
  pe::MeasurementConfig cfg;
  cfg.warmup_runs = 1;
  cfg.repetitions = 3;
  cfg.min_batch_seconds = 1e-3;
  const pe::BenchmarkRunner runner(cfg);
  const auto probe = pe::microbench::probe_scheduler(runner);
  pe::machine::Machine machine =
      pe::machine::resolve_or_preset("laptop-x86");
  pe::microbench::apply_scheduler_probe(machine, probe);

  pe::ThreadPool pool;
  Context ctx = Context::from_machine(machine);
  ctx.workers = static_cast<unsigned>(pool.size());
  std::printf("context: %u workers, dispatch %s/region, calibration %s\n\n",
              ctx.workers,
              pe::format_time(ctx.dispatch_seconds).c_str(),
              machine.calibration_hash().c_str());

  pe::bench::Gate gate(cli.check);
  validate_map(pool, ctx, gate);
  validate_farm(pool, ctx);
  validate_pipeline(ctx);
  validate_netsim(ctx);
  validate_des(ctx);
  validate_queuing_identity(gate);
  validate_service_campaign(gate);

  pe::Table table({"scenario", "predicted", "measured", "ratio", "band"});
  for (const auto& s : g_scenarios)
    table.add_row({s.name, pe::format_time(s.predicted),
                   pe::format_time(s.measured),
                   pe::format_fixed(s.ratio(), 3) + "x",
                   pe::format_fixed(s.band, 2) + "x"});
  std::printf("\n%s", table.render().c_str());

  for (const auto& [name, predicted, measured, band] : g_scenarios) {
    const double r = measured / predicted;
    gate.expect(predicted > 0.0 && r >= 1.0 / band && r <= band,
                "%s: measured/predicted = %.3f outside [%.3f, %.3f]",
                name.c_str(), r, 1.0 / band, band);
  }

  if (!cli.json_path.empty()) {
    pe::BenchReport report("composition_validate");
    report.set_machine(machine);
    report.set_context("pool_threads", static_cast<double>(pool.size()));
    report.set_context("scenarios",
                       static_cast<double>(g_scenarios.size()));
    for (const auto& s : g_scenarios) {
      report.add_scalar(s.name + ".predicted_s", "s", s.predicted);
      report.add_scalar(s.name + ".measured_s", "s", s.measured);
      report.add_scalar(s.name + ".ratio", "ratio", s.ratio());
    }
    pe::bench::save_snapshot(report, cli.json_path);
  }
  return gate.finish();
}
