// Chaos tests for the benchmark submission service: the terminal-state
// invariant (every submission reaches exactly one of Completed, Failed,
// Shed) must hold under injected faults at every service fault site,
// overload, expired deadlines, and real multi-worker concurrency — all at
// once. These run under ASan/UBSan and TSan in CI (label: chaos).
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "perfeng/measure/timer.hpp"
#include "perfeng/resilience/fault_injection.hpp"
#include "perfeng/service/service.hpp"

namespace {

using pe::service::BenchmarkService;
using pe::service::ServiceConfig;
using pe::service::ServiceStats;
using pe::service::ShedReason;
using pe::service::SubmissionRequest;
using pe::service::SubmitResult;
using pe::service::TerminalState;

std::function<void()> tiny_kernel() {
  return [] {
    double x = 1.0;
    for (int i = 0; i < 64; ++i) x += 1.0 / (1.0 + x);
    pe::do_not_optimize(x);
  };
}

SubmissionRequest request_of(const std::string& tenant,
                             const std::string& key,
                             std::function<void()> kernel = tiny_kernel(),
                             double deadline = 0.0) {
  SubmissionRequest request;
  request.tenant = tenant;
  request.workload_key = key;
  request.kernel = std::move(kernel);
  request.deadline_seconds = deadline;
  return request;
}

TEST(ServiceChaos, TerminalStateInvariantUnderCombinedChaos) {
  // Faults at every service site plus kernel faults, a deliberately tiny
  // queue, impossible deadlines on a third of the work, four tenants, and
  // real worker concurrency. The test does not care *which* terminal
  // state each submission reaches — only that each reaches exactly one,
  // and that the stats ledger partitions the campaign exactly.
  pe::resilience::FaultPlan plan;
  plan.seed = 99;
  plan.faults.push_back(
      {.site = std::string(pe::fault_sites::kServiceAdmit),
       .probability = 0.15});
  plan.faults.push_back(
      {.site = std::string(pe::fault_sites::kServiceDequeue),
       .probability = 0.15});
  plan.faults.push_back(
      {.site = std::string(pe::fault_sites::kServiceCache),
       .probability = 0.25});
  // kernel.call is visited thousands of times per run (batch calibration),
  // so an unbounded per-call probability would fail *every* run; a bounded
  // fire budget injects a handful of kernel faults and lets the rest of
  // the campaign breathe.
  plan.faults.push_back(
      {.site = std::string(pe::fault_sites::kKernelCall),
       .probability = 0.02,
       .max_fires = 5});
  pe::resilience::ScopedFaultInjection scope(std::move(plan));

  ServiceConfig config;
  config.workers = 4;
  config.queue.capacity = 8;        // overload is part of the campaign
  config.queue.tenant_capacity = 4;
  config.breaker.failure_threshold = 3;
  config.breaker.cooldown.initial_backoff_seconds = 1e-3;
  constexpr int kSubmissions = 200;
  std::vector<SubmitResult> results;
  ServiceStats stats;
  {
    BenchmarkService service(config);
    for (int i = 0; i < kSubmissions; ++i) {
      // A small key space exercises coalescing and the done cache; the
      // impossible deadline on every third submission exercises
      // expired-in-queue shedding.
      const double deadline = i % 3 == 0 ? 1e-9 : 0.0;
      results.push_back(service.submit(
          request_of(std::string("tenant").append(std::to_string(i % 4)),
                     std::string("w").append(std::to_string(i % 25)),
                     tiny_kernel(), deadline)));
    }
    // Recovery phase: the flood above may burn every executing run on
    // the bounded kernel-fault budget and trip every flooded tenant's
    // breaker. A service that survived the storm must complete ordinary
    // work again. Let the backlog drain first (instant-shed probes would
    // otherwise race the queue and see it full for the whole phase), then
    // submit sequentially, each probe under a fresh tenant so no single
    // breaker's cooldown serializes the phase, until a completion lands.
    while (service.queue_depth() > 0) std::this_thread::yield();
    for (int i = 0; i < 50 && service.stats().completed == 0; ++i) {
      results.push_back(service.submit(
          request_of("fresh" + std::to_string(i),
                     "recovery" + std::to_string(i))));
      (void)results.back().outcome.get();
    }
    // Every future is valid and resolves — no lost submissions.
    for (const SubmitResult& r : results) {
      ASSERT_TRUE(r.outcome.valid());
      (void)r.outcome.get();
    }
    stats = service.stats();
  }  // service destructor: joins drains; must not hang or break promises

  EXPECT_EQ(stats.submitted, results.size());
  // Ledger identity 1: admission decisions partition the submissions.
  EXPECT_EQ(stats.submitted, stats.admitted + stats.coalesced +
                                 stats.cache_hits +
                                 stats.shed_at_admission());
  // Ledger identity 2: every admitted submission retired exactly once.
  EXPECT_EQ(stats.admitted, stats.completed + stats.failed +
                                stats.shed_deadline +
                                stats.shed_shutdown_queued);
  // Ledger identity 3: terminal outcomes cover the whole campaign.
  EXPECT_EQ(stats.terminal(), results.size());
  // The cache never causes extra runs.
  EXPECT_LE(stats.workloads_run, stats.admitted);
  // The campaign actually exercised what it claims to exercise.
  EXPECT_GT(stats.shed_deadline + stats.shed_at_admission(), 0u);
  EXPECT_GT(stats.completed, 0u);
}

TEST(ServiceChaos, SingleFlightCoalescesConcurrentIdenticalSubmissions) {
  ServiceConfig config;
  config.workers = 1;
  BenchmarkService service(config);

  // The leader blocks inside its kernel, pinning the key in flight.
  auto release = std::make_shared<std::atomic<bool>>(false);
  auto runs = std::make_shared<std::atomic<int>>(0);
  const auto blocking = [release, runs] {
    runs->fetch_add(1);
    while (!release->load()) std::this_thread::yield();
  };
  const SubmitResult leader =
      service.submit(request_of("alice", "shared", blocking));
  ASSERT_TRUE(leader.admitted);

  // Identical concurrent submissions (any tenant) join the leader's run
  // instead of queueing duplicates.
  std::vector<SubmitResult> joiners;
  for (int i = 0; i < 5; ++i) {
    joiners.push_back(service.submit(
        request_of("tenant" + std::to_string(i), "shared", blocking)));
  }
  for (const SubmitResult& r : joiners) {
    EXPECT_TRUE(r.coalesced);
    EXPECT_FALSE(r.admitted);
  }
  release->store(true);

  EXPECT_EQ(leader.outcome.get().state, TerminalState::kCompleted);
  for (const SubmitResult& r : joiners) {
    EXPECT_EQ(r.outcome.get().state, TerminalState::kCompleted);
  }
  // One run served all six submissions; a seventh is a pure cache hit.
  EXPECT_EQ(service.stats().workloads_run, 1u);
  EXPECT_EQ(service.cache_stats().joins, 5u);
  const SubmitResult late =
      service.submit(request_of("late", "shared", blocking));
  EXPECT_TRUE(late.cache_hit);
  EXPECT_EQ(late.outcome.get().state, TerminalState::kCompleted);
  EXPECT_EQ(service.stats().workloads_run, 1u);
}

TEST(ServiceChaos, CacheFaultDegradesToUncachedRuns) {
  // With the cache faulting on every lookup, identical submissions just
  // run twice — slower, never wrong, never lost.
  pe::resilience::FaultPlan plan;
  plan.faults.push_back(
      {.site = std::string(pe::fault_sites::kServiceCache),
       .probability = 1.0});
  pe::resilience::ScopedFaultInjection scope(std::move(plan));
  ServiceConfig config;
  config.workers = 1;
  {
    BenchmarkService service(config);
    const SubmitResult a = service.submit(request_of("t", "same"));
    const SubmitResult b = service.submit(request_of("t", "same"));
    EXPECT_EQ(a.outcome.get().state, TerminalState::kCompleted);
    EXPECT_EQ(b.outcome.get().state, TerminalState::kCompleted);
    EXPECT_FALSE(b.cache_hit);
    EXPECT_FALSE(b.coalesced);
    EXPECT_EQ(service.stats().workloads_run, 2u);
    EXPECT_EQ(service.cache_stats().bypasses, 2u);
  }
}

TEST(ServiceChaos, AdmissionFaultIsExplicitBackpressure) {
  pe::resilience::FaultPlan plan;
  plan.faults.push_back(
      {.site = std::string(pe::fault_sites::kServiceAdmit),
       .probability = 1.0});
  pe::resilience::ScopedFaultInjection scope(std::move(plan));
  ServiceConfig config;
  config.workers = 1;
  {
    BenchmarkService service(config);
    const SubmitResult r = service.submit(request_of("t", "k"));
    EXPECT_FALSE(r.admitted);
    EXPECT_EQ(r.shed_reason, ShedReason::kAdmissionFault);
    const auto outcome = r.outcome.get();
    EXPECT_EQ(outcome.state, TerminalState::kShed);
    EXPECT_EQ(outcome.shed_reason, ShedReason::kAdmissionFault);
    EXPECT_EQ(service.stats().shed_admission_fault, 1u);
    EXPECT_EQ(service.stats().workloads_run, 0u);
  }
}

TEST(ServiceChaos, DequeueFaultFailsTheSubmissionStructurally) {
  pe::resilience::FaultPlan plan;
  plan.faults.push_back(
      {.site = std::string(pe::fault_sites::kServiceDequeue),
       .probability = 1.0});
  pe::resilience::ScopedFaultInjection scope(std::move(plan));
  ServiceConfig config;
  config.workers = 1;
  {
    BenchmarkService service(config);
    const SubmitResult r = service.submit(request_of("t", "k"));
    EXPECT_TRUE(r.admitted);
    const auto outcome = r.outcome.get();
    EXPECT_EQ(outcome.state, TerminalState::kFailed);
    EXPECT_EQ(outcome.failure_kind, pe::resilience::FailureKind::kFault);
    EXPECT_NE(outcome.error.find("service.dequeue"), std::string::npos);
    EXPECT_EQ(service.stats().failed, 1u);
    EXPECT_EQ(service.stats().workloads_run, 0u);
  }
}

TEST(ServiceChaos, DestructionMidCampaignLosesNothing) {
  // Stop-the-world while work is queued and running: in-flight runs
  // finish, queued work sheds as kShutdown, nothing hangs or breaks.
  ServiceConfig config;
  config.workers = 1;
  auto release = std::make_shared<std::atomic<bool>>(false);
  const auto blocking = [release] {
    while (!release->load()) std::this_thread::yield();
  };
  std::vector<SubmitResult> results;
  {
    BenchmarkService service(config);
    results.push_back(service.submit(request_of("t", "block", blocking)));
    while (service.stats().workloads_run == 0) std::this_thread::yield();
    for (int i = 0; i < 4; ++i) {
      results.push_back(
          service.submit(request_of(
              "t", std::string("q").append(std::to_string(i)))));
    }
    service.stop();
    release->store(true);
  }  // destructor joins everything
  ASSERT_EQ(results.size(), 5u);
  EXPECT_EQ(results[0].outcome.get().state, TerminalState::kCompleted);
  for (std::size_t i = 1; i < results.size(); ++i) {
    const auto outcome = results[i].outcome.get();
    EXPECT_EQ(outcome.state, TerminalState::kShed);
    EXPECT_EQ(outcome.shed_reason, ShedReason::kShutdown);
  }
}

}  // namespace
