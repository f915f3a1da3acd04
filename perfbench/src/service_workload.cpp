// service-mixed: an open loop of Poisson arrivals at a fixed absolute rate
// into pe::service::BenchmarkService. Four tenants submit small serial
// kernels; 40% of the submissions repeat a recent key, so cache hits
// and coalesced joins (reads) sit beside fresh runs (writes), every 50th
// submission is a heavy matmul, and one tenant's submissions carry
// deadlines. The service runs bench_workers() workers; the generator (this
// thread) is the only other one.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common.hpp"
#include "perfeng/common/rng.hpp"
#include "perfeng/kernels/matmul.hpp"
#include "perfeng/kernels/sparse.hpp"
#include "perfeng/kernels/stencil.hpp"
#include "perfeng/machine/registry.hpp"
#include "perfeng/models/composition/node.hpp"
#include "perfeng/models/composition/patterns.hpp"
#include "perfeng/models/queuing.hpp"
#include "perfeng/observe/analysis.hpp"
#include "perfeng/observe/tracer.hpp"
#include "perfeng/service/service.hpp"
#include "workloads.hpp"

namespace pb {
namespace {

namespace comp = pe::models::composition;
namespace svc = pe::service;
using pe::kernels::Grid2D;
using pe::kernels::Matrix;

// The workload's constants. The rate is absolute and never recalibrated:
// a submission costs about 1.4 ms of worker time on average on the quiet
// 4-vCPU host in NOTES.md, so two workers serve about 1400/s there and
// about half that while the host is contended; 400/s keeps them under 60%
// busy in both.
constexpr double kRate = 400.0;              ///< submissions per second
constexpr std::size_t kTenants = 4;
// Hits and joins finish in microseconds, led runs in about 2 ms:
// with 40% repeats the median lies inside the led-run mode instead of on
// the gap between the two, where it would jump between them.
constexpr double kRepeatShare = 0.4;         ///< submissions reusing a key
constexpr std::size_t kRecentKeys = 8;       ///< keys a repeat draws from
constexpr double kDeadlineS = 0.05;          ///< the last tenant's budget
constexpr double kLatencyLimitMs = 50.0;     ///< goodput's limit
constexpr int kRepetitions = 3;              ///< timed calls per run
constexpr int kCallsPerRun = kRepetitions + 1;  ///< plus one calibration call
constexpr int kWarmupSubmissions = 60;
constexpr std::size_t kDirectReps = 50;
constexpr std::size_t kPreallocatedOutputs = 16;  ///< per kernel kind

// Serial kernels of the mix, each about 0.45 ms per call (long enough that
// waking a parked worker is a small share of a run), and a heavy matmul of
// about 4 ms per call.
constexpr std::size_t kMatmulN = 112;
constexpr std::size_t kSpmvRows = 27'000;
constexpr std::size_t kSpmvNnz = 135'000;
constexpr std::size_t kGrid = 640;
constexpr std::size_t kHeavyN = 240;
// Every kHeavyEvery-th submission is heavy: fresh, never repeated and never
// from the deadline tenant. They are the tail: a window of 1000
// submissions holds 20, and its p99 lies among them.
constexpr std::size_t kHeavyEvery = 50;
static_assert(kWindow % kHeavyEvery == 0,
              "every p99 window holds the same number of heavy submissions");

enum Kind : int { kMatmul, kSpmv, kStencil, kHeavy, kKinds };
constexpr const char* kKindName[kKinds] = {"matmul", "spmv", "stencil",
                                           "heavy"};

/// Read-only inputs and serial references shared by every run.
struct Kernels {
  Matrix ma, mb, mc_ref;
  Matrix ha, hb, hc_ref;  ///< the heavy matmul
  pe::kernels::CsrMatrix csr;
  std::vector<double> x, y_ref;
  Grid2D g_in, g_ref;
  double flops[kKinds] = {};
  double bytes[kKinds] = {};
};

Kernels make_kernels(std::uint64_t seed) {
  pe::Rng rng(seed ^ 0x5e41ce);
  Kernels k;
  k.ma = Matrix(kMatmulN, kMatmulN);
  k.mb = Matrix(kMatmulN, kMatmulN);
  k.mc_ref = Matrix(kMatmulN, kMatmulN);
  k.ma.randomize(rng);
  k.mb.randomize(rng);
  pe::kernels::matmul_interchanged(k.ma, k.mb, k.mc_ref);
  k.ha = Matrix(kHeavyN, kHeavyN);
  k.hb = Matrix(kHeavyN, kHeavyN);
  k.hc_ref = Matrix(kHeavyN, kHeavyN);
  k.ha.randomize(rng);
  k.hb.randomize(rng);
  pe::kernels::matmul_interchanged(k.ha, k.hb, k.hc_ref);
  k.csr = power_law_csr(kSpmvRows, kSpmvNnz, rng);
  k.x.resize(kSpmvRows);
  for (double& v : k.x) v = rng.next_range_double(-1.0, 1.0);
  k.y_ref.assign(kSpmvRows, 0.0);
  pe::kernels::spmv_csr(k.csr, k.x, k.y_ref);
  k.g_in = Grid2D(kGrid, kGrid);
  for (double& v : k.g_in.data()) v = rng.next_double();
  k.g_ref = Grid2D(kGrid, kGrid);
  pe::kernels::stencil_step_naive(k.g_in, k.g_ref);

  k.flops[kMatmul] = pe::kernels::matmul_flops(kMatmulN, kMatmulN, kMatmulN);
  k.bytes[kMatmul] = pe::kernels::matmul_min_bytes(kMatmulN, kMatmulN, kMatmulN);
  k.flops[kSpmv] = 2.0 * static_cast<double>(k.csr.nnz());
  k.bytes[kSpmv] = 12.0 * static_cast<double>(k.csr.nnz()) +
                   16.0 * static_cast<double>(kSpmvRows);
  k.flops[kStencil] = pe::kernels::stencil_flops(kGrid, kGrid);
  k.bytes[kStencil] = 16.0 * kGrid * kGrid;
  k.flops[kHeavy] = pe::kernels::matmul_flops(kHeavyN, kHeavyN, kHeavyN);
  k.bytes[kHeavy] = pe::kernels::matmul_min_bytes(kHeavyN, kHeavyN, kHeavyN);
  return k;
}

/// One submission's private output, written only by the run it leads.
struct Output {
  explicit Output(Kind kind) {
    if (kind == kMatmul) mc.emplace(kMatmulN, kMatmulN);
    if (kind == kSpmv) y.resize(kSpmvRows);
    if (kind == kStencil) g.emplace(kGrid, kGrid);
    if (kind == kHeavy) mc.emplace(kHeavyN, kHeavyN);
  }
  /// Overwrite the result with NaN before a run may write it: only what
  /// that run writes can then pass the check.
  void poison() {
    if (mc) pb::poison(mc->data(), mc->rows() * mc->cols());
    pb::poison(y);
    if (g) pb::poison(g->data());
  }

  std::atomic<int> calls{0};
  std::optional<Matrix> mc;
  std::vector<double> y;
  std::optional<Grid2D> g;
};

/// Recycled outputs: a submission takes one before submit() and returns it
/// once its run is checked (or at once when it did not lead a run), so the
/// benchmark's own memory does not grow with the number of submissions.
class Outputs {
 public:
  /// Allocate `n` of each kind up front (in set-up): peak memory then
  /// moves only when more than `n` runs of one kind await their check.
  explicit Outputs(std::size_t n) {
    for (int kind = 0; kind < kKinds; ++kind) {
      for (std::size_t i = 0; i < n; ++i) {
        free_[kind].push_back(std::make_shared<Output>(static_cast<Kind>(kind)));
      }
    }
  }

  /// A poisoned buffer with its call count reset.
  std::shared_ptr<Output> take(Kind kind) {
    std::vector<std::shared_ptr<Output>>& free = free_[kind];
    std::shared_ptr<Output> out;
    if (free.empty()) {
      out = std::make_shared<Output>(kind);
    } else {
      out = std::move(free.back());
      free.pop_back();
    }
    out->calls.store(0);
    out->poison();
    return out;
  }
  void give_back(Kind kind, std::shared_ptr<Output> out) {
    free_[kind].push_back(std::move(out));
  }

 private:
  std::vector<std::shared_ptr<Output>> free_[kKinds];
};

void run_kind(const Kernels& k, Kind kind, Output& out) {
  switch (kind) {
    case kMatmul: pe::kernels::matmul_interchanged(k.ma, k.mb, *out.mc); break;
    case kSpmv: pe::kernels::spmv_csr(k.csr, k.x, out.y); break;
    case kStencil: pe::kernels::stencil_step_naive(k.g_in, *out.g); break;
    case kHeavy: pe::kernels::matmul_interchanged(k.ha, k.hb, *out.mc); break;
    case kKinds: break;
  }
}

bool output_ok(const Kernels& k, Kind kind, const Output& out) {
  switch (kind) {
    case kMatmul: return *out.mc == k.mc_ref;
    case kSpmv: return out.y == k.y_ref;
    case kStencil: return out.g->data() == k.g_ref.data();
    case kHeavy: return *out.mc == k.hc_ref;
    case kKinds: break;
  }
  return false;
}

struct Arrival {
  double at = 0.0;  ///< seconds after the segment starts
  std::size_t tenant = 0;
  Kind kind = kMatmul;
  std::uint64_t key = 0;
};

/// Seed of the submission mix (tenants, kinds, repeated keys). It is a
/// constant of the workload, so every --seed submits the same sequence;
/// --seed draws only the arrival times.
constexpr std::uint64_t kMixSeed = 0x6d1c;

/// The whole arrival schedule of one segment, drawn before timing starts.
std::vector<Arrival> make_schedule(std::uint64_t seed, double seconds,
                                   std::uint64_t key_base) {
  pe::Rng arrivals(seed);
  pe::Rng mix(kMixSeed ^ key_base);
  std::vector<Arrival> out;
  std::vector<Arrival> recent;
  std::uint64_t next_key = key_base;
  for (double at = arrivals.next_exponential(kRate); at < seconds;
       at += arrivals.next_exponential(kRate)) {
    Arrival a;
    a.at = at;
    if (out.size() % kHeavyEvery == kHeavyEvery - 1) {
      a.tenant = mix.next_range(0, kTenants - 2);
      a.kind = kHeavy;
      a.key = next_key++;
      out.push_back(a);
      continue;
    }
    a.tenant = mix.next_range(0, kTenants - 1);
    if (!recent.empty() && mix.next_double() < kRepeatShare) {
      const Arrival& r = recent[mix.next_range(0, recent.size() - 1)];
      a.kind = r.kind;
      a.key = r.key;
    } else {
      a.kind = static_cast<Kind>(mix.next_range(0, kHeavy - 1));
      a.key = next_key++;
      if (recent.size() == kRecentKeys) recent.erase(recent.begin());
      recent.push_back(a);
    }
    out.push_back(a);
  }
  return out;
}

svc::SubmissionRequest make_request(const Kernels& k, const Arrival& a,
                                    std::shared_ptr<Output> out) {
  svc::SubmissionRequest req;
  req.tenant = "tenant-" + std::to_string(a.tenant);
  req.workload_key = std::string(kKindName[a.kind]) + "-" + std::to_string(a.key);
  req.kernel = [&k, kind = a.kind, out = std::move(out)] {
    out->calls.fetch_add(1, std::memory_order_relaxed);
    run_kind(k, kind, *out);
  };
  if (a.tenant == kTenants - 1) req.deadline_seconds = kDeadlineS;
  return req;
}

/// Everything recorded about one submission.
struct Sub {
  Arrival a;
  double due = 0.0, t_submit = 0.0, t_return = 0.0;
  double t_done = 0.0;  ///< when the generator first saw it finished
  svc::SubmitResult res;  ///< its future is released once settled
  std::shared_ptr<Output> out;  ///< set while a led run awaits its check
  std::size_t leader = 0;       ///< the run a hit or join shares
  bool bad = false;             ///< failed an output or call-count check
  // The terminal outcome's fields, copied when the future resolves.
  bool completed = false;
  bool deadline_shed = false;
  double queue_s = 0.0, run_s = 0.0;
};

/// Wait for the submission's terminal outcome, keep the fields the tally
/// needs and release the future's shared state.
void settle(Sub& s) {
  const svc::Outcome& o = s.res.outcome.get();
  s.completed = o.completed();
  s.deadline_shed = o.shed_reason == svc::ShedReason::kDeadlineExpired;
  s.queue_s = o.queue_seconds;
  s.run_s = o.run_seconds;
  s.res.outcome = {};
}

/// Checks of led runs, shared by all segments.
struct Checker {
  const Kernels& k;
  const Options& opt;
  Report& report;
  Outputs outputs{kPreallocatedOutputs};
  int calls = -1;  ///< kernel calls per run; must never vary
  bool timed = false;  ///< past set-up (the self-test corrupts only then)
  std::size_t checked = 0;

  void check(Sub& s) {
    const svc::Outcome& o = s.res.outcome.get();
    if (o.completed()) {
      const int c = s.out->calls.load();
      if (calls < 0) calls = c;
      if (c != calls || c != kCallsPerRun) {
        report.fail_check("kernel calls per submission varied: " +
                          std::to_string(c));
        s.bad = true;
      }
      if (o.measurement.batch_iterations != 1) {
        report.fail_check("batch_iterations != 1");
        s.bad = true;
      }
      // Self-test: corrupt one output in the benchmark's own check path.
      if (opt.corrupt && timed && ++checked == 3) {
        if (s.out->mc) (*s.out->mc)(0, 0) += 1.0;
        if (s.out->g) s.out->g->at(1, 1) += 1.0;
        if (!s.out->y.empty()) s.out->y[0] += 1.0;
      }
      if (!output_ok(k, s.a.kind, *s.out)) {
        report.fail_check(std::string(kKindName[s.a.kind]) +
                          " output != serial reference");
        s.bad = true;
      }
    }
    // A run that timed out may still be writing on an abandoned watchdog
    // thread: only completed runs' outputs are reused.
    if (o.completed()) outputs.give_back(s.a.kind, std::move(s.out));
    s.out.reset();
    settle(s);
  }
};

bool ready(const Sub& s) {
  return s.res.outcome.wait_for(std::chrono::seconds(0)) ==
         std::future_status::ready;
}

/// Drive one schedule through the service; returns every submission with
/// its future resolved and every led run checked.
std::vector<Sub> run_segment(svc::BenchmarkService& service, const Kernels& k,
                             const std::vector<Arrival>& schedule,
                             Checker& checker, std::size_t& max_threads) {
  std::vector<Sub> subs(schedule.size());
  std::unordered_map<std::uint64_t, std::size_t> leader_of;
  // Led runs and joins whose futures have not been seen ready yet. Each
  // poll looks at all of them, records when one is first seen ready, then
  // checks it (a led run) or settles it (a join).
  std::vector<std::size_t> pending;
  const auto poll = [&] {
    for (std::size_t j = 0; j < pending.size();) {
      Sub& s = subs[pending[j]];
      if (!ready(s)) {
        ++j;
        continue;
      }
      s.t_done = now_s();
      if (s.res.admitted) {
        checker.check(s);
      } else {
        settle(s);
      }
      pending[j] = pending.back();
      pending.pop_back();
    }
  };
  const double t0 = now_s() + 1e-3;
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    Sub& s = subs[i];
    s.a = schedule[i];
    s.due = t0 + s.a.at;
    std::shared_ptr<Output> out = checker.outputs.take(s.a.kind);
    svc::SubmissionRequest req = make_request(k, s.a, out);
    // Busy-wait, checking finished runs meanwhile: a sleeping generator
    // would add its own wake-up delay to every latency.
    do {
      poll();
    } while (now_s() < s.due);
    s.t_submit = now_s();
    s.res = service.submit(std::move(req));
    s.t_return = now_s();
    if (s.res.admitted) {
      s.out = std::move(out);
      leader_of[s.a.key] = i;
      pending.push_back(i);
    } else {
      checker.outputs.give_back(s.a.kind, std::move(out));
      if (s.res.coalesced || s.res.cache_hit) s.leader = leader_of.at(s.a.key);
      if (s.res.coalesced) {
        pending.push_back(i);  // resolves with the run it joined
      } else {
        s.t_done = s.t_return;  // a hit or a shed is already resolved
        settle(s);
      }
    }
    if (i % 256 == 0) max_threads = std::max(max_threads, program_threads());
  }
  while (!pending.empty()) poll();
  return subs;
}

/// Per-submission results of a segment.
struct Tally {
  std::vector<double> latency_ms;       ///< completed, from the due time
  std::vector<double> hit_ms, miss_ms;  ///< latency of hits / led runs
  std::vector<double> queue_ms, run_ms, submit_us, late_ms, overhead;
  std::size_t hits = 0, coalesced = 0, good = 0, failed = 0;
  std::size_t shed_queue_full = 0, shed_tenant = 0, shed_breaker = 0,
              shed_deadline = 0;
  double flops = 0.0;  ///< useful FLOPs of completed led runs
  std::size_t led[kKinds] = {};  ///< completed led runs per kind
};

Tally tally(const std::vector<Sub>& subs, const Kernels& k,
            const double* direct_ms) {
  Tally t;
  for (const Sub& s : subs) {
    t.submit_us.push_back((s.t_return - s.t_submit) * 1e6);
    t.late_ms.push_back((s.t_submit - s.due) * 1e3);
    // Latency runs from the due time to when the generator saw the
    // submission finish. A hit or a join shares its run's checks.
    bool ok = s.completed && !s.bad;
    if (s.res.cache_hit || s.res.coalesced) {
      ok = ok && !subs[s.leader].bad;
      ++(s.res.cache_hit ? t.hits : t.coalesced);
    }
    switch (s.res.shed_reason) {
      case svc::ShedReason::kQueueFull: ++t.shed_queue_full; break;
      case svc::ShedReason::kTenantOverShare: ++t.shed_tenant; break;
      case svc::ShedReason::kBreakerOpen: ++t.shed_breaker; break;
      default: break;
    }
    if (s.deadline_shed) ++t.shed_deadline;
    if (!ok) {
      ++t.failed;
      continue;
    }
    const double ms = (s.t_done - s.due) * 1e3;
    t.latency_ms.push_back(ms);
    if (ms <= kLatencyLimitMs) ++t.good;
    if (s.res.cache_hit) t.hit_ms.push_back(ms);
    if (s.res.admitted) {
      t.miss_ms.push_back(ms);
      t.queue_ms.push_back(s.queue_s * 1e3);
      t.run_ms.push_back(s.run_s * 1e3);
      t.flops += kCallsPerRun * k.flops[s.a.kind];
      ++t.led[s.a.kind];
      if (direct_ms) {
        t.overhead.push_back(s.run_s * 1e3 /
                             (kCallsPerRun * direct_ms[s.a.kind]));
      }
    }
  }
  return t;
}

svc::ServiceConfig service_config(std::size_t workers, std::string hash) {
  svc::ServiceConfig cfg;
  cfg.workers = workers;
  cfg.queue.capacity = 4096;
  cfg.queue.tenant_capacity = 1024;
  // Fixed work per submission: no warm-up, a batch of exactly one call
  // (max_batch_iterations caps the calibration), three timed calls.
  cfg.measurement.warmup_runs = 0;
  cfg.measurement.repetitions = kRepetitions;
  cfg.measurement.min_batch_seconds = 1e-9;
  cfg.measurement.max_batch_iterations = 1;
  cfg.calibration_hash = std::move(hash);
  return cfg;
}

void check_ledger(const svc::BenchmarkService& service, std::size_t expected,
                  Report& report) {
  const svc::ServiceStats st = service.stats();
  if (st.submitted != expected) report.fail_check("submissions lost");
  if (st.submitted !=
      st.admitted + st.coalesced + st.cache_hits + st.shed_at_admission()) {
    report.fail_check("ledger: submitted != admitted + coalesced + hits + shed");
  }
  if (st.admitted !=
      st.completed + st.failed + st.shed_deadline + st.shed_shutdown_queued) {
    report.fail_check("ledger: admitted != completed + failed + shed");
  }
}

/// Prediction of one led run's latency: M/M/c queueing wait at the
/// measured fresh-run rate, then the roofline service time of its calls,
/// averaged over the kinds in the proportions `led` counts.
double predict_ms(const pe::machine::Machine& m, const Kernels& k,
                  std::size_t workers, double fresh_rate,
                  const std::size_t (&led)[kKinds]) {
  double flops = 0.0, bytes = 0.0, runs = 0.0;
  for (int i = 0; i < kKinds; ++i) {
    const double n = static_cast<double>(led[i]);
    flops += kCallsPerRun * k.flops[i] * n;
    bytes += kCallsPerRun * k.bytes[i] * n;
    runs += n;
  }
  if (runs == 0.0) return 0.0;
  flops /= runs;
  bytes /= runs;
  pe::models::ServiceModel model =
      pe::models::ServiceModel::from_machine(m, flops, bytes);
  model.servers = static_cast<unsigned>(workers);
  if (fresh_rate >= model.saturation_rate()) return 0.0;
  const comp::NodePtr request = comp::pipeline(
      {comp::leaf(model.eval_wait(fresh_rate)), comp::leaf(model.eval_service())},
      1);
  return request->predict(comp::Context::from_machine(m).serial()).seconds * 1e3;
}

}  // namespace

int run_service_workload(const Options& opt) {
  const std::size_t workers = bench_workers();
  Report report;
  std::string hash = "unset";
  if (const auto m = pe::machine::machine_from_env()) {
    hash = m->calibration_hash();
  }
  std::optional<pe::machine::Machine> machine;
  if (opt.trace) {
    machine = traced_machine(workers);  // before the service's pool exists
    hash = machine->calibration_hash();
  }
  const Kernels k = make_kernels(opt.seed);

  // Arrival schedules of both segments are fixed before timing starts.
  const double seg_s = opt.trace ? opt.seconds / 2.0 : opt.seconds;
  const std::vector<Arrival> first = make_schedule(opt.seed, seg_s, 1u << 20);
  std::vector<Arrival> second;
  if (opt.trace) second = make_schedule(opt.seed + 1, seg_s, 1u << 30);

  svc::BenchmarkService service(service_config(workers, hash));
  Checker checker{k, opt, report};
  for (int i = 0; i < kWarmupSubmissions; ++i) {
    // Every kind and tenant, heavy runs from tenant 0 as in the schedule.
    const auto kind = static_cast<Kind>(i % kKinds);
    const Arrival a{0.0, kind == kHeavy ? 0 : static_cast<std::size_t>(i) % kTenants,
                    kind, static_cast<std::uint64_t>(i)};
    Sub s;
    s.a = a;
    s.out = checker.outputs.take(a.kind);
    s.res = service.submit(make_request(k, a, s.out));
    checker.check(s);
  }
  if (!report.correct) return 1;
  mark_ready();
  if (opt.setup_only) return 0;
  checker.timed = true;

  std::size_t max_threads = program_threads();
  std::vector<Sub> subs = run_segment(service, k, first, checker, max_threads);
  Tally t = tally(subs, k, nullptr);
  std::size_t total = subs.size();
  report.attempted = subs.size();
  report.failed = t.failed;

  if (opt.trace) {
    pe::observe::TracerConfig tcfg;
    tcfg.lanes = workers + 1;
    tcfg.ring_capacity = 1u << 18;
    pe::observe::Tracer tracer(tcfg);
    std::vector<Sub> traced;
    {
      pe::observe::ScopedTrace scope(tracer);
      traced = run_segment(service, k, second, checker, max_threads);
    }
    const pe::observe::Trace trace = tracer.take();
    total += traced.size();
    double direct_ms[kKinds];
    for (int i = 0; i < kKinds; ++i) {
      Output out(static_cast<Kind>(i));
      direct_ms[i] = median_ms(
          kDirectReps, [&] { run_kind(k, static_cast<Kind>(i), out); });
    }
    const Tally u = tally(traced, k, direct_ms);
    report.attempted += traced.size();
    report.failed += u.failed;
    const double n = static_cast<double>(traced.size());
    const std::size_t fresh = u.miss_ms.size();
    report.add("service.submit_us", median(u.submit_us), "us", traced.size());
    report.add("service.queue_p50_ms", median(u.queue_ms), "ms", fresh);
    report.add("service.queue_p99_ms", percentile(u.queue_ms, 0.99), "ms", fresh);
    report.add("service.run_ms", median(u.run_ms), "ms", fresh);
    report.add("service.submissions", n, "count");
    report.add("service.hit_ratio", static_cast<double>(u.hits) / n, "ratio",
                 traced.size());
    report.add("service.coalesced_ratio", static_cast<double>(u.coalesced) / n, "ratio",
                 traced.size());
    report.add("service.hit_latency_ms", median(u.hit_ms), "ms", u.hit_ms.size());
    report.add("service.miss_latency_ms", median(u.miss_ms), "ms", fresh);
    report.add("service.shed.queue_full", static_cast<double>(u.shed_queue_full), "count");
    report.add("service.shed.tenant_share", static_cast<double>(u.shed_tenant), "count");
    report.add("service.shed.breaker_open", static_cast<double>(u.shed_breaker), "count");
    report.add("service.shed.deadline", static_cast<double>(u.shed_deadline), "count");
    report.add("measure.kernel_calls_per_submission", checker.calls, "count", fresh);
    report.add("measure.overhead_ratio", median(u.overhead), "ratio", fresh);
    const pe::observe::ContentionReport cont =
        pe::observe::contention_profile(trace);
    const pe::observe::LatencyReport sched =
        pe::observe::scheduler_latency(trace);
    report.add("parallel.parks_per_request",
                 static_cast<double>(cont.total_parks) / n, "count", traced.size());
    report.add("parallel.submit_start_p99_us", sched.p99_ns * 1e-3, "us",
                 sched.samples_ns.size());
    const double pred = predict_ms(*machine, k, workers,
                                   static_cast<double>(fresh) / seg_s, u.led);
    report.add("models.pred_ms", pred, "ms");
    report.add("models.pred_over_measured", pred / median(u.miss_ms), "ratio", fresh);
    report.add("gen.late_p99_ms", percentile(u.late_ms, 0.99), "ms",
                 traced.size());
    report.add("trace.requests", n, "count");
    report.add("trace.untraced_p50_ms", median(t.latency_ms), "ms",
                 t.latency_ms.size());
    report.add("trace.traced_p50_ms", median(u.latency_ms), "ms",
                 u.latency_ms.size());
    report.add("trace.overhead_ms", median(u.latency_ms) - median(t.latency_ms), "ms",
                 u.latency_ms.size());
    report.add("trace.events_dropped", static_cast<double>(trace.dropped), "count");
  } else {
    const std::size_t n = t.latency_ms.size();
    report.add("latency_p50_ms", median(t.latency_ms), "ms", n);
    report.add("latency_p99_ms", windowed_p99(t.latency_ms), "ms", n);
    report.add("goodput_rps", static_cast<double>(t.good) / opt.seconds, "1/s",
               subs.size());
    report.add("gflops", t.flops / opt.seconds * 1e-9, "GFLOP/s",
               t.miss_ms.size());
    report.add("peak_rss_mib", peak_rss_mib(), "MiB");
  }
  check_ledger(service, kWarmupSubmissions + total, report);
  note_provenance(report, opt, workers, workers + 1, hash);
  report.note("program_threads_max", std::to_string(max_threads));
  report.note("rate_per_s", std::to_string(kRate));
  report.note("latency_limit_ms", std::to_string(kLatencyLimitMs));
  report.note("gen_late_p99_ms", std::to_string(percentile(t.late_ms, 0.99)));
  report.print();
  return report.correct ? 0 : 1;
}

}  // namespace pb
