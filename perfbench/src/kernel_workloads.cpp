// kernels-coarse: one caller in a closed loop, each request one "solver
// step" (packed matmul, balanced CSR SpMV, parallel SELL SpMV, parallel
// stencil sweeps) on a pool of bench_workers() workers plus the
// participating caller; every 50th request is a long step of four. The
// step spends its time in the SIMD kernels; bulk-loop dispatch is a small
// share.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "perfeng/common/rng.hpp"
#include "perfeng/kernels/matmul.hpp"
#include "perfeng/kernels/sparse.hpp"
#include "perfeng/kernels/stencil.hpp"
#include "perfeng/models/composition/node.hpp"
#include "perfeng/models/composition/patterns.hpp"
#include "perfeng/machine/registry.hpp"
#include "perfeng/models/roofline.hpp"
#include "perfeng/observe/analysis.hpp"
#include "perfeng/observe/tracer.hpp"
#include "perfeng/parallel/parallel_for.hpp"
#include "perfeng/parallel/thread_pool.hpp"
#include "workloads.hpp"

namespace pb {
namespace {

namespace comp = pe::models::composition;
using pe::kernels::CsrMatrix;
using pe::kernels::Grid2D;
using pe::kernels::Matrix;
using pe::kernels::SellMatrix;

struct Sizes {
  std::size_t matmul_n;
  std::size_t spmv_rows;  ///< square power-law matrix
  std::size_t spmv_nnz;   ///< target before duplicates are merged
  std::vector<std::size_t> grids;
  int sweeps;               ///< per grid and step
  int warmup_steps;         ///< fixed warm-up, part of set-up
  std::size_t probe_reps;   ///< fixed repetitions of each traced probe
};

// About 57 MB in all (7 MB of CSR, 9 MB of SELL, four 1024^2 grids, four
// 384^2 matrices): inside the 105 MiB L3 the notes' host shares with its
// neighbours. Every region takes 1-3 ms, so dispatch is a small share, and
// so are the pool's wake-ups, whose cost swings with the host's load. The
// structure of the matrix is fixed; --seed draws only values.
const Sizes kCoarse{384, 120'000, 600'000, {1024}, 2, 30, 100};

/// Every kLongEvery-th request is a long step: the step's kernels run
/// kLongSteps times back to back. Long steps are the tail: a window of
/// kWindow requests holds 20 of them, so its p99 is about their median,
/// and a burst of host contention has to delay more than half of them to
/// move it (see NOTES.md).
constexpr std::size_t kLongEvery = 50;
constexpr int kLongSteps = 4;

/// Steps in request `i` (0-based).
[[nodiscard]] int steps_of(std::size_t i) {
  return i % kLongEvery == kLongEvery - 1 ? kLongSteps : 1;
}

/// Mean steps per request.
constexpr double kStepsPerRequest =
    static_cast<double>(kLongEvery - 1 + kLongSteps) / kLongEvery;

/// Requests of a traced run's traced segment: a fixed count whose events
/// fit the tracer's rings (none dropped).
constexpr std::size_t kTracedRequests = 400;

/// Requests per goodput window: short enough that a burst of host
/// contention moves only the windows it covers.
constexpr std::size_t kRateWindow = 100;
static_assert(kWindow % kLongEvery == 0 && kRateWindow % kLongEvery == 0,
              "every window holds the same number of long steps");

/// Tolerance of packed matmul against the serial reference: entries are
/// sums of n products of values in [-1, 1), so reassociation error stays
/// below 4 n^2 eps ~ 1.3e-10 at n = 384.
constexpr double kMatmulTolerance = 1e-9;

struct GridCase {
  Grid2D init, a, b, ref;
};

struct Inputs {
  Matrix ma, mb, mc, mc_ref;
  pe::kernels::MatmulBlocking blocking;
  CsrMatrix csr;
  SellMatrix sell;
  std::vector<double> x, y_bal, y_sell, y_ref;
  std::vector<GridCase> grids;
  int sweeps = 1;
};

/// Per-step time inside each kernel family (traced runs only).
struct StepTimes {
  std::vector<double> matmul, spmv_bal, spmv_sell, stencil;
};

/// What the traced half of a run collects, from inside the timed steps
/// only: the poison and check loops around them are not traced.
struct Traced {
  pe::observe::Tracer& tracer;
  StepTimes times;
  std::size_t steals = 0;  ///< ThreadPool::steals() delta over the steps
};

Inputs make_inputs(const Sizes& s, std::uint64_t seed, std::size_t lanes) {
  pe::Rng rng(seed);
  Inputs in;
  const std::size_t n = s.matmul_n;
  in.ma = Matrix(n, n);
  in.mb = Matrix(n, n);
  in.mc = Matrix(n, n);
  in.mc_ref = Matrix(n, n);
  in.ma.randomize(rng);
  in.mb.randomize(rng);
  pe::kernels::matmul_interchanged(in.ma, in.mb, in.mc_ref);
  // One row panel per lane (rounded to the 4-row register tile).
  in.blocking.mc = ((n + lanes - 1) / lanes + 3) / 4 * 4;

  in.csr = power_law_csr(s.spmv_rows, s.spmv_nnz, rng);
  in.sell = pe::kernels::csr_to_sell(in.csr);
  in.x.resize(s.spmv_rows);
  for (double& v : in.x) v = rng.next_range_double(-1.0, 1.0);
  in.y_ref.assign(s.spmv_rows, 0.0);
  in.y_bal = in.y_sell = in.y_ref;
  pe::kernels::spmv_csr(in.csr, in.x, in.y_ref);

  in.sweeps = s.sweeps;
  for (const std::size_t g : s.grids) {
    GridCase gc;
    gc.init = Grid2D(g, g);
    for (double& v : gc.init.data()) v = rng.next_double();
    gc.a = gc.b = Grid2D(g, g);
    Grid2D ra(g, g), rb(g, g);
    pe::kernels::stencil_step_naive(gc.init, ra);
    for (int k = 1; k < s.sweeps; ++k) {
      if (k % 2 == 1) pe::kernels::stencil_step_naive(ra, rb);
      else pe::kernels::stencil_step_naive(rb, ra);
    }
    gc.ref = s.sweeps % 2 == 1 ? ra : rb;
    in.grids.push_back(std::move(gc));
  }
  return in;
}

/// Sweeps of one grid, ping-ponging from the untouched initial grid.
void sweep_grid(GridCase& g, int sweeps, pe::ThreadPool& pool) {
  pe::kernels::stencil_step_parallel(g.init, g.a, pool);
  for (int k = 1; k < sweeps; ++k) {
    if (k % 2 == 1) pe::kernels::stencil_step_parallel(g.a, g.b, pool);
    else pe::kernels::stencil_step_parallel(g.b, g.a, pool);
  }
}

/// One step. With `times`, each kernel family is timed from outside.
void step(Inputs& in, pe::ThreadPool& pool, StepTimes* times) {
  const double t0 = times ? now_s() : 0.0;
  pe::kernels::matmul_parallel_packed(in.ma, in.mb, in.mc, pool, in.blocking);
  const double t1 = times ? now_s() : 0.0;
  pe::kernels::spmv_csr_parallel_balanced(in.csr, in.x, in.y_bal, pool);
  const double t2 = times ? now_s() : 0.0;
  pe::kernels::spmv_sell_parallel(in.sell, in.x, in.y_sell, pool);
  const double t3 = times ? now_s() : 0.0;
  for (GridCase& g : in.grids) sweep_grid(g, in.sweeps, pool);
  if (times) {
    const double t4 = now_s();
    times->matmul.push_back((t1 - t0) * 1e3);
    times->spmv_bal.push_back((t2 - t1) * 1e3);
    times->spmv_sell.push_back((t3 - t2) * 1e3);
    times->stencil.push_back((t4 - t3) * 1e3);
  }
}

/// One output and the values it must hold.
struct Expected {
  const char* what;  ///< the check's message
  double* got;
  const double* want;
  std::size_t n;
  double tolerance;  ///< 0: exact
};

/// Every output a step writes, with its reference.
std::vector<Expected> expected_outputs(Inputs& in) {
  std::vector<Expected> out{
      {"packed matmul outside tolerance of the serial reference", in.mc.data(),
       in.mc_ref.data(), in.mc.rows() * in.mc.cols(), kMatmulTolerance},
      {"balanced CSR SpMV != serial spmv_csr", in.y_bal.data(),
       in.y_ref.data(), in.y_ref.size(), 0.0},
      {"parallel SELL SpMV != serial spmv_csr", in.y_sell.data(),
       in.y_ref.data(), in.y_ref.size(), 0.0}};
  for (GridCase& g : in.grids) {
    Grid2D& result = in.sweeps % 2 == 1 ? g.a : g.b;
    out.push_back({"parallel stencil != stencil_step_naive",
                   result.data().data(), g.ref.data().data(),
                   result.data().size(), 0.0});
  }
  return out;
}

/// Elements per block of the poison and check loops.
constexpr std::size_t kCheckBlock = 1u << 14;

/// Run `fn(output, lo, hi)` over every output in blocks, on the pool: the
/// workers stay busy between steps, as in a solver's loop, instead of
/// parking while the caller alone checks.
template <typename Fn>
void for_blocks(const std::vector<Expected>& outs, pe::ThreadPool& pool,
                Fn&& fn) {
  std::vector<std::pair<std::size_t, std::size_t>> blocks;  // output, start
  for (std::size_t o = 0; o < outs.size(); ++o) {
    for (std::size_t lo = 0; lo < outs[o].n; lo += kCheckBlock) {
      blocks.emplace_back(o, lo);
    }
  }
  pe::parallel_for(
      pool, 0, blocks.size(),
      [&](std::size_t b) {
        const auto [o, lo] = blocks[b];
        fn(outs[o], lo, std::min(outs[o].n, lo + kCheckBlock));
      });
}

/// Poison every output before a step, outside its timed interval: only
/// what that step writes can then pass the check.
void poison_outputs(const std::vector<Expected>& outs, pe::ThreadPool& pool) {
  for_blocks(outs, pool, [](const Expected& e, std::size_t lo, std::size_t hi) {
    poison(e.got + lo, hi - lo);
  });
}

/// Compare every output of the last step with its serial reference (NaN
/// matches nothing).
bool outputs_ok(const std::vector<Expected>& outs, pe::ThreadPool& pool,
                Report& report) {
  std::vector<std::atomic<bool>> bad(outs.size());
  for_blocks(outs, pool, [&](const Expected& e, std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      if (!(std::abs(e.got[i] - e.want[i]) <= e.tolerance)) {
        bad[static_cast<std::size_t>(&e - outs.data())] = true;
        return;
      }
    }
  });
  bool ok = true;
  for (std::size_t o = 0; o < outs.size(); ++o) {
    if (bad[o]) {
      report.fail_check(outs[o].what);
      ok = false;
    }
  }
  return ok;
}

struct Work {
  double flops_matmul = 0, flops_spmv = 0, flops_stencil = 0, bytes = 0;
  [[nodiscard]] double flops() const {
    return flops_matmul + 2 * flops_spmv + flops_stencil;
  }
};

/// Exact FLOPs and bytes computed from sizes (compulsory traffic: every
/// operand touched once per call), per step.
Work request_work(const Inputs& in) {
  Work w;
  const std::size_t n = in.ma.rows();
  w.flops_matmul = pe::kernels::matmul_flops(n, n, n);
  w.flops_spmv = 2.0 * static_cast<double>(in.csr.nnz());
  const double vec_bytes = 8.0 * static_cast<double>(in.csr.rows + in.csr.cols);
  const double csr_bytes = 12.0 * static_cast<double>(in.csr.nnz()) +
                           4.0 * static_cast<double>(in.csr.row_ptr.size());
  const double sell_bytes = 12.0 * static_cast<double>(in.sell.values.size()) +
                            4.0 * static_cast<double>(in.sell.chunk_ptr.size() +
                                                      in.sell.row_ids.size());
  w.bytes = pe::kernels::matmul_min_bytes(n, n, n) + csr_bytes + sell_bytes +
            2.0 * vec_bytes;
  for (const GridCase& g : in.grids) {
    const std::size_t r = g.init.rows(), c = g.init.cols();
    w.flops_stencil += in.sweeps * pe::kernels::stencil_flops(r, c);
    w.bytes += in.sweeps * 2.0 * 8.0 * static_cast<double>(r * c);
  }
  return w;
}

/// What a closed loop records per request.
struct Loop {
  std::vector<double> latency_ms;
  std::vector<double> done_s;  ///< wall time once the request is checked
  std::vector<bool> good;      ///< its outputs passed the check
  double start_s = 0.0;
};

/// Closed loop for at least `seconds` and `min_samples` requests. Each
/// request poisons the outputs, runs its timed step (kLongSteps of them
/// for a long one) and checks the result; a wrong output counts as failed.
Loop closed_loop(Inputs& in, pe::ThreadPool& pool, double seconds,
                 std::size_t min_samples, const Options& opt, Report& report,
                 Traced* traced, std::size_t& max_threads) {
  const std::vector<Expected> outs = expected_outputs(in);
  Loop loop;
  loop.start_s = now_s();
  while (now_s() - loop.start_s < seconds ||
         loop.latency_ms.size() < min_samples) {
    poison_outputs(outs, pool);
    const int steps = steps_of(loop.latency_ms.size());
    const double t0 = now_s();
    if (traced) {
      const std::size_t steals0 = pool.steals();
      const pe::observe::ScopedTrace scope(traced->tracer);
      for (int k = 0; k < steps; ++k) step(in, pool, &traced->times);
      traced->steals += pool.steals() - steals0;
    } else {
      for (int k = 0; k < steps; ++k) step(in, pool, nullptr);
    }
    loop.latency_ms.push_back((now_s() - t0) * 1e3);
    ++report.attempted;
    // Self-test: corrupt one output in the benchmark's own check path.
    if (opt.corrupt && loop.latency_ms.size() == 3) in.y_bal[0] += 1.0;
    const bool ok = outputs_ok(outs, pool, report);
    if (!ok) ++report.failed;
    loop.good.push_back(ok);
    loop.done_s.push_back(now_s());
    if (loop.latency_ms.size() % 256 == 1) {
      max_threads = std::max(max_threads, program_threads());
    }
  }
  return loop;
}

/// Composition prediction of one request: a sequence of parallel regions,
/// each one roofline leaf per lane.
double predict_ms(const pe::machine::Machine& m, const Inputs& in,
                  const Work& w, std::size_t lanes) {
  const pe::models::RooflineModel roof =
      pe::models::RooflineModel::from_machine(m);
  comp::Context ctx = comp::Context::from_machine(m);
  ctx.workers = static_cast<unsigned>(lanes);
  const double l = static_cast<double>(lanes);
  const auto region = [&](const char* name, double flops, double bytes) {
    return comp::map(comp::leaf(roof.eval({name, flops / l, bytes / l})),
                     lanes);
  };
  const std::size_t n = in.ma.rows();
  const double spmv_bytes =
      12.0 * static_cast<double>(in.csr.nnz()) +
      8.0 * static_cast<double>(in.csr.rows + in.csr.cols);
  std::vector<comp::NodePtr> stages{
      region("matmul_packed", w.flops_matmul,
             pe::kernels::matmul_min_bytes(n, n, n)),
      region("spmv_csr_balanced", w.flops_spmv, spmv_bytes),
      region("spmv_sell", w.flops_spmv, spmv_bytes)};
  for (const GridCase& g : in.grids) {
    const std::size_t r = g.init.rows(), c = g.init.cols();
    for (int k = 0; k < in.sweeps; ++k) {
      stages.push_back(region("stencil", pe::kernels::stencil_flops(r, c),
                              16.0 * static_cast<double>(r * c)));
    }
  }
  return comp::pipeline(std::move(stages), 1)->predict(ctx).seconds * 1e3;
}

/// The traced run's per-layer metrics.
void layer_metrics(Inputs& in, pe::ThreadPool& pool, const Sizes& s,
                   const Options& opt, const pe::machine::Machine& machine,
                   std::size_t lanes, Report& report,
                   std::size_t& max_threads) {
  const double half = opt.seconds / 2.0;
  const std::vector<double> untraced =
      closed_loop(in, pool, half, 1, opt, report, nullptr, max_threads)
          .latency_ms;

  pe::observe::TracerConfig tcfg;
  tcfg.lanes = pool.size() + 1;
  tcfg.ring_capacity = 1u << 18;
  pe::observe::Tracer tracer(tcfg);
  Traced tr{tracer, {}, 0};
  const std::vector<double> traced =
      closed_loop(in, pool, 0.0, kTracedRequests, opt, report, &tr, max_threads)
          .latency_ms;
  const double requests = static_cast<double>(traced.size());
  const double steals = static_cast<double>(tr.steals);
  const pe::observe::Trace trace = tracer.take();
  const pe::observe::LatencyReport sched = pe::observe::scheduler_latency(trace);
  const pe::observe::ContentionReport cont =
      pe::observe::contention_profile(trace);

  const Work w = request_work(in);
  const auto kernel = [&](const char* name, const std::vector<double>& ms,
                          double flops) {
    const double med = median(ms);
    report.add(std::string("kernels.") + name + ".ms", med, "ms", ms.size());
    report.add(std::string("kernels.") + name + ".gflops",
                 flops / (med * 1e-3) * 1e-9, "GFLOP/s", ms.size());
  };
  kernel("matmul_packed", tr.times.matmul, w.flops_matmul);
  kernel("spmv_csr_balanced", tr.times.spmv_bal, w.flops_spmv);
  kernel("spmv_sell", tr.times.spmv_sell, w.flops_spmv);
  kernel("stencil", tr.times.stencil, w.flops_stencil);
  report.add("kernels.flops_per_request", w.flops() * kStepsPerRequest, "FLOP");
  report.add("kernels.bytes_per_request", w.bytes * kStepsPerRequest, "B");

  // Fixed-count probes on the same inputs, pool otherwise idle.
  const std::size_t reps = s.probe_reps;
  std::vector<double> y(in.csr.rows);
  const double spmv_serial =
      median_ms(reps, [&] { pe::kernels::spmv_csr(in.csr, in.x, y); });
  const double spmv_par = median_ms(reps, [&] {
    pe::kernels::spmv_csr_parallel_balanced(in.csr, in.x, y, pool);
  });
  const double sell_serial =
      median_ms(reps, [&] { pe::kernels::spmv_sell(in.sell, in.x, y); });
  const double stencil_serial = median_ms(reps, [&] {
    for (GridCase& g : in.grids) pe::kernels::stencil_step_naive(g.init, g.a);
  });
  const double stencil_par = median_ms(reps, [&] {
    for (GridCase& g : in.grids)
      pe::kernels::stencil_step_parallel(g.init, g.a, pool);
  });
  const double dispatch_ms = median_ms(20 * reps, [&] {
    pe::parallel_for(pool, 0, lanes, [](std::size_t) {});
  });
  const double l = static_cast<double>(lanes);
  report.add("simd.spmv_sell_serial.gflops",
               w.flops_spmv / (sell_serial * 1e-3) * 1e-9, "GFLOP/s", reps);
  report.add("simd.sell_padding_ratio", in.sell.padding_ratio(), "ratio");
  report.add("parallel.dispatch_us", dispatch_ms * 1e3, "us", 20 * reps);
  report.add("parallel.spmv.efficiency", spmv_serial / (l * spmv_par), "ratio", reps);
  report.add("parallel.stencil.efficiency",
               stencil_serial / (l * stencil_par), "ratio", reps);
  report.add("parallel.steals_per_request", steals / requests, "count", traced.size());
  report.add("parallel.parks_per_request",
               static_cast<double>(cont.total_parks) / requests, "count",
               traced.size());
  report.add("parallel.submit_start_p99_us", sched.p99_ns * 1e-3, "us",
               sched.samples_ns.size());

  const double p50_untraced = median(untraced);
  const double pred = predict_ms(machine, in, w, lanes);
  report.add("models.pred_ms", pred, "ms");
  report.add("models.pred_over_measured", pred / p50_untraced, "ratio",
               untraced.size());
  report.add("trace.requests", requests, "count");
  report.add("trace.untraced_p50_ms", p50_untraced, "ms", untraced.size());
  report.add("trace.traced_p50_ms", median(traced), "ms", traced.size());
  report.add("trace.overhead_ms", median(traced) - p50_untraced, "ms",
               traced.size());
  report.add("trace.events_dropped", static_cast<double>(trace.dropped), "count");
}

}  // namespace

int run_kernel_workload(const Options& opt) {
  const Sizes& s = kCoarse;
  const std::size_t workers = bench_workers();
  const std::size_t lanes = workers + 1;  // the caller participates
  Report report;
  std::string hash = "unset";
  if (const auto m = pe::machine::machine_from_env()) {
    hash = m->calibration_hash();
  }
  std::optional<pe::machine::Machine> machine;
  if (opt.trace) {
    machine = traced_machine(workers);  // before the benchmark's pool exists
    hash = machine->calibration_hash();
  }

  Inputs in = make_inputs(s, opt.seed, lanes);
  pe::ThreadPool pool(workers);
  const std::vector<Expected> outs = expected_outputs(in);
  for (int i = 0; i < s.warmup_steps; ++i) {
    poison_outputs(outs, pool);
    step(in, pool, nullptr);
    if (!outputs_ok(outs, pool, report)) return 1;
  }
  mark_ready();
  if (opt.setup_only) return 0;

  std::size_t max_threads = program_threads();
  if (opt.trace) {
    layer_metrics(in, pool, s, opt, *machine, lanes, report, max_threads);
  } else {
    const Loop loop = closed_loop(in, pool, opt.seconds, kWindow, opt, report,
                                  nullptr, max_threads);
    const std::vector<double>& lat = loop.latency_ms;
    // Goodput of the one closed-loop caller: correct requests (and their
    // FLOPs) per wall second, poisoning and checks included, in each
    // window of kRateWindow requests; median over the full windows.
    const double step_flops = request_work(in).flops();
    std::vector<double> rates, flop_rates;
    for (std::size_t lo = 0; lo + kRateWindow <= lat.size();
         lo += kRateWindow) {
      const std::size_t hi = lo + kRateWindow;
      double ok = 0.0, ok_steps = 0.0;
      for (std::size_t i = lo; i < hi; ++i) {
        if (!loop.good[i]) continue;
        ok += 1.0;
        ok_steps += steps_of(i);
      }
      const double wall =
          loop.done_s[hi - 1] - (lo ? loop.done_s[lo - 1] : loop.start_s);
      rates.push_back(ok / wall);
      flop_rates.push_back(ok_steps * step_flops / wall);
    }
    const double goodput = median(rates);
    const std::size_t n = lat.size();
    report.add("latency_p50_ms", median(lat), "ms", n);
    report.add("latency_p99_ms", windowed_p99(lat), "ms", n);
    report.add("goodput_rps", goodput, "1/s", n);
    report.add("gflops", median(flop_rates) * 1e-9,
               "GFLOP/s", n);
    report.add("peak_rss_mib", peak_rss_mib(), "MiB");
  }
  note_provenance(report, opt, workers, lanes, hash);
  report.note("program_threads_max", std::to_string(max_threads));
  report.note("spmv", std::to_string(in.csr.rows) + " rows, " +
                          std::to_string(in.csr.nnz()) + " nnz");
  report.print();
  return report.correct ? 0 : 1;
}

}  // namespace pb
