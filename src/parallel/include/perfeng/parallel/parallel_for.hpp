#pragma once

/// \file parallel_for.hpp
/// Data-parallel loops and reductions over a ThreadPool.
///
/// Three scheduling policies mirror OpenMP's `schedule(static | dynamic |
/// guided)`: static partitioning gives each worker one contiguous
/// balanced block (good for uniform work, and the policy whose imbalance the
/// load-imbalance performance pattern in Assignment 4 demonstrates); dynamic
/// scheduling hands out fixed-size chunks from an atomic counter (good for
/// irregular work such as power-law SpMV rows); guided scheduling starts
/// with large chunks and halves them as the range drains, trading dynamic's
/// dispatch frequency against static's tail imbalance.
///
/// Every loop uses the pool's bulk-submission fast path: one shared loop
/// record on the caller's stack (an atomic chunk cursor plus a completion
/// latch), one POD job broadcast per worker, and the calling thread
/// executing chunks itself instead of blocking in `future::get`. There are
/// **zero per-chunk heap allocations** — no `packaged_task`, no futures —
/// so per-chunk dispatch costs tens of nanoseconds instead of a global-lock
/// handoff plus an allocation (measure it with `bench/scheduler_overhead`).
/// Exceptions thrown by loop bodies are captured in the loop record, stop
/// further chunk claims, and the first one is rethrown on the calling
/// thread once the loop has quiesced.

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <mutex>
#include <source_location>
#include <utility>
#include <vector>

#include "perfeng/common/error.hpp"
#include "perfeng/common/trace_hook.hpp"
#include "perfeng/parallel/thread_pool.hpp"

namespace pe {

/// Loop scheduling policy.
enum class Schedule { kStatic, kDynamic, kGuided };

namespace detail {

/// Balanced static partition of `n` iterations (offset by `begin`) into
/// `parts` contiguous blocks: every block gets `n / parts` iterations and
/// the remainder is distributed one-per-block from the front, so block
/// sizes never differ by more than one. (The previous ceil-division
/// partition could leave the last worker with up to `parts - 1` fewer
/// iterations — or no block at all — when `n` was slightly above a
/// multiple of `parts`.)
inline std::pair<std::size_t, std::size_t> static_block(std::size_t begin,
                                                        std::size_t n,
                                                        std::size_t parts,
                                                        std::size_t b) {
  const std::size_t base = n / parts;
  const std::size_t rem = n % parts;
  const std::size_t lo = begin + b * base + std::min(b, rem);
  return {lo, lo + base + (b < rem ? 1 : 0)};
}

/// Shared record of one bulk loop: lives on the submitting thread's stack;
/// workers reach it through the broadcast job's `arg` pointer. Claiming a
/// chunk is one atomic RMW on `cursor`; completion is tracked by counting
/// retired job copies (executed to completion or reclaimed by purge), so
/// the record can be safely destroyed as soon as the wait returns.
template <typename ChunkFn>
struct BulkLoop {
  const std::size_t begin, n;
  ChunkFn& chunk_fn;
  const Schedule schedule;
  const std::size_t grain;  ///< dynamic chunk size / guided minimum
  const std::size_t parts;  ///< static block count
  const std::size_t lanes;  ///< executors: workers + submitting thread
  const std::size_t limit;  ///< cursor bound (parts or n); cancel target
  const char* file;         ///< submitting call site, for trace provenance
  const std::uint32_t line;

  std::atomic<std::size_t> cursor{0};
  std::atomic<std::size_t> retired{0};
  std::atomic<bool> failed{false};
  std::mutex error_mu;
  std::exception_ptr error;

  BulkLoop(std::size_t begin_, std::size_t n_, ChunkFn& fn, Schedule sched,
           std::size_t grain_, std::size_t workers, const char* file_,
           std::uint32_t line_)
      : begin(begin_),
        n(n_),
        chunk_fn(fn),
        schedule(sched),
        grain(grain_),
        parts(std::min(workers, n_)),
        lanes(workers + 1),
        limit(sched == Schedule::kStatic ? std::min(workers, n_) : n_),
        file(file_),
        line(line_) {}

  /// Claim the next chunk; {x, x} means the range is drained (static block
  /// sizes are monotone non-increasing, so the first empty block implies
  /// every later one is empty too).
  std::pair<std::size_t, std::size_t> claim() {
    switch (schedule) {
      case Schedule::kStatic: {
        const std::size_t b =
            cursor.fetch_add(1, std::memory_order_relaxed);
        if (b >= parts) return {0, 0};
        return static_block(begin, n, parts, b);
      }
      case Schedule::kDynamic: {
        const std::size_t off =
            cursor.fetch_add(grain, std::memory_order_relaxed);
        if (off >= n) return {0, 0};
        return {begin + off, begin + std::min(n, off + grain)};
      }
      case Schedule::kGuided: {
        std::size_t off = cursor.load(std::memory_order_relaxed);
        for (;;) {
          if (off >= n) return {0, 0};
          const std::size_t remaining = n - off;
          const std::size_t size =
              std::min(remaining, std::max(grain, remaining / (2 * lanes)));
          if (cursor.compare_exchange_weak(off, off + size,
                                           std::memory_order_relaxed))
            return {begin + off, begin + off + size};
        }
      }
    }
    return {0, 0};
  }

  void record_error() {
    {
      std::lock_guard lock(error_mu);
      if (!error) error = std::current_exception();
    }
    failed.store(true, std::memory_order_release);
    // Stop handing out chunks; claims already in flight still run.
    cursor.store(limit, std::memory_order_relaxed);
  }

  void execute(std::size_t lane) {
    // One hook load per claimed job copy, amortized over all its chunks:
    // the disabled per-chunk cost is two register branches, not two atomic
    // loads (bench/scheduler_trace --check holds this under 2% of chunk
    // dispatch). The chunk events tell an installed tracer or race
    // checker which [lo, hi) this thread claims; kChunkFinish fires even
    // when the body throws.
    TraceHook* const trace = detail::trace_hook_fast();
    for (;;) {
      const auto [lo, hi] = claim();
      if (lo >= hi) return;
      PE_TRACE_EMIT_CACHED(trace, TraceEventKind::kChunkStart, this, lo, hi,
                           lane, file, line);
      try {
        chunk_fn(lo, hi, lane);
      } catch (...) {
        record_error();
      }
      PE_TRACE_EMIT_CACHED(trace, TraceEventKind::kChunkFinish, this, lo, hi,
                           lane, file, line);
    }
  }

  /// Job entry point run by workers; the submitting thread calls
  /// `execute` directly instead.
  static void run(void* arg, std::size_t lane) {
    auto& loop = *static_cast<BulkLoop*>(arg);
    loop.execute(lane);
    // Close this copy's trace before retiring it: once `retired` reaches
    // the copy count the submitter may return and uninstall the hook.
    ThreadPool::trace_task_finish();
    loop.retired.fetch_add(1, std::memory_order_release);
    loop.retired.notify_one();
  }
};

/// Drive one bulk loop to completion: broadcast, participate, reclaim
/// unstarted copies, wait for the stragglers, rethrow the first error.
template <typename ChunkFn>
void run_bulk(ThreadPool& pool, std::size_t begin, std::size_t end,
              ChunkFn&& chunk_fn, Schedule schedule, std::size_t grain,
              std::source_location loc = std::source_location::current()) {
  const std::size_t n = end - begin;
  const std::size_t workers = pool.size();
  if (workers == 1 || n == 1) {
    // Inline: a 1-worker pool (or a single chunk) gains nothing from
    // dispatch, and inline execution keeps iteration order sequential.
    // The loop key is this call's own `loc` parameter, so no other live
    // loop shares it (the body object may be shared across calls).
    const std::size_t lane = pool.this_lane();
    TraceHook* const trace = detail::trace_hook_fast();
    const auto emit = [&](TraceEventKind kind) {
      PE_TRACE_EMIT_CACHED(trace, kind, &loc, begin, end, lane,
                           loc.file_name(), loc.line());
    };
    emit(TraceEventKind::kLoopBegin);
    emit(TraceEventKind::kChunkStart);
    try {
      chunk_fn(begin, end, lane);
    } catch (...) {
      emit(TraceEventKind::kChunkFinish);
      emit(TraceEventKind::kLoopEnd);
      throw;
    }
    emit(TraceEventKind::kChunkFinish);
    emit(TraceEventKind::kLoopEnd);
    return;
  }
  BulkLoop<ChunkFn> loop(begin, n, chunk_fn, schedule, grain, workers,
                         loc.file_name(), loc.line());
  PE_TRACE_EMIT_SITE(TraceEventKind::kLoopBegin, &loop, begin, end,
                     pool.this_lane(), loc.file_name(), loc.line());
  const std::size_t pushed =
      pool.bulk_broadcast({&BulkLoop<ChunkFn>::run, &loop});
  loop.execute(pool.this_lane());
  // Own execution returned, so the cursor is drained: copies still queued
  // can contribute nothing — reclaim them instead of waiting for busy
  // workers to get around to them (this is also what makes nested
  // parallel_for deadlock-free on a fully occupied pool).
  const std::size_t purged = pool.bulk_purge(&loop);
  std::size_t done =
      loop.retired.fetch_add(purged, std::memory_order_acq_rel) + purged;
  while (done < pushed) {
    loop.retired.wait(done, std::memory_order_acquire);
    done = loop.retired.load(std::memory_order_acquire);
  }
  PE_TRACE_EMIT_SITE(TraceEventKind::kLoopEnd, &loop, begin, end,
                     pool.this_lane(), loc.file_name(), loc.line());
  if (loop.failed.load(std::memory_order_acquire))
    std::rethrow_exception(loop.error);
}

}  // namespace detail

/// Execute `fn(lo, hi, lane)` over contiguous chunks covering [begin, end).
///
/// The chunk-level sibling of `parallel_for`, for bodies that amortize
/// per-chunk setup or keep lane-private state: `lane` is the executing
/// worker's index, or `pool.size()` when the chunk runs on the submitting
/// thread — size lane-indexed scratch `pool.size() + 1`. `chunk` is the
/// dynamic grain / guided minimum; static scheduling produces one balanced
/// block per worker.
template <typename ChunkFn>
void parallel_for_chunks(
    ThreadPool& pool, std::size_t begin, std::size_t end, ChunkFn&& fn,
    Schedule schedule = Schedule::kStatic, std::size_t chunk = 64,
    std::source_location loc = std::source_location::current()) {
  PE_REQUIRE(begin <= end, "empty or inverted range");
  PE_REQUIRE(chunk >= 1, "chunk must be positive");
  if (begin == end) return;
  detail::run_bulk(pool, begin, end, std::forward<ChunkFn>(fn), schedule,
                   chunk, loc);
}

/// Execute `body(i)` for every i in [begin, end) on the pool.
///
/// `chunk` is the dynamic-scheduling grain (and the guided minimum);
/// ignored for static scheduling (where the range is split into
/// `pool.size()` contiguous balanced blocks).
template <typename Body>
void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end,
                  Body&& body, Schedule schedule = Schedule::kStatic,
                  std::size_t chunk = 64,
                  std::source_location loc = std::source_location::current()) {
  parallel_for_chunks(
      pool, begin, end,
      [&body](std::size_t lo, std::size_t hi, std::size_t /*lane*/) {
        for (std::size_t i = lo; i < hi; ++i) body(i);
      },
      schedule, chunk, loc);
}

/// Parallel reduction: returns combine-fold of `map(i)` over [begin, end),
/// starting from `identity`. `combine` must be associative.
///
/// Ordering guarantee: the range is split into `min(pool.size(), n)`
/// balanced blocks; each block is folded left-to-right from a copy of
/// `identity`, and the block partials are folded left-to-right in block
/// order. For a fixed pool size the grouping is therefore *deterministic*
/// (bit-identical floating-point results run-to-run, regardless of thread
/// timing) — but the grouping, and hence the rounding, changes with
/// `pool.size()`. Use `parallel_reduce_ordered` when the result must also
/// be independent of the worker count.
template <typename T, typename Map, typename Combine>
T parallel_reduce(ThreadPool& pool, std::size_t begin, std::size_t end,
                  T identity, Map&& map, Combine&& combine) {
  PE_REQUIRE(begin <= end, "empty or inverted range");
  const std::size_t n = end - begin;
  if (n == 0) return identity;
  const std::size_t workers = pool.size();
  if (workers == 1) {
    T acc = identity;
    for (std::size_t i = begin; i < end; ++i) acc = combine(acc, map(i));
    return acc;
  }
  const std::size_t parts = std::min(workers, n);
  std::vector<T> partials(parts, identity);
  parallel_for(
      pool, 0, parts,
      [&](std::size_t b) {
        const auto [lo, hi] = detail::static_block(begin, n, parts, b);
        T acc = identity;
        for (std::size_t i = lo; i < hi; ++i) acc = combine(acc, map(i));
        partials[b] = std::move(acc);
      },
      Schedule::kStatic);
  T acc = std::move(identity);
  for (T& partial : partials) acc = combine(acc, std::move(partial));
  return acc;
}

/// Deterministic-order parallel reduction: like `parallel_reduce`, but the
/// grouping is fixed blocks of `block` iterations folded in ascending
/// block order — so for a given `block` the result is **bit-identical
/// across runs and across pool sizes** (it depends only on the grouping,
/// never on thread count or timing). This is the variant statmodel fitting
/// uses so repeated fits reproduce exactly. It is not bit-identical to the
/// serial fold unless `combine` is exactly associative; the grouping is
/// simply fixed.
template <typename T, typename Map, typename Combine>
T parallel_reduce_ordered(ThreadPool& pool, std::size_t begin,
                          std::size_t end, T identity, Map&& map,
                          Combine&& combine, std::size_t block = 1024) {
  PE_REQUIRE(begin <= end, "empty or inverted range");
  PE_REQUIRE(block >= 1, "block must be positive");
  const std::size_t n = end - begin;
  if (n == 0) return identity;
  const std::size_t blocks = (n + block - 1) / block;
  std::vector<T> partials(blocks, identity);
  parallel_for(
      pool, 0, blocks,
      [&](std::size_t b) {
        const std::size_t lo = begin + b * block;
        const std::size_t hi = std::min(end, lo + block);
        T acc = identity;
        for (std::size_t i = lo; i < hi; ++i) acc = combine(acc, map(i));
        partials[b] = std::move(acc);
      },
      Schedule::kDynamic, 1);
  T acc = std::move(identity);
  for (T& partial : partials) acc = combine(acc, std::move(partial));
  return acc;
}

}  // namespace pe
