#pragma once

/// \file access_checker.hpp
/// Interval-based race lint for data-parallel loops.
///
/// The checker is a lockset-free race detector tailored to the one pattern
/// the toolbox's `parallel_for` family promises: *chunks of one loop write
/// disjoint ranges*. While installed (via `ScopedAccessCheck`) as the
/// process-wide `TraceHook`, it takes loop and chunk boundaries from the
/// runtime's loop/chunk events, and instrumented code
/// — the shipped kernels via `pe::access_record`, student code via
/// `checked_span` — announces the byte ranges each chunk reads and writes.
/// `report()` then diffs the per-chunk interval sets and returns a
/// `RaceReport` naming the exact conflicting chunk pairs, buffers, byte
/// ranges, and source locations.
///
/// Because the check is on the *partition*, not on this run's thread
/// timing, it also catches latent races: two overlapping chunks that
/// happened to execute on the same lane are still reported (flagged
/// `same_lane`) — a dynamic scheduler could legally have raced them.
///
/// Scope and limits: each chunk carries its full loop-nesting path (the
/// chain of enclosing loops and chunks down from the outermost loop), so
/// two chunks are diffed exactly when their paths first diverge within
/// one loop — which covers chunks of one flat loop *and* chunks of two
/// inner loops launched from concurrently-running chunks of the same
/// outer loop. Paths diverging across different loops are ordered by the
/// earlier loop's completion barrier, and an enclosing chunk never races
/// its own nested loop (it blocks until the inner loop drains).
/// Lane-indexed private scratch (e.g. the packed-matmul A panels) is
/// intentionally outside the model — it is partitioned by lane, not by
/// chunk — and should not be recorded. See docs/analysis.md.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "perfeng/analysis/race_report.hpp"
#include "perfeng/common/trace_hook.hpp"

namespace pe::analysis {

/// Records chunk/interval provenance while installed as the process-wide
/// TraceHook; thread-safe (chunks fire from pool workers). Install with
/// `ScopedAccessCheck`, run the loops under test, then call `report()`.
class AccessChecker final : public TraceHook {
 public:
  AccessChecker() noexcept : TraceHook(/*consumes_records=*/true) {}

  // TraceHook interface (called by the runtime; not for direct use).
  // Uses kLoopBegin/kLoopEnd/kChunkStart/kChunkFinish; ignores the rest.
  void on_event(TraceEventKind kind, const void* obj, std::uint64_t a,
                std::uint64_t b, std::size_t lane, const char* file,
                std::uint32_t line) noexcept override;
  void record(const void* base, std::size_t lo_byte, std::size_t hi_byte,
              bool is_write, const char* tag, const char* file,
              unsigned line) noexcept override;

  /// Diff the per-chunk interval sets recorded so far. Safe to call after
  /// the loops under test have completed (not concurrently with them).
  [[nodiscard]] RaceReport report() const;

  /// Drop everything recorded so far (loop/chunk counters restart).
  void reset();

 private:
  /// One coalesced access interval of one chunk.
  struct Interval {
    const void* base;
    const char* tag;
    std::size_t lo_byte, hi_byte;
    bool write;
    const char* file;
    unsigned line;
  };

  /// Everything one executed chunk touched. Appended to by exactly one
  /// thread (the one that announced the chunk), read by report().
  struct ChunkLog {
    ChunkProvenance id;
    std::vector<Interval> intervals;
  };

  /// A loop between its kLoopBegin and kLoopEnd: its 1-based id and its
  /// nesting prefix — the path of the chunk the launching thread was
  /// executing at kLoopBegin (empty for a top-level loop).
  struct LiveLoop {
    std::size_t id;
    std::vector<ChunkStep> prefix;
  };

  void begin_loop(const void* key);
  void begin_chunk(const void* key, std::size_t lo, std::size_t hi,
                   std::size_t lane);

  mutable std::mutex mutex_;        // guards everything below but the
                                    // atomic counter
  std::deque<ChunkLog> chunks_;     // deque: stable addresses for the
                                    // per-thread active-chunk stack
  std::unordered_map<const void*, LiveLoop> live_loops_;  // by loop key
  std::size_t next_chunk_ = 0;
  std::size_t loops_ = 0;
  std::atomic<std::size_t> unscoped_records_{0};
};

/// RAII installer: makes `checker` the process-wide TraceHook for the
/// scope's lifetime. Only one hook may be active at a time: installing
/// over any hook — another checker or a `pe::observe::Tracer` — throws
/// pe::Error and leaves the installed one in place.
class ScopedAccessCheck {
 public:
  explicit ScopedAccessCheck(AccessChecker& checker);
  ~ScopedAccessCheck();

  ScopedAccessCheck(const ScopedAccessCheck&) = delete;
  ScopedAccessCheck& operator=(const ScopedAccessCheck&) = delete;

 private:
  AccessChecker& checker_;
};

}  // namespace pe::analysis
