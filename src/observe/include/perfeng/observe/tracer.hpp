#pragma once

/// \file tracer.hpp
/// The always-on scheduler tracer: a TraceHook backed by per-lane rings.
///
/// Install a `Tracer` (via `ScopedTrace`), run the parallel code under
/// observation, uninstall, then `take()` the captured `Trace`. Emission is
/// wait-free — one claim `fetch_add` plus one release store into the
/// emitting lane's private ring — so tracing stays on during measurement
/// runs; the disabled path (no hook installed) is one atomic load
/// and a branch at each site (measure it with `bench/scheduler_trace
/// --check`).
///
/// The tracer also maintains a per-lane *current activity* slot (the chunk
/// and provenance site a lane is executing right now), which is what the
/// `SamplingProfiler` snapshots to build flame graphs without touching the
/// event stream.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "perfeng/common/trace_hook.hpp"
#include "perfeng/observe/ring_buffer.hpp"
#include "perfeng/observe/trace.hpp"

namespace pe::observe {

/// What one lane is executing right now; published by the tracer, read by
/// the sampling profiler. A seqlock over individually-atomic fields (so
/// the pattern is ThreadSanitizer-clean): `seq` is odd while the slot is
/// being written, and a reader retries until it sees the same even value
/// on both sides of its read.
struct LaneActivity {
  std::atomic<std::uint64_t> seq{0};
  std::atomic<const char*> file{nullptr};  ///< loop site (static storage)
  std::atomic<std::uint32_t> line{0};
  std::atomic<std::uint64_t> lo{0}, hi{0};  ///< executing chunk bounds
  std::atomic<bool> parked{false};  ///< lane is parked, not executing
};

/// Tracer configuration.
struct TracerConfig {
  /// Lanes to record (pool workers + 1 external lane is typical). Events
  /// from lanes >= `lanes` share the last ring.
  std::size_t lanes = 0;  ///< 0 = hardware_concurrency + 1
  /// Per-lane ring capacity (rounded up to a power of two).
  std::size_t ring_capacity = EventRing::kDefaultCapacity;
  /// Clock returning nanoseconds; null = steady_clock. Tests inject a
  /// deterministic simulated clock here.
  std::uint64_t (*now_ns)() = nullptr;
};

/// Lock-free scheduler tracer; install with `ScopedTrace`.
class Tracer final : public TraceHook {
 public:
  explicit Tracer(TracerConfig config = {});

  // TraceHook interface (called by the runtime; not for direct use).
  void on_event(TraceEventKind kind, const void* obj, std::uint64_t a,
                std::uint64_t b, std::size_t lane, const char* file,
                std::uint32_t line) noexcept override;

  /// Drain every lane ring into a time-sorted Trace. Call after the traced
  /// region has quiesced (tracer uninstalled, or the pool idle).
  [[nodiscard]] Trace take() const;

  /// Forget everything captured so far.
  void reset() noexcept;

  /// Lanes (rings) the tracer was sized for.
  [[nodiscard]] std::size_t lanes() const noexcept { return rings_.size(); }

  /// Current-activity slot of one lane (sampling profiler input).
  [[nodiscard]] const LaneActivity& activity(std::size_t lane) const noexcept {
    return activities_[lane < rings_.size() ? lane : rings_.size() - 1];
  }

  /// Nanosecond timestamp on the tracer's clock.
  [[nodiscard]] std::uint64_t now() const noexcept;

 private:
  void publish_activity(std::size_t slot, TraceEventKind kind,
                        std::uint64_t a, std::uint64_t b, const char* file,
                        std::uint32_t line) noexcept;

  std::vector<std::unique_ptr<EventRing>> rings_;   // one per lane
  std::vector<LaneActivity> activities_;            // one per lane
  std::uint64_t (*now_ns_)();                       // null = steady_clock
};

/// RAII installer: makes `tracer` the process-wide TraceHook for the
/// scope's lifetime. Only one hook may be active at a time: installing
/// over any hook — another tracer or a `pe::analysis::AccessChecker` —
/// throws pe::Error and leaves the installed one in place.
class ScopedTrace {
 public:
  explicit ScopedTrace(Tracer& tracer);
  ~ScopedTrace();

  ScopedTrace(const ScopedTrace&) = delete;
  ScopedTrace& operator=(const ScopedTrace&) = delete;

 private:
  Tracer& tracer_;
};

}  // namespace pe::observe
