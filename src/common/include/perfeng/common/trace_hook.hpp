#pragma once

/// \file trace_hook.hpp
/// The process-wide runtime hook: one instrumentation seam for the
/// scheduler, the bulk-loop runtime and the kernels.
///
/// The work-stealing pool is the hot substrate under every parallel kernel,
/// but without observability it is a black box: where does worker time go,
/// how long do tasks wait between submit and start, which chunks of which
/// loop touched which bytes? The scheduler and the bulk-loop runtime
/// announce task lifecycle events (submit, steal, start, finish, park,
/// unpark, contended lock acquisitions) and loop/chunk provenance, and
/// instrumented code announces the byte ranges each chunk touches
/// (`access_record`). All of it is a no-op costing one atomic load and a
/// branch until a `TraceHook` is installed — a `pe::observe::Tracer`
/// (scheduler traces, flame graphs) or a `pe::analysis::AccessChecker`
/// (race lint). One hook is installed at a time; both installers throw
/// when the slot is taken. The hook lives here (not in perfeng_observe or
/// perfeng_analysis) so the thread pool, the loop runtime and the kernels
/// can host instrumentation points without a layering inversion. The
/// fault hook (fault_hook.hpp) is separate: it throws and corrupts values,
/// where this hook only observes.
///
/// Emission sites on hot paths must go through the `PE_TRACE_EMIT` /
/// `PE_TRACE_EMIT_SITE` guard macros — never call `on_event` directly —
/// so the disabled path is provably one load + branch; perfeng-lint's
/// `trace-hook-guard` check enforces this.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <source_location>

namespace pe {

/// Kinds of scheduler/loop lifecycle events. Values are stable: they name
/// event records in serialized traces (see docs/observability.md).
enum class TraceEventKind : std::uint8_t {
  kSubmit = 0,      ///< task/bulk loop handed to the pool (obj = job key)
  kSteal = 1,       ///< a worker stole a job from another worker's deque
  kTaskStart = 2,   ///< a claimed job began executing on a lane
  kTaskFinish = 3,  ///< the job claimed by the matching kTaskStart returned
  kPark = 4,        ///< an idle worker parked on the pool's condition var
  kUnpark = 5,      ///< a parked worker woke
  kContended = 6,   ///< a deque/inbox lock acquisition had to wait
  kLoopBegin = 7,   ///< bulk loop dispatch (obj = loop key, a/b = range)
  kLoopEnd = 8,     ///< the loop announced by kLoopBegin quiesced
  kChunkStart = 9,  ///< chunk [a, b) of loop obj claimed by a lane
  kChunkFinish = 10 ///< the chunk claimed by the matching kChunkStart ended
};

/// Number of distinct TraceEventKind values (array sizing).
inline constexpr std::size_t kTraceEventKinds = 11;

/// Human-readable event-kind name (stable, used by trace serialization).
[[nodiscard]] const char* trace_event_kind_name(TraceEventKind kind) noexcept;

/// Interface a runtime hook implements to observe scheduler events and
/// (optionally) access records. Implementations must be thread-safe and
/// must not block on the emission path: events fire from worker threads
/// inside dispatch loops, and a hook that blocks would perturb exactly the
/// behaviour it measures. The hook timestamps events itself (so tests can
/// inject deterministic clocks). Every method is noexcept —
/// instrumentation must never alter the control flow of observed code.
class TraceHook {
 public:
  virtual ~TraceHook() = default;

  /// One scheduler event on `lane`. `obj` is a correlation key (job arg or
  /// loop record address) valid only for matching events of one trace, not
  /// for dereferencing; two live loops never share one. `a`/`b` carry
  /// kind-specific payload (chunk bounds, broadcast copy counts).
  /// `file`/`line` locate the provenance site (static storage duration;
  /// may be null/0 when the site has none).
  virtual void on_event(TraceEventKind kind, const void* obj, std::uint64_t a,
                        std::uint64_t b, std::size_t lane, const char* file,
                        std::uint32_t line) noexcept = 0;

  /// The calling thread's current chunk accessed bytes [lo_byte, hi_byte)
  /// of the buffer identified by `base`. `tag` names the buffer in reports;
  /// `file`/`line` locate the instrumentation site (or the `checked_span`
  /// creation). Called only when `consumes_records()` is true.
  virtual void record(const void* /*base*/, std::size_t /*lo_byte*/,
                      std::size_t /*hi_byte*/, bool /*is_write*/,
                      const char* /*tag*/, const char* /*file*/,
                      unsigned /*line*/) noexcept {}

  /// Whether `access_record` forwards to `record`. Fixed by the concrete
  /// type at construction, so hooks that ignore records (the tracer) cost
  /// the per-row records of instrumented kernels one branch, not a call.
  [[nodiscard]] bool consumes_records() const noexcept {
    return consumes_records_;
  }

 protected:
  explicit TraceHook(bool consumes_records = false) noexcept
      : consumes_records_(consumes_records) {}

 private:
  bool consumes_records_;
};

/// Install (or with nullptr, remove) the process-wide hook. The caller
/// keeps ownership and must keep the hook alive until it is removed;
/// `pe::observe::ScopedTrace` and `pe::analysis::ScopedAccessCheck` do
/// both ends via RAII. Removing waits until every `PE_TRACE_EMIT` /
/// `PE_TRACE_EMIT_SITE` emission that may still hold the old hook has
/// returned — an idle worker may be parking just then — so the hook can
/// be destroyed as soon as this returns.
void set_trace_hook(TraceHook* hook) noexcept;

/// Currently installed hook, or nullptr.
[[nodiscard]] TraceHook* trace_hook() noexcept;

namespace detail {
extern std::atomic<TraceHook*> g_trace_hook;

[[nodiscard]] inline TraceHook* trace_hook_fast() noexcept {
  return g_trace_hook.load(std::memory_order_acquire);
}

/// Enabled path of the guard macros: delivers one event to the installed
/// hook, if any, counted in flight so removing the hook waits for it.
void emit_event(TraceEventKind kind, const void* obj, std::uint64_t a,
                std::uint64_t b, std::size_t lane, const char* file,
                std::uint32_t line) noexcept;
}  // namespace detail

/// Record that the current chunk touches elements [lo, hi) of the buffer
/// at `base` whose elements are `elem_size` bytes; a no-op unless the
/// installed hook consumes records. Call once per chunk at range
/// granularity — the checker coalesces, but one call is cheaper.
inline void access_record(
    const void* base, std::size_t elem_size, std::size_t lo, std::size_t hi,
    bool is_write, const char* tag,
    std::source_location loc = std::source_location::current()) noexcept {
  TraceHook* const hook = detail::trace_hook_fast();
  if (hook != nullptr && hook->consumes_records())
    hook->record(base, lo * elem_size, hi * elem_size, is_write, tag,
                 loc.file_name(), static_cast<unsigned>(loc.line()));
}

}  // namespace pe

/// Guarded trace emission: one acquire load + branch when no hook is
/// installed. The macro is the only sanctioned spelling on hot paths
/// (perfeng-lint: trace-hook-guard); it exists so the guard cannot be
/// forgotten and so emission sites are greppable.
#define PE_TRACE_EMIT(kind, obj, a, b, lane) \
  PE_TRACE_EMIT_SITE(kind, obj, a, b, lane, nullptr, 0)

/// Guarded trace emission carrying a provenance site (file/line of the
/// parallel_for call, for flame-graph frames).
#define PE_TRACE_EMIT_SITE(kind, obj, a, b, lane, file, line)              \
  do {                                                                     \
    if (::pe::detail::trace_hook_fast() != nullptr)                       \
      ::pe::detail::emit_event((kind), (obj), (a), (b), (lane), (file),    \
                               (line));                                    \
  } while (0)

/// Guarded emission through a hook pointer the caller loaded once (with
/// `pe::detail::trace_hook_fast()`) and reuses across many sites — the
/// per-chunk spelling inside dispatch loops, where paying the atomic load
/// per chunk would dominate the disabled path. The disabled cost here is a
/// single predictable branch on a register. A hook installed mid-loop is
/// picked up at the next load site. These emissions are not counted in
/// flight: they run inside jobs and loops that whoever removes the hook
/// has already waited for (loops never outlive a `ScopedTrace` or a
/// `ScopedAccessCheck`, by contract).
#define PE_TRACE_EMIT_CACHED(hook, kind, obj, a, b, lane, file, line)       \
  do {                                                                      \
    if ((hook) != nullptr)                                                  \
      (hook)->on_event((kind), (obj), (a), (b), (lane), (file), (line));    \
  } while (0)
