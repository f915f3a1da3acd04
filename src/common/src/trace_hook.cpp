#include "perfeng/common/trace_hook.hpp"

#include <thread>

namespace pe {

namespace detail {
std::atomic<TraceHook*> g_trace_hook{nullptr};

namespace {
/// Guarded emissions between their hook re-read and their return.
std::atomic<std::size_t> g_emitting{0};
}  // namespace

void emit_event(TraceEventKind kind, const void* obj, std::uint64_t a,
                std::uint64_t b, std::size_t lane, const char* file,
                std::uint32_t line) noexcept {
  // Count first, then re-read the hook; set_trace_hook stores, then reads
  // the count. All four are seq_cst, so either the remover sees this
  // emission and waits for it, or this emission sees the hook removed.
  g_emitting.fetch_add(1, std::memory_order_seq_cst);
  if (TraceHook* hook = g_trace_hook.load(std::memory_order_seq_cst))
    // perfeng-lint: allow(trace-hook-guard) — this is the guarded path
    hook->on_event(kind, obj, a, b, lane, file, line);
  g_emitting.fetch_sub(1, std::memory_order_release);
}
}  // namespace detail

void set_trace_hook(TraceHook* hook) noexcept {
  detail::g_trace_hook.store(hook, std::memory_order_seq_cst);
  if (hook != nullptr) return;
  while (detail::g_emitting.load(std::memory_order_seq_cst) != 0) {
    std::this_thread::yield();
  }
}

TraceHook* trace_hook() noexcept { return detail::trace_hook_fast(); }

const char* trace_event_kind_name(TraceEventKind kind) noexcept {
  switch (kind) {
    case TraceEventKind::kSubmit: return "submit";
    case TraceEventKind::kSteal: return "steal";
    case TraceEventKind::kTaskStart: return "task_start";
    case TraceEventKind::kTaskFinish: return "task_finish";
    case TraceEventKind::kPark: return "park";
    case TraceEventKind::kUnpark: return "unpark";
    case TraceEventKind::kContended: return "contended";
    case TraceEventKind::kLoopBegin: return "loop_begin";
    case TraceEventKind::kLoopEnd: return "loop_end";
    case TraceEventKind::kChunkStart: return "chunk_start";
    case TraceEventKind::kChunkFinish: return "chunk_finish";
  }
  return "?";
}

}  // namespace pe
