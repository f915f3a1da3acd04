#include "perfeng/observe/tracer.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#include "perfeng/common/error.hpp"

namespace pe::observe {

namespace {

std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

Tracer::Tracer(TracerConfig config)
    : now_ns_(config.now_ns != nullptr ? config.now_ns : &steady_now_ns) {
  std::size_t lanes = config.lanes;
  if (lanes == 0)
    lanes = std::max<std::size_t>(1, std::thread::hardware_concurrency()) + 1;
  rings_.reserve(lanes);
  for (std::size_t i = 0; i < lanes; ++i)
    rings_.push_back(std::make_unique<EventRing>(config.ring_capacity));
  activities_ = std::vector<LaneActivity>(lanes);
}

std::uint64_t Tracer::now() const noexcept { return now_ns_(); }

void Tracer::publish_activity(std::size_t slot, TraceEventKind kind,
                              std::uint64_t a, std::uint64_t b,
                              const char* file,
                              std::uint32_t line) noexcept {
  LaneActivity& act = activities_[slot];
  // Seqlock write: odd while mid-update; release publish on both stores so
  // the sampler's acquire reads see a consistent slot or retry. The fields
  // themselves are relaxed atomics — ordering comes from seq.
  const std::uint64_t seq = act.seq.load(std::memory_order_relaxed);
  act.seq.store(seq + 1, std::memory_order_release);
  switch (kind) {
    case TraceEventKind::kChunkStart:
      act.file.store(file, std::memory_order_relaxed);
      act.line.store(line, std::memory_order_relaxed);
      act.lo.store(a, std::memory_order_relaxed);
      act.hi.store(b, std::memory_order_relaxed);
      act.parked.store(false, std::memory_order_relaxed);
      break;
    case TraceEventKind::kChunkFinish:
      act.file.store(nullptr, std::memory_order_relaxed);
      act.line.store(0, std::memory_order_relaxed);
      act.lo.store(0, std::memory_order_relaxed);
      act.hi.store(0, std::memory_order_relaxed);
      act.parked.store(false, std::memory_order_relaxed);
      break;
    case TraceEventKind::kPark:
      act.parked.store(true, std::memory_order_relaxed);
      break;
    case TraceEventKind::kUnpark:
      act.parked.store(false, std::memory_order_relaxed);
      break;
    default:
      break;
  }
  act.seq.store(seq + 2, std::memory_order_release);
}

void Tracer::on_event(TraceEventKind kind, const void* obj, std::uint64_t a,
                      std::uint64_t b, std::size_t lane, const char* file,
                      std::uint32_t line) noexcept {
  const std::size_t slot = lane < rings_.size() ? lane : rings_.size() - 1;
  TraceRecord record;
  record.ns = now_ns_();
  record.a = a;
  record.b = b;
  record.obj = obj;
  record.file = file;
  record.line = line;
  record.lane = static_cast<std::uint32_t>(lane);
  record.kind = kind;
  rings_[slot]->push(record);
  switch (kind) {
    case TraceEventKind::kChunkStart:
    case TraceEventKind::kChunkFinish:
    case TraceEventKind::kPark:
    case TraceEventKind::kUnpark:
      publish_activity(slot, kind, a, b, file, line);
      break;
    default:
      break;
  }
}

Trace Tracer::take() const {
  Trace trace;
  trace.lanes = rings_.size();
  for (const auto& ring : rings_) {
    ring->drain(trace.events);
    trace.recorded += ring->recorded();
    trace.dropped += ring->dropped();
  }
  std::stable_sort(trace.events.begin(), trace.events.end(),
                   [](const TraceRecord& x, const TraceRecord& y) {
                     return x.ns < y.ns;
                   });
  return trace;
}

void Tracer::reset() noexcept {
  for (const auto& ring : rings_) ring->reset();
  for (LaneActivity& act : activities_) {
    const std::uint64_t seq = act.seq.load(std::memory_order_relaxed);
    act.seq.store(seq + 1, std::memory_order_release);
    act.file.store(nullptr, std::memory_order_relaxed);
    act.line.store(0, std::memory_order_relaxed);
    act.lo.store(0, std::memory_order_relaxed);
    act.hi.store(0, std::memory_order_relaxed);
    act.parked.store(false, std::memory_order_relaxed);
    act.seq.store(seq + 2, std::memory_order_release);
  }
}

ScopedTrace::ScopedTrace(Tracer& tracer) : tracer_(tracer) {
  if (trace_hook() != nullptr)
    throw Error("ScopedTrace: a runtime hook is already installed");
  set_trace_hook(&tracer_);
}

ScopedTrace::~ScopedTrace() {
  set_trace_hook(nullptr);
}

}  // namespace pe::observe
