#include "perfeng/analysis/access_checker.hpp"

#include <algorithm>
#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "perfeng/common/error.hpp"

namespace pe::analysis {

namespace {

/// Active-chunk stack of the calling thread. A stack (not a single slot)
/// so nested parallel loops attribute records to the innermost chunk.
/// Process-wide is safe: only one checker can be installed at a time.
thread_local std::vector<void*> t_active_chunks;

std::string where_string(const char* file, unsigned line) {
  if (file == nullptr || *file == '\0') return "<unknown>";
  return std::string(file) + ":" + std::to_string(line);
}

}  // namespace

void AccessChecker::on_event(TraceEventKind kind, const void* obj,
                             std::uint64_t a, std::uint64_t b,
                             std::size_t lane, const char* /*file*/,
                             std::uint32_t /*line*/) noexcept {
  switch (kind) {
    case TraceEventKind::kLoopBegin:
      begin_loop(obj);
      break;
    case TraceEventKind::kLoopEnd: {
      std::lock_guard lock(mutex_);
      live_loops_.erase(obj);
      break;
    }
    case TraceEventKind::kChunkStart:
      begin_chunk(obj, a, b, lane);
      break;
    case TraceEventKind::kChunkFinish:
      if (!t_active_chunks.empty()) t_active_chunks.pop_back();
      break;
    default:
      break;
  }
}

void AccessChecker::begin_loop(const void* key) {
  // kLoopBegin fires on the launching thread, so the innermost chunk on
  // this thread's stack — if any — is the chunk the new loop is nested
  // inside; its path becomes the new loop's prefix.
  LiveLoop loop;
  if (!t_active_chunks.empty())
    loop.prefix = static_cast<ChunkLog*>(t_active_chunks.back())->id.path;
  std::lock_guard lock(mutex_);
  loop.id = ++loops_;  // 1-based; 0 stays "no loop"
  live_loops_.insert_or_assign(key, std::move(loop));
}

void AccessChecker::begin_chunk(const void* key, std::size_t lo,
                                std::size_t hi, std::size_t lane) {
  ChunkLog* log = nullptr;
  {
    std::lock_guard lock(mutex_);
    chunks_.emplace_back();
    log = &chunks_.back();
    log->id.index = next_chunk_++;
    log->id.lo = lo;
    log->id.hi = hi;
    log->id.lane = lane;
    // A loop that began before the checker was installed has no id.
    const auto it = live_loops_.find(key);
    if (it != live_loops_.end()) {
      log->id.loop = it->second.id;
      log->id.path = it->second.prefix;
    }
    log->id.path.push_back({log->id.loop, log->id.index});
  }
  t_active_chunks.push_back(log);
}

void AccessChecker::record(const void* base, std::size_t lo_byte,
                           std::size_t hi_byte, bool is_write,
                           const char* tag, const char* file,
                           unsigned line) noexcept {
  if (lo_byte >= hi_byte) return;  // empty ranges carry no information
  if (t_active_chunks.empty()) {
    // Outside any chunk: sequential with every loop, so never a race.
    unscoped_records_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  auto& log = *static_cast<ChunkLog*>(t_active_chunks.back());
  // The log belongs to this thread until kChunkFinish, so no lock. Coalesce
  // with the previous interval when a sequential sweep extends it.
  if (!log.intervals.empty()) {
    Interval& last = log.intervals.back();
    if (last.base == base && last.write == is_write && last.tag == tag &&
        lo_byte <= last.hi_byte && lo_byte >= last.lo_byte) {
      last.hi_byte = std::max(last.hi_byte, hi_byte);
      return;
    }
  }
  log.intervals.push_back({base, tag, lo_byte, hi_byte, is_write, file,
                           line});
}

RaceReport AccessChecker::report() const {
  RaceReport rep;
  std::lock_guard lock(mutex_);
  rep.loops = loops_;
  rep.chunks = chunks_.size();
  rep.unscoped_records = unscoped_records_.load(std::memory_order_relaxed);

  // Group intervals by (root loop, buffer): everything under one
  // top-level loop shares a concurrency scope (nested loops included);
  // different root loops are barrier-separated. Whether two chunks in a
  // group can actually race is decided per pair from their nesting paths.
  struct Item {
    const Interval* iv;
    const ChunkLog* chunk;
  };
  std::map<std::pair<std::size_t, const void*>, std::vector<Item>> groups;
  for (const ChunkLog& chunk : chunks_) {
    rep.intervals += chunk.intervals.size();
    const std::size_t root =
        chunk.id.path.empty() ? chunk.id.loop : chunk.id.path.front().loop;
    for (const Interval& iv : chunk.intervals)
      groups[{root, iv.base}].push_back({&iv, &chunk});
  }

  for (auto& [key, items] : groups) {
    std::sort(items.begin(), items.end(), [](const Item& a, const Item& b) {
      return a.iv->lo_byte < b.iv->lo_byte;
    });
    // Left-to-right sweep with an active set; one conflict per chunk pair.
    std::vector<Item> active;
    std::set<std::pair<std::size_t, std::size_t>> reported;
    for (const Item& item : items) {
      std::erase_if(active, [&](const Item& a) {
        return a.iv->hi_byte <= item.iv->lo_byte;
      });
      for (const Item& other : active) {
        if (other.chunk == item.chunk) continue;
        if (!other.iv->write && !item.iv->write) continue;
        if (!chunks_may_race(other.chunk->id, item.chunk->id)) continue;
        const auto pair = std::minmax(other.chunk->id.index,
                                      item.chunk->id.index);
        if (!reported.insert(pair).second) continue;
        // Deterministic order: the lower chunk index reports first.
        const Item& first =
            other.chunk->id.index < item.chunk->id.index ? other : item;
        const Item& second = &first == &other ? item : other;
        Conflict c;
        c.buffer = item.iv->tag != nullptr ? item.iv->tag : "<unnamed>";
        c.base = key.second;
        c.lo_byte = std::max(other.iv->lo_byte, item.iv->lo_byte);
        c.hi_byte = std::min(other.iv->hi_byte, item.iv->hi_byte);
        c.write_write = other.iv->write && item.iv->write;
        c.same_lane = other.chunk->id.lane == item.chunk->id.lane;
        c.first = first.chunk->id;
        c.second = second.chunk->id;
        c.first_where = where_string(first.iv->file, first.iv->line);
        c.second_where = where_string(second.iv->file, second.iv->line);
        rep.conflicts.push_back(std::move(c));
      }
      active.push_back(item);
    }
  }

  std::sort(rep.conflicts.begin(), rep.conflicts.end(),
            [](const Conflict& a, const Conflict& b) {
              if (a.first.loop != b.first.loop)
                return a.first.loop < b.first.loop;
              if (a.first.index != b.first.index)
                return a.first.index < b.first.index;
              return a.second.index < b.second.index;
            });
  return rep;
}

void AccessChecker::reset() {
  std::lock_guard lock(mutex_);
  PE_REQUIRE(t_active_chunks.empty(),
             "reset while a chunk is active on this thread");
  chunks_.clear();
  live_loops_.clear();
  next_chunk_ = 0;
  loops_ = 0;
  unscoped_records_.store(0, std::memory_order_relaxed);
}

ScopedAccessCheck::ScopedAccessCheck(AccessChecker& checker)
    : checker_(checker) {
  if (trace_hook() != nullptr)
    throw Error("ScopedAccessCheck: a runtime hook is already installed");
  set_trace_hook(&checker_);
}

ScopedAccessCheck::~ScopedAccessCheck() { set_trace_hook(nullptr); }

}  // namespace pe::analysis
