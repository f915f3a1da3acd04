#include "perfeng/parallel/thread_pool.hpp"

#include <algorithm>
#include <exception>
#include <latch>

#include "perfeng/common/error.hpp"
#include "perfeng/common/fault_hook.hpp"
#include "perfeng/common/trace_hook.hpp"

// Happens-before protocol (the TSan gate in docs/analysis.md holds the
// whole suite to zero reports against these edges):
//
//   publish → steal    every deque operation, own or stolen, happens under
//                      that deque's mutex — job payloads cross threads
//                      through the lock, never bare.
//   submit → park      `pending_` and `sleepers_` are seq_cst so the
//                      "increment pending, then check sleepers" producer
//                      and the "register sleeper, then re-check pending"
//                      consumer cannot both miss each other; the cv wait
//                      re-checks both under `mutex_`.
//   work → completion  bulk loops retire chunks with a release
//                      fetch_sub on `remaining` and the waiter re-reads
//                      it acquire (run_on_all uses std::latch), so chunk
//                      side effects are visible to whoever observes zero.
//   stats              `steals_` / absorbed-fault counters are relaxed:
//                      monotonic telemetry, never used for ordering.

namespace pe {

namespace {

/// Identity of the current thread within a pool, so `submit` can route to
/// the caller's own deque and `this_lane` can index lane-private scratch.
struct WorkerIdentity {
  const ThreadPool* pool = nullptr;
  std::size_t index = 0;
};
thread_local WorkerIdentity t_worker;

/// The job this thread is running, and whether its kTaskFinish is still
/// owed (its kTaskStart went to an installed hook and no finish has been
/// emitted yet; see ThreadPool::trace_task_finish).
struct OpenTask {
  const void* arg = nullptr;
  bool finish_owed = false;
};
thread_local OpenTask t_open_task;

/// Per-thread xorshift for randomized victim selection; cheaper and less
/// contended than a shared RNG, and stealing needs no reproducibility.
std::size_t next_victim_seed() {
  thread_local std::uint64_t state =
      0x9e3779b97f4a7c15ULL ^
      std::hash<std::thread::id>{}(std::this_thread::get_id());
  state ^= state << 13;
  state ^= state >> 7;
  state ^= state << 17;
  return static_cast<std::size_t>(state);
}

/// Deque lock that reports contention to an installed tracer: a failed
/// try_lock means this acquisition had to wait behind another lane. The
/// uncontended path costs the same single CAS as a plain lock.
std::unique_lock<std::mutex> lock_traced(std::mutex& mu, std::size_t lane) {
  std::unique_lock<std::mutex> lock(mu, std::try_to_lock);
  if (!lock.owns_lock()) {
    PE_TRACE_EMIT(TraceEventKind::kContended, &mu, 0, 0, lane);
    lock.lock();
  }
  return lock;
}

}  // namespace

// --- ring-buffer deque ------------------------------------------------------

void ThreadPool::Deque::push_bottom_locked(Job job) {
  if (ring.empty()) ring.resize(64);
  const std::size_t cap = ring.size();
  if (bottom - top == cap) {
    // Grow geometrically so steady-state pushes never allocate.
    std::vector<Job> bigger(cap * 2);
    for (std::size_t k = top; k != bottom; ++k)
      bigger[k & (bigger.size() - 1)] = ring[k & (cap - 1)];
    ring = std::move(bigger);
  }
  ring[bottom & (ring.size() - 1)] = job;
  ++bottom;
}

ThreadPool::Job ThreadPool::Deque::pop_bottom(std::size_t lane) {
  const auto lock = lock_traced(mu, lane);
  if (bottom == top) return {};
  --bottom;
  return ring[bottom & (ring.size() - 1)];
}

ThreadPool::Job ThreadPool::Deque::steal_top(std::size_t lane) {
  const auto lock = lock_traced(mu, lane);
  if (bottom == top) return {};
  Job job = ring[top & (ring.size() - 1)];
  ++top;
  return job;
}

std::size_t ThreadPool::Deque::purge_locked(const void* arg) {
  const std::size_t mask = ring.empty() ? 0 : ring.size() - 1;
  std::size_t write = top;
  for (std::size_t read = top; read != bottom; ++read) {
    const Job job = ring[read & mask];
    if (job.arg != arg) {
      ring[write & mask] = job;
      ++write;
    }
  }
  const std::size_t removed = bottom - write;
  bottom = write;
  return removed;
}

// --- pool lifecycle ---------------------------------------------------------

ThreadPool::ThreadPool(std::size_t threads) {
  PE_REQUIRE(threads >= 1, "pool needs at least one worker");
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i)
    workers_.push_back(std::make_unique<Worker>());
  for (std::size_t i = 0; i < threads; ++i)
    workers_[i]->thread = std::thread([this, i] { worker_loop(i); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    closing_.store(true, std::memory_order_seq_cst);
  }
  cv_.notify_all();
  for (auto& w : workers_) w->thread.join();
}

void ThreadPool::ensure_open() const {
  if (closing_.load(std::memory_order_acquire))
    throw Error("ThreadPool: submit after shutdown");
}

std::size_t ThreadPool::default_thread_count() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

std::size_t ThreadPool::this_lane() const noexcept {
  return t_worker.pool == this ? t_worker.index : workers_.size();
}

// --- submission -------------------------------------------------------------

void ThreadPool::enqueue(Job job) {
  ensure_open();
  // Count the job before it becomes stealable: a consumer may pop it the
  // instant it lands, and `pending_` must never underflow.
  pending_.fetch_add(1, std::memory_order_seq_cst);
  // Emit before the push: a worker may claim the job the instant it lands,
  // and its kTaskStart must find this kSubmit earlier in the trace.
  PE_TRACE_EMIT(TraceEventKind::kSubmit, job.arg, 1, 0, this_lane());
  if (t_worker.pool == this) {
    Deque& mine = workers_[t_worker.index]->deque;
    const auto lock = lock_traced(mine.mu, t_worker.index);
    mine.push_bottom_locked(job);
  } else {
    std::lock_guard lock(mutex_);
    inbox_.push_back(job);
  }
  announce(1);
}

std::size_t ThreadPool::bulk_broadcast(Job job) {
  ensure_open();
  const std::size_t copies = workers_.size();
  pending_.fetch_add(copies, std::memory_order_seq_cst);
  // Emit before the pushes (see enqueue): claimed copies' kTaskStart
  // events must sort after the one kSubmit they all correlate with.
  PE_TRACE_EMIT(TraceEventKind::kSubmit, job.arg, copies, 0, this_lane());
  for (auto& w : workers_) {
    const auto lock = lock_traced(w->deque.mu, this_lane());
    w->deque.push_bottom_locked(job);
  }
  announce(copies);
  return copies;
}

std::size_t ThreadPool::bulk_purge(const void* arg) {
  std::size_t removed = 0;
  for (auto& w : workers_) {
    std::lock_guard lock(w->deque.mu);
    removed += w->deque.purge_locked(arg);
  }
  {
    std::lock_guard lock(mutex_);
    const auto is_mine = [arg](const Job& job) { return job.arg == arg; };
    const auto cut = std::remove_if(inbox_.begin(), inbox_.end(), is_mine);
    removed += static_cast<std::size_t>(inbox_.end() - cut);
    inbox_.erase(cut, inbox_.end());
  }
  if (removed > 0) pending_.fetch_sub(removed, std::memory_order_seq_cst);
  return removed;
}

void ThreadPool::enqueue_pinned(std::size_t worker, Job job) {
  // Pinned jobs are deliberately *not* counted in pending_: only their
  // owner can run them, so waking thieves for them would spin the pool.
  {
    std::lock_guard lock(workers_[worker]->pinned_mu);
    workers_[worker]->pinned.push_back(job);
  }
  std::lock_guard lock(mutex_);
  cv_.notify_all();
}

void ThreadPool::announce(std::size_t jobs) noexcept {
  if (sleepers_.load(std::memory_order_seq_cst) == 0) return;
  std::lock_guard lock(mutex_);
  if (jobs == 1) {
    cv_.notify_one();
  } else {
    cv_.notify_all();
  }
}

// --- worker loop ------------------------------------------------------------

ThreadPool::Job ThreadPool::find_work(std::size_t index) {
  Worker& me = *workers_[index];
  {
    std::lock_guard lock(me.pinned_mu);
    if (!me.pinned.empty()) {
      Job job = me.pinned.front();
      me.pinned.pop_front();
      return job;
    }
  }
  if (Job job = me.deque.pop_bottom(index)) {
    pending_.fetch_sub(1, std::memory_order_seq_cst);
    return job;
  }
  {
    std::lock_guard lock(mutex_);
    if (!inbox_.empty()) {
      Job job = inbox_.front();
      inbox_.pop_front();
      pending_.fetch_sub(1, std::memory_order_seq_cst);
      return job;
    }
  }
  const std::size_t n = workers_.size();
  if (n > 1) {
    const std::size_t start = next_victim_seed() % n;
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t victim = (start + k) % n;
      if (victim == index) continue;
      if (Job job = workers_[victim]->deque.steal_top(index)) {
        pending_.fetch_sub(1, std::memory_order_seq_cst);
        steals_.fetch_add(1, std::memory_order_relaxed);
        PE_TRACE_EMIT(TraceEventKind::kSteal, job.arg, victim, 0, index);
        return job;
      }
    }
  }
  return {};
}

void ThreadPool::run_job(Job job) noexcept {
  // Chaos site: an injected worker fault is absorbed (and counted), never
  // allowed to drop the job — dropping would leave a future forever
  // unready, or a bulk loop's completion latch forever short.
  try {
    fault_point(fault_sites::kPoolWorker);
  } catch (...) {
    absorbed_faults_.fetch_add(1, std::memory_order_relaxed);
  }
  // Packaged tasks carry their exceptions through the future and bulk jobs
  // capture theirs in the loop record; anything that escapes anyway must
  // not take down this worker.
  TraceHook* const trace = detail::trace_hook_fast();
  PE_TRACE_EMIT_CACHED(trace, TraceEventKind::kTaskStart, job.arg, 0, 0,
                       t_worker.index, nullptr, 0);
  t_open_task = {job.arg, trace != nullptr};
  try {
    job.fn(job.arg, t_worker.index);
  } catch (...) {
    escaped_exceptions_.fetch_add(1, std::memory_order_relaxed);
  }
  trace_task_finish();  // no-op when the job already closed its trace
}

void ThreadPool::trace_task_finish() noexcept {
  if (!t_open_task.finish_owed) return;
  t_open_task.finish_owed = false;
  PE_TRACE_EMIT(TraceEventKind::kTaskFinish, t_open_task.arg, 0, 0,
                t_worker.index);
}

void ThreadPool::worker_loop(std::size_t index) {
  t_worker = {this, index};
  unsigned idle_rounds = 0;
  for (;;) {
    if (Job job = find_work(index)) {
      idle_rounds = 0;
      run_job(job);
      continue;
    }
    // Exponential backoff: rescan a few times, then yield increasingly
    // often, then park on the condition variable.
    ++idle_rounds;
    if (idle_rounds <= 4) continue;
    if (idle_rounds <= 32) {
      std::this_thread::yield();
      continue;
    }
    std::unique_lock lock(mutex_);
    sleepers_.fetch_add(1, std::memory_order_seq_cst);
    PE_TRACE_EMIT(TraceEventKind::kPark, this, 0, 0, index);
    cv_.wait(lock, [&] {
      if (closing_.load(std::memory_order_seq_cst)) return true;
      if (pending_.load(std::memory_order_seq_cst) > 0) return true;
      std::lock_guard pinned_lock(workers_[index]->pinned_mu);
      return !workers_[index]->pinned.empty();
    });
    PE_TRACE_EMIT(TraceEventKind::kUnpark, this, 0, 0, index);
    sleepers_.fetch_sub(1, std::memory_order_seq_cst);
    if (closing_.load(std::memory_order_seq_cst) &&
        pending_.load(std::memory_order_seq_cst) == 0) {
      std::lock_guard pinned_lock(workers_[index]->pinned_mu);
      if (workers_[index]->pinned.empty()) return;
    }
    idle_rounds = 0;
  }
}

// --- run_on_all -------------------------------------------------------------

void ThreadPool::run_on_all(const std::function<void(std::size_t)>& fn) {
  ensure_open();
  const std::size_t n = workers_.size();
  struct RunAllState {
    const std::function<void(std::size_t)>& fn;
    std::latch all_started;
    std::atomic<std::size_t> remaining;
    std::mutex error_mu;
    std::exception_ptr first_error;
    RunAllState(const std::function<void(std::size_t)>& f, std::size_t lanes)
        : fn(f),
          all_started(static_cast<std::ptrdiff_t>(lanes)),
          remaining(lanes) {}
  };
  RunAllState state(fn, n);
  const Job job{+[](void* arg, std::size_t lane) {
                  auto& s = *static_cast<RunAllState*>(arg);
                  // Block until every worker holds its pinned job, so each
                  // of the n activities runs on a distinct thread.
                  s.all_started.arrive_and_wait();
                  try {
                    s.fn(lane);
                  } catch (...) {
                    std::lock_guard lock(s.error_mu);
                    if (!s.first_error)
                      s.first_error = std::current_exception();
                  }
                  trace_task_finish();
                  s.remaining.fetch_sub(1, std::memory_order_release);
                  s.remaining.notify_one();
                },
                &state};
  for (std::size_t w = 0; w < n; ++w) enqueue_pinned(w, job);
  // Wait for every lane before rethrowing: returning (or unwinding) early
  // would destroy the state and `fn` while workers still use them.
  for (;;) {
    const std::size_t left = state.remaining.load(std::memory_order_acquire);
    if (left == 0) break;
    state.remaining.wait(left, std::memory_order_acquire);
  }
  if (state.first_error) std::rethrow_exception(state.first_error);
}

}  // namespace pe
