// Fixed-size thread-pool execution layer — the ONLY place in the tree that
// may create threads (enforced by tfl-lint's raw-thread rule). Design goals,
// in order:
//
//   1. Determinism. The chunk grid handed to run_chunks()/parallel_for()
//      never depends on the pool size, and callers that combine per-chunk
//      results do so serially in chunk-index order (ordered_reduce). Under
//      that discipline threads=1 and threads=N produce bit-identical floats.
//   2. Zero overhead when off. A pool of size 1 spawns no threads and runs
//      every chunk inline on the caller; global_pool() returns nullptr until
//      set_global_threads(n >= 2) is called.
//   3. Safe nesting. A parallel region entered from inside a pool worker
//      (e.g. a GEMM inside a parallel FedAvg client) runs inline on that
//      worker instead of deadlocking on the shared pool.
//
// This header lives in the `common` layer and therefore cannot use the obs
// macros; call sites (fl/core/tradefl/bench) own the instrumentation.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace tradefl {

/// A fixed-size pool executing one "batch" of indexed chunks at a time. The
/// calling thread participates as worker 0; a pool constructed with
/// `threads == 1` spawns nothing. Chunks are assigned statically
/// (round-robin by index), never work-stolen, so the chunk -> worker mapping
/// is deterministic for a given pool size.
class ThreadPool {
 public:
  /// Total worker count including the caller; clamped to >= 1.
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total workers (spawned threads + the participating caller).
  [[nodiscard]] std::size_t size() const { return worker_count_; }

  /// Chunks of the in-flight batch not yet finished (0 when idle).
  [[nodiscard]] std::size_t queue_depth() const;

  /// Runs fn(chunk_index, worker_index) for every chunk_index in [0, count).
  /// Blocks until all chunks finish. Worker 0 is the calling thread. Nested
  /// calls from pool workers execute inline. The first exception thrown by a
  /// chunk is rethrown here after the batch drains.
  void run_chunks(std::size_t count, const std::function<void(std::size_t, std::size_t)>& fn);

  /// parallel_for over [begin, end): body(lo, hi, worker_index) per chunk of
  /// at most `grain` indices. The chunk grid depends only on the range and
  /// the grain — never on the pool size.
  void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                    const std::function<void(std::size_t, std::size_t, std::size_t)>& body);

 private:
  void worker_loop(std::size_t worker_index);

  std::size_t worker_count_ = 1;
  std::vector<std::thread> threads_;

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;  // workers: a new batch is published
  std::condition_variable done_cv_;  // caller: the batch has drained
  std::uint64_t generation_ = 0;
  std::size_t batch_count_ = 0;
  const std::function<void(std::size_t, std::size_t)>* batch_fn_ = nullptr;
  std::size_t remaining_ = 0;
  std::exception_ptr first_error_;
  bool shutdown_ = false;
};

/// Number of chunks parallel_for produces for a range of `total` indices.
[[nodiscard]] std::size_t chunk_count(std::size_t total, std::size_t grain);

/// Worker index of the calling thread: its index inside a pool worker, 0 on
/// any other thread. The serial fallbacks below hand it to their bodies.
[[nodiscard]] std::size_t current_worker_index();

/// Serial fallbacks: every parallel entry point accepts a nullable pool so
/// call sites read `run_chunks(global_pool(), ...)` without branching. They
/// are templates so that with no pool the body runs as a direct call: only a
/// pooled region wraps it in a std::function, which allocates once its
/// captures outgrow the small-object buffer.
template <typename Fn>
void run_chunks(ThreadPool* pool, std::size_t count, const Fn& fn) {
  if (pool != nullptr) {
    pool->run_chunks(count, fn);
    return;
  }
  const std::size_t worker = current_worker_index();
  for (std::size_t chunk = 0; chunk < count; ++chunk) fn(chunk, worker);
}

template <typename Body>
void parallel_for(ThreadPool* pool, std::size_t begin, std::size_t end, std::size_t grain,
                  const Body& body) {
  if (pool != nullptr) {
    pool->parallel_for(begin, end, grain, body);
    return;
  }
  if (end <= begin) return;
  const std::size_t step = std::max<std::size_t>(1, grain);
  const std::size_t worker = current_worker_index();
  for (std::size_t lo = begin; lo < end; lo += step) body(lo, std::min(end, lo + step), worker);
}

/// Maps chunk -> T in parallel, then folds serially in chunk-index order:
/// the reduction order (and hence every float rounding step) is identical
/// for any pool size. `map(chunk, worker)` must be pure per chunk;
/// `reduce(acc, value)` mutates the accumulator.
template <typename T, typename Map, typename Reduce>
T ordered_reduce(ThreadPool* pool, std::size_t count, T init, const Map& map,
                 const Reduce& reduce) {
  std::vector<T> partial(count);
  run_chunks(pool, count,
             [&](std::size_t chunk, std::size_t worker) { partial[chunk] = map(chunk, worker); });
  T accumulator = std::move(init);
  for (std::size_t chunk = 0; chunk < count; ++chunk) {
    reduce(accumulator, std::move(partial[chunk]));
  }
  return accumulator;
}

/// Ambient pool shared by the FL/CGBD hot paths, sized by the CLI/bench
/// `threads=N` option. Call from the main thread only (the pool is torn down
/// and rebuilt). n <= 1 disables parallelism: global_pool() returns nullptr.
/// A PoolBudgetScope on the calling thread overrides both accessors.
void set_global_threads(std::size_t threads);
[[nodiscard]] std::size_t global_threads();
[[nodiscard]] ThreadPool* global_pool();

/// While alive on a thread, global_pool()/global_threads() answer with this
/// scope's pool instead of the process-wide one. The server carves per-session
/// thread budgets this way: each session worker installs a scope over its own
/// (possibly null = serial) pool, so concurrent sessions can never share —
/// and race on — the single ambient pool's batch slot. Scopes nest; the
/// innermost wins. The scope does not own the pool.
class PoolBudgetScope {
 public:
  explicit PoolBudgetScope(ThreadPool* pool);
  ~PoolBudgetScope();
  PoolBudgetScope(const PoolBudgetScope&) = delete;
  PoolBudgetScope& operator=(const PoolBudgetScope&) = delete;

 private:
  ThreadPool* previous_pool_;
  bool previous_active_;
};

/// A single named service thread (join-on-destroy). This is the sanctioned
/// way for long-lived components (the serve daemon's session workers and
/// watchdog) to get a thread without touching std::thread themselves — the
/// raw-thread lint rule keeps thread creation inside this translation unit.
/// Not for data-parallel fan-out; that is ThreadPool's job.
class WorkerThread {
 public:
  WorkerThread() = default;
  explicit WorkerThread(std::function<void()> fn);
  ~WorkerThread();

  WorkerThread(WorkerThread&&) noexcept = default;
  WorkerThread& operator=(WorkerThread&&) noexcept;
  WorkerThread(const WorkerThread&) = delete;
  WorkerThread& operator=(const WorkerThread&) = delete;

  [[nodiscard]] bool joinable() const { return thread_.joinable(); }
  void join();

 private:
  std::thread thread_;
};

}  // namespace tradefl
