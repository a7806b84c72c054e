#include "common/parallel.h"

#include <algorithm>
#include <memory>

namespace tradefl {
namespace {

// Worker identity of the current thread: 0 on any thread that is not a pool
// worker (including the main thread), the worker index inside worker_loop.
// Nested parallel regions use it so per-worker scratch stays consistent.
thread_local bool t_inside_pool_worker = false;
thread_local std::size_t t_worker_index = 0;

// Marks the current thread as executing pool chunks for a scope. The batch
// caller needs this as much as worker_loop does: a nested parallel region
// reached from one of the caller's own chunks must run inline, or it would
// publish a second batch over the one still in flight.
class InsidePoolScope {
 public:
  InsidePoolScope() : previous_(t_inside_pool_worker) { t_inside_pool_worker = true; }
  ~InsidePoolScope() { t_inside_pool_worker = previous_; }
  InsidePoolScope(const InsidePoolScope&) = delete;
  InsidePoolScope& operator=(const InsidePoolScope&) = delete;

 private:
  bool previous_;
};

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) : worker_count_(std::max<std::size_t>(1, threads)) {
  threads_.reserve(worker_count_ - 1);
  for (std::size_t w = 1; w < worker_count_; ++w) {
    threads_.emplace_back([this, w] { worker_loop(w); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& thread : threads_) thread.join();
}

std::size_t ThreadPool::queue_depth() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return remaining_;
}

void ThreadPool::worker_loop(std::size_t worker_index) {
  t_inside_pool_worker = true;
  t_worker_index = worker_index;
  std::uint64_t seen_generation = 0;
  for (;;) {
    const std::function<void(std::size_t, std::size_t)>* fn = nullptr;
    std::size_t count = 0;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [&] { return shutdown_ || generation_ != seen_generation; });
      if (shutdown_) return;
      seen_generation = generation_;
      fn = batch_fn_;
      count = batch_count_;
    }
    std::size_t completed = 0;
    std::exception_ptr error;
    for (std::size_t chunk = worker_index; chunk < count; chunk += worker_count_) {
      try {
        (*fn)(chunk, worker_index);
      } catch (...) {
        if (!error) error = std::current_exception();
      }
      ++completed;
    }
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (error && !first_error_) first_error_ = error;
      remaining_ -= completed;
      if (remaining_ == 0) done_cv_.notify_all();
    }
  }
}

void ThreadPool::run_chunks(std::size_t count,
                            const std::function<void(std::size_t, std::size_t)>& fn) {
  if (count == 0) return;
  // Inline when there is nothing to fan out to, or when called from inside a
  // pool worker: re-entering the shared pool from a worker would deadlock
  // (the batch slot is busy), and inline nesting keeps the chunk grid — and
  // therefore the float rounding — identical either way.
  if (threads_.empty() || count == 1 || t_inside_pool_worker) {
    for (std::size_t chunk = 0; chunk < count; ++chunk) fn(chunk, t_worker_index);
    return;
  }
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    batch_fn_ = &fn;
    batch_count_ = count;
    remaining_ = count;
    first_error_ = nullptr;
    ++generation_;
  }
  work_cv_.notify_all();
  // The caller is worker 0 and takes its round-robin share.
  std::size_t completed = 0;
  std::exception_ptr error;
  {
    const InsidePoolScope inside;  // nested regions in our chunks run inline
    for (std::size_t chunk = 0; chunk < count; chunk += worker_count_) {
      try {
        fn(chunk, 0);
      } catch (...) {
        if (!error) error = std::current_exception();
      }
      ++completed;
    }
  }
  std::exception_ptr batch_error;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (error && !first_error_) first_error_ = error;
    remaining_ -= completed;
    done_cv_.wait(lock, [&] { return remaining_ == 0; });
    batch_fn_ = nullptr;
    batch_count_ = 0;
    batch_error = first_error_;
    first_error_ = nullptr;
  }
  if (batch_error) std::rethrow_exception(batch_error);
}

void ThreadPool::parallel_for(
    std::size_t begin, std::size_t end, std::size_t grain,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& body) {
  if (end <= begin) return;
  const std::size_t step = std::max<std::size_t>(1, grain);
  const std::size_t chunks = chunk_count(end - begin, step);
  run_chunks(chunks, [&](std::size_t chunk, std::size_t worker) {
    const std::size_t lo = begin + chunk * step;
    const std::size_t hi = std::min(end, lo + step);
    body(lo, hi, worker);
  });
}

std::size_t chunk_count(std::size_t total, std::size_t grain) {
  const std::size_t step = std::max<std::size_t>(1, grain);
  return (total + step - 1) / step;
}

std::size_t current_worker_index() { return t_worker_index; }

namespace {

// Owned by the main thread: set_global_threads is documented main-thread-only,
// and every worker access goes through the raw pointer for the duration of a
// run_chunks batch, which the owning call strictly outlives.
std::unique_ptr<ThreadPool>& global_pool_storage() {
  static std::unique_ptr<ThreadPool> pool;
  return pool;
}

// Per-thread pool budget installed by PoolBudgetScope. The active flag is
// separate from the pointer because "override to serial" (nullptr) must be
// distinguishable from "no override".
thread_local bool t_pool_override_active = false;
thread_local ThreadPool* t_pool_override = nullptr;

}  // namespace

PoolBudgetScope::PoolBudgetScope(ThreadPool* pool)
    : previous_pool_(t_pool_override), previous_active_(t_pool_override_active) {
  t_pool_override = pool;
  t_pool_override_active = true;
}

PoolBudgetScope::~PoolBudgetScope() {
  t_pool_override = previous_pool_;
  t_pool_override_active = previous_active_;
}

WorkerThread::WorkerThread(std::function<void()> fn) : thread_(std::move(fn)) {}

WorkerThread::~WorkerThread() {
  if (thread_.joinable()) thread_.join();
}

WorkerThread& WorkerThread::operator=(WorkerThread&& other) noexcept {
  if (this != &other) {
    if (thread_.joinable()) thread_.join();
    thread_ = std::move(other.thread_);
  }
  return *this;
}

void WorkerThread::join() {
  if (thread_.joinable()) thread_.join();
}

void set_global_threads(std::size_t threads) {
  auto& pool = global_pool_storage();
  const std::size_t current = pool == nullptr ? 1 : pool->size();
  const std::size_t wanted = std::max<std::size_t>(1, threads);
  if (wanted == current) return;
  pool.reset();
  if (wanted >= 2) pool = std::make_unique<ThreadPool>(wanted);
}

std::size_t global_threads() {
  if (t_pool_override_active) {
    return t_pool_override == nullptr ? 1 : t_pool_override->size();
  }
  const auto& pool = global_pool_storage();
  return pool == nullptr ? 1 : pool->size();
}

ThreadPool* global_pool() {
  if (t_pool_override_active) return t_pool_override;
  return global_pool_storage().get();
}

}  // namespace tradefl
