#include "common/thread_pool.h"

#include <cerrno>
#include <cstdlib>
#include <string>

#include "common/check.h"

namespace trap::common {

namespace {

// Set while a thread (worker or submitting caller) is executing iterations
// of a batch; nested parallel-for calls consult it to degrade to serial.
thread_local bool t_in_parallel_loop = false;

int ThreadsFromEnvironment() {
  int n = 0;
  if (const char* env = std::getenv("TRAP_THREADS"); env != nullptr) {
    char* end = nullptr;
    errno = 0;
    const long parsed = std::strtol(env, &end, 10);
    // A malformed or out-of-range TRAP_THREADS aborts loudly: silently
    // falling back to hardware_concurrency() would make e.g. a TSan run
    // pinned to 4 threads quietly use 64.
    TRAP_CHECK_MSG(end != env && *end == '\0' && errno == 0,
                   "TRAP_THREADS must be a decimal integer");
    TRAP_CHECK_MSG(parsed >= 0 && parsed <= 256,
                   "TRAP_THREADS must be in [0, 256] (0 = one per core)");
    n = static_cast<int>(parsed);
  }
  if (n == 0) {
    n = static_cast<int>(std::thread::hardware_concurrency());
  }
  if (n < 1) n = 1;
  if (n > 256) n = 256;
  return n;
}

}  // namespace

void ThreadPool::ErrorSlot::Capture() noexcept {
  std::lock_guard<std::mutex> lock(mu);
  if (!error) error = std::current_exception();
}

void ThreadPool::ErrorSlot::Rethrow() {
  if (error) std::rethrow_exception(error);
}

ThreadPool::ThreadPool(int num_threads) {
  TRAP_CHECK(num_threads >= 1);
  workers_.reserve(static_cast<size_t>(num_threads - 1));
  for (int i = 0; i < num_threads - 1; ++i) {
    workers_.emplace_back(
        [this](std::stop_token stop) { WorkerLoop(stop); });
  }
}

ThreadPool::~ThreadPool() {
  for (std::jthread& w : workers_) w.request_stop();
  cv_.notify_all();
  // jthread joins on destruction.
}

bool ThreadPool::InParallelLoop() { return t_in_parallel_loop; }

void ThreadPool::RunBatch(Batch& batch) {
  bool was_in_loop = t_in_parallel_loop;
  t_in_parallel_loop = true;
  const size_t n = batch.n;
  for (size_t i = batch.next.fetch_add(1, std::memory_order_relaxed); i < n;
       i = batch.next.fetch_add(1, std::memory_order_relaxed)) {
    try {
      (*batch.fn)(i);
    } catch (...) {
      batch.error.Capture();
    }
    if (batch.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
      done_cv_.notify_one();
    }
  }
  t_in_parallel_loop = was_in_loop;
}

void ThreadPool::WorkerLoop(const std::stop_token& stop) {
  std::uint64_t seen_gen = 0;
  while (true) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, stop,
               [this, seen_gen] { return active_ && gen_ != seen_gen; });
      if (stop.stop_requested()) return;
      seen_gen = gen_;
      // Registered under mu_: the submitter retires the batch only after
      // observing participants_ == 0 under the same mutex, so a worker can
      // never enter a batch that is being torn down or re-armed.
      ++participants_;
    }
    RunBatch(batch_);
    {
      std::lock_guard<std::mutex> lock(mu_);
      --participants_;
      if (done_ && participants_ == 0) done_cv_.notify_one();
    }
  }
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  // Inline path: a pool without workers, or a nested call (re-entering the
  // pool while a batch is in flight could deadlock). No locks are taken and
  // no workers are woken.
  if (workers_.empty() || t_in_parallel_loop) {
    ErrorSlot error;
    bool was_in_loop = t_in_parallel_loop;
    t_in_parallel_loop = true;
    for (size_t i = 0; i < n; ++i) {
      try {
        fn(i);
      } catch (...) {
        error.Capture();
      }
    }
    t_in_parallel_loop = was_in_loop;
    error.Rethrow();
    return;
  }

  std::lock_guard<std::mutex> submit(submit_mu_);
  batch_.n = n;
  batch_.fn = &fn;
  batch_.next.store(0, std::memory_order_relaxed);
  batch_.remaining.store(n, std::memory_order_relaxed);
  batch_.error.error = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++gen_;
    active_ = true;
    done_ = false;
  }
  cv_.notify_all();
  RunBatch(batch_);
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(mu_);
    // Wait for the last iteration *and* for every worker to step out of
    // RunBatch: a worker that claimed into an exhausted cursor must not
    // still be touching batch_ when the next submitter re-arms it.
    done_cv_.wait(lock, [this] { return done_ && participants_ == 0; });
    active_ = false;
    error = batch_.error.error;
  }
  if (error) std::rethrow_exception(error);
}

ThreadPool& GlobalPool() {
  static ThreadPool* pool = new ThreadPool(ThreadsFromEnvironment());
  return *pool;
}

void ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  GlobalPool().ParallelFor(n, fn);
}

}  // namespace trap::common
