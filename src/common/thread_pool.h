#ifndef TRAP_COMMON_THREAD_POOL_H_
#define TRAP_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace trap::common {

// Fixed-size thread pool for coarse-grained independent work: whole
// reference-advisor assessments, concurrent callers in tests. There is no
// work stealing and no futures: the single primitive is a parallel-for,
// which hands out [0, n) one iteration at a time across the pool's workers
// plus the calling thread via a shared atomic cursor and blocks until every
// iteration has run. The library's what-if, true-cost and advisor loops do
// not use it: they run serially on their caller (DESIGN.md §3a).
//
// Threading contract:
//   * The loop body must be safe to invoke concurrently from multiple
//     threads; iterations may run in any order.
//   * Results must not depend on iteration order. Callers that reduce over
//     the results write into pre-sized slots and fold them serially
//     afterwards, which keeps outputs bit-identical across thread counts.
//   * Nested use is rejected: a parallel-for issued from inside another
//     parallel-for (worker or participating caller) does not re-enter the
//     pool — it runs its whole loop serially on the current thread, since
//     re-entry could deadlock on the pool's single in-flight batch.
//   * The first exception thrown by the body is captured and rethrown on
//     the calling thread once the loop has drained; remaining iterations
//     still run (the library itself is exception-free, but tests and user
//     callbacks may throw).
class ThreadPool {
 public:
  // Spawns `num_threads - 1` workers; the caller participates in every
  // batch, so `num_threads == 1` means fully serial execution.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Total execution lanes (workers + the calling thread).
  int num_threads() const { return static_cast<int>(workers_.size()) + 1; }

  // Runs fn(0), ..., fn(n-1) across the pool. Blocks until done. Zero items
  // is a no-op. A pool without workers, or a nested call, runs the loop
  // inline on the calling thread without touching the pool's locks.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  // True while the current thread is executing iterations of some batch
  // (either as a pool worker or as the submitting caller).
  static bool InParallelLoop();

 private:
  // First-exception slot; the mutex is only touched when a body throws.
  struct ErrorSlot {
    std::mutex mu;
    std::exception_ptr error;
    void Capture() noexcept;
    void Rethrow();
  };

  // Reusable control block of the (single) in-flight batch. The atomics sit
  // on their own cache lines so cursor claims do not false-share with the
  // read-only descriptor fields or with each other.
  struct Batch {
    size_t n = 0;
    const std::function<void(size_t)>* fn = nullptr;
    alignas(64) std::atomic<size_t> next{0};       // next unclaimed iteration
    alignas(64) std::atomic<size_t> remaining{0};  // iterations not finished
    ErrorSlot error;
  };

  void RunBatch(Batch& batch);
  void WorkerLoop(const std::stop_token& stop);

  std::mutex mu_;  // guards gen_, active_, done_, participants_
  std::condition_variable_any cv_;   // workers: a new generation was armed
  std::condition_variable done_cv_;  // caller: done && participants_ == 0
  Batch batch_;                      // reusable; valid while active_
  std::uint64_t gen_ = 0;            // bumped per batch; workers track it
  bool active_ = false;
  bool done_ = false;
  int participants_ = 0;  // workers currently inside RunBatch
  std::mutex submit_mu_;  // serializes external submitters
  std::vector<std::jthread> workers_;
};

// Process-wide pool, created on first use. Sized by the TRAP_THREADS
// environment variable when set (clamped to [1, 256]); otherwise by
// std::thread::hardware_concurrency().
ThreadPool& GlobalPool();

// Convenience: GlobalPool().ParallelFor(n, fn).
void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

}  // namespace trap::common

#endif  // TRAP_COMMON_THREAD_POOL_H_
