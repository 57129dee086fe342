// Minimal thread pool with a blocking parallel_for.
//
// The pool is created once per process (see global_pool()) and shared by all
// kernels (GEMM, SpMM, gather).  Work is partitioned into contiguous index
// ranges, one per participating thread, which is the right granularity for
// the regular, bandwidth-bound loops in this library.
//
// Who fans out: precompute, training and the prefetcher, whose loops are
// large enough to amortize waking the workers.  Who runs inline: serving
// dispatchers (MicroBatcher), which open a SerialRegion — each replica's
// dispatcher is already one unit of parallelism, and a micro-batch forward
// is too small to pay for a pool round trip (docs/kernels.md, "Threading").
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace ppgnn {

class ThreadPool {
 public:
  // n_threads == 0 selects std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t n_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size() + 1; }  // workers + caller

  // Runs fn(begin, end) over disjoint subranges of [0, n) and returns when
  // every subrange is done.  fn must be safe to call concurrently on
  // disjoint ranges.  Only the workers that receive a subrange are woken;
  // a range that fits one part runs inline without touching the pool.
  //
  // Reentrancy: the pool handles one parallel_for at a time.  A call made
  // while another is in flight (e.g. from the prefetcher thread while the
  // trainer runs a GEMM), from inside a task, or inside a SerialRegion
  // executes fn(0, n) serially on the calling thread instead.
  //
  // Exceptions: if any subrange throws, parallel_for still waits for every
  // other subrange to finish, then rethrows the first exception on the
  // caller.  The pool stays usable afterwards.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t, std::size_t)>& fn);

 private:
  struct Task {
    const std::function<void(std::size_t, std::size_t)>* fn = nullptr;
    std::size_t begin = 0;
    std::size_t end = 0;
  };
  // One per worker: the worker sleeps on its own condition variable, so
  // handing out k tasks wakes exactly k workers.
  struct Slot {
    std::condition_variable cv;
    Task task;
  };

  void worker_loop(Slot& slot);

  std::vector<std::thread> workers_;
  std::unique_ptr<Slot[]> slots_;
  std::mutex submit_mu_;  // held for the duration of one parallel_for
  std::mutex mu_;         // guards slots_[*].task, pending_, error_, stop_
  std::condition_variable cv_done_;
  std::size_t pending_ = 0;     // worker tasks not yet finished this call
  std::exception_ptr error_;    // first exception thrown this call
  bool stop_ = false;
};

// Process-wide pool; lazily constructed, sized from hardware concurrency or
// the PPGNN_NUM_THREADS environment variable.
ThreadPool& global_pool();

// Convenience wrapper over global_pool().parallel_for.  Falls back to a
// serial loop for small n to avoid synchronization overhead.
void parallel_for(std::size_t n,
                  const std::function<void(std::size_t, std::size_t)>& fn,
                  std::size_t grain = 1024);

// Threads a parallel_for issued from this thread would use right now: 1
// inside a SerialRegion or a pool task, the global pool's size otherwise.
// Kernels size their blocking from it.
std::size_t parallel_width();

// While alive, every parallel_for on the constructing thread runs fn(0, n)
// inline.  Regions nest; each restores the state it found.
class SerialRegion {
 public:
  SerialRegion();
  ~SerialRegion();

  SerialRegion(const SerialRegion&) = delete;
  SerialRegion& operator=(const SerialRegion&) = delete;

 private:
  bool prev_;
};

}  // namespace ppgnn
