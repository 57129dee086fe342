#include "tensor/parallel.h"

#include <algorithm>
#include <cstdlib>
#include <utility>

namespace ppgnn {

namespace {
// True while the current thread is inside a parallel_for (as driver or as
// worker) or a SerialRegion — parallel_for calls must not touch the pool.
thread_local bool t_in_parallel_region = false;
}  // namespace

SerialRegion::SerialRegion() : prev_(t_in_parallel_region) {
  t_in_parallel_region = true;
}

SerialRegion::~SerialRegion() { t_in_parallel_region = prev_; }

ThreadPool::ThreadPool(std::size_t n_threads) {
  if (n_threads == 0) {
    n_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  const std::size_t n_workers = n_threads - 1;  // caller participates
  slots_ = std::make_unique<Slot[]>(n_workers);
  workers_.reserve(n_workers);
  for (std::size_t i = 0; i < n_workers; ++i) {
    workers_.emplace_back([this, i] { worker_loop(slots_[i]); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  for (std::size_t i = 0; i < workers_.size(); ++i) slots_[i].cv.notify_one();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop(Slot& slot) {
  const SerialRegion serial;  // a nested parallel_for runs inside the task
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lk(mu_);
      slot.cv.wait(lk, [&] { return stop_ || slot.task.fn != nullptr; });
      if (stop_) return;
      task = std::exchange(slot.task, Task{});
    }
    std::exception_ptr err;
    try {
      (*task.fn)(task.begin, task.end);
    } catch (...) {
      err = std::current_exception();
    }
    std::lock_guard<std::mutex> lk(mu_);
    if (err && !error_) error_ = std::move(err);
    if (--pending_ == 0) cv_done_.notify_one();
  }
}

void ThreadPool::parallel_for(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& fn) {
  if (n == 0) return;
  const std::size_t chunk = (n + size() - 1) / size();
  const std::size_t n_parts = (n + chunk - 1) / chunk;
  // Only one parallel_for may drive the workers; a one-part range, a
  // nested call from inside a task or a SerialRegion, and a concurrent
  // caller from another thread run serially instead.
  if (n_parts == 1 || t_in_parallel_region) {
    fn(0, n);
    return;
  }
  std::unique_lock<std::mutex> submit(submit_mu_, std::try_to_lock);
  if (!submit.owns_lock()) {
    fn(0, n);
    return;
  }
  const SerialRegion region;
  // Caller runs part 0; workers 0..n_parts-2 run parts 1..n_parts-1.
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (std::size_t part = 1; part < n_parts; ++part) {
      slots_[part - 1].task = {&fn, part * chunk,
                               std::min(n, (part + 1) * chunk)};
    }
    pending_ = n_parts - 1;
  }
  for (std::size_t part = 1; part < n_parts; ++part) {
    slots_[part - 1].cv.notify_one();
  }
  try {
    fn(0, chunk);
  } catch (...) {
    std::lock_guard<std::mutex> lk(mu_);
    if (!error_) error_ = std::current_exception();
  }
  // Always wait: the workers hold a pointer to fn until they finish.
  std::exception_ptr err;
  {
    std::unique_lock<std::mutex> lk(mu_);
    cv_done_.wait(lk, [&] { return pending_ == 0; });
    err = std::exchange(error_, nullptr);
  }
  if (err) std::rethrow_exception(err);
}

ThreadPool& global_pool() {
  static ThreadPool pool([] {
    if (const char* env = std::getenv("PPGNN_NUM_THREADS")) {
      const long v = std::strtol(env, nullptr, 10);
      if (v > 0) return static_cast<std::size_t>(v);
    }
    return std::size_t{0};
  }());
  return pool;
}

void parallel_for(std::size_t n,
                  const std::function<void(std::size_t, std::size_t)>& fn,
                  std::size_t grain) {
  if (n == 0) return;
  if (n < grain || t_in_parallel_region) {
    fn(0, n);
    return;
  }
  global_pool().parallel_for(n, fn);
}

std::size_t parallel_width() {
  return t_in_parallel_region ? 1 : global_pool().size();
}

}  // namespace ppgnn
