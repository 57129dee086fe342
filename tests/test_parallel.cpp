#include "tensor/parallel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace ppgnn {
namespace {

// Pin the global pool to 4 threads before anything touches it, so the
// split-after-exception checks below see real fan-out on a one-core
// runner too.  overwrite=0 keeps an explicit outer setting in charge.
const bool g_pool_pinned = [] {
  ::setenv("PPGNN_NUM_THREADS", "4", 0);
  return true;
}();

// The (begin, end) ranges one global parallel_for hands to fn.
std::vector<std::pair<std::size_t, std::size_t>> global_split(std::size_t n) {
  std::mutex mu;
  std::vector<std::pair<std::size_t, std::size_t>> calls;
  parallel_for(n, [&](std::size_t lo, std::size_t hi) {
    std::lock_guard<std::mutex> lk(mu);
    calls.emplace_back(lo, hi);
  }, /*grain=*/1);
  return calls;
}

// A gather whose only bad index sits at `bad`: gather_rows throws from
// inside its parallel region (grain 512), in the caller's chunk for a low
// index and in a worker's chunk for a high one.
void expect_gather_throws_then_pool_splits(std::size_t bad) {
  ASSERT_TRUE(g_pool_pinned);
  const Tensor src({16, 4});
  std::vector<std::int64_t> idx(4096, 3);
  idx[bad] = 16;  // one past the last row
  Tensor out({idx.size(), 4});
  EXPECT_THROW(gather_rows(src, idx, out), std::out_of_range);
  // The caller's region flag was restored and no worker still holds the
  // dead task: the next call splits across the whole pool again.
  const auto calls = global_split(1000);
  EXPECT_EQ(calls.size(), global_pool().size());
  if (global_pool().size() > 1) {
    EXPECT_GT(calls.size(), 1u);
  }
}

TEST(ThreadPool, CoversFullRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) ++hits[i];
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, HandlesFewerItemsThanThreads) {
  ThreadPool pool(8);
  std::atomic<int> total{0};
  pool.parallel_for(3, [&](std::size_t lo, std::size_t hi) {
    total += static_cast<int>(hi - lo);
  });
  EXPECT_EQ(total.load(), 3);
}

TEST(ThreadPool, ZeroItemsIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(0, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, SingleThreadPoolWorks) {
  ThreadPool pool(1);
  std::size_t total = 0;
  pool.parallel_for(100, [&](std::size_t lo, std::size_t hi) {
    total += hi - lo;
  });
  EXPECT_EQ(total, 100u);
}

TEST(ThreadPool, RepeatedInvocations) {
  ThreadPool pool(3);
  for (int rep = 0; rep < 50; ++rep) {
    std::atomic<std::size_t> total{0};
    pool.parallel_for(257, [&](std::size_t lo, std::size_t hi) {
      total += hi - lo;
    });
    ASSERT_EQ(total.load(), 257u);
  }
}

TEST(ThreadPool, NestedParallelForRunsSeriallyWithoutDeadlock) {
  // A task that itself calls parallel_for must not deadlock (it runs the
  // inner loop serially).  Regression test for the prefetcher deadlock.
  std::atomic<std::size_t> inner_total{0};
  global_pool().parallel_for(8, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      parallel_for(100, [&](std::size_t a, std::size_t b) {
        inner_total += b - a;
      }, /*grain=*/1);
    }
  });
  EXPECT_EQ(inner_total.load(), 800u);
}

TEST(ThreadPool, ConcurrentCallersFromTwoThreads) {
  // Two threads using the global pool simultaneously (the trainer +
  // prefetcher pattern): both must complete.
  std::atomic<std::size_t> t1{0}, t2{0};
  std::thread other([&] {
    for (int rep = 0; rep < 20; ++rep) {
      parallel_for(5000, [&](std::size_t lo, std::size_t hi) {
        t2 += hi - lo;
      }, 1);
    }
  });
  for (int rep = 0; rep < 20; ++rep) {
    parallel_for(5000, [&](std::size_t lo, std::size_t hi) {
      t1 += hi - lo;
    }, 1);
  }
  other.join();
  EXPECT_EQ(t1.load(), 20u * 5000u);
  EXPECT_EQ(t2.load(), 20u * 5000u);
}

TEST(ParallelForHelper, SmallNRunsSerial) {
  // Below the grain the helper must not touch the pool (observable as the
  // callback receiving the whole range at once).
  std::vector<std::pair<std::size_t, std::size_t>> calls;
  parallel_for(10, [&](std::size_t lo, std::size_t hi) {
    calls.emplace_back(lo, hi);
  }, /*grain=*/100);
  ASSERT_EQ(calls.size(), 1u);
  EXPECT_EQ(calls[0], std::make_pair(std::size_t{0}, std::size_t{10}));
}

TEST(ThreadPool, BadIndexInFirstChunkRethrowsAndPoolKeepsSplitting) {
  expect_gather_throws_then_pool_splits(0);
}

TEST(ThreadPool, BadIndexInLastChunkRethrowsAndPoolKeepsSplitting) {
  expect_gather_throws_then_pool_splits(4095);
}

TEST(ThreadPool, ThrowingPartsRethrowOnCallerAfterAllPartsFinish) {
  ThreadPool pool(4);
  for (const std::size_t bad : {std::size_t{0}, std::size_t{999}}) {
    std::atomic<std::size_t> done{0};
    EXPECT_THROW(
        pool.parallel_for(1000, [&](std::size_t lo, std::size_t hi) {
          if (lo <= bad && bad < hi) throw std::runtime_error("bad part");
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
          done += hi - lo;
        }),
        std::runtime_error);
    // Every non-throwing part had finished before the rethrow.
    EXPECT_EQ(done.load(), 750u) << "bad index " << bad;
    std::atomic<int> parts{0};
    pool.parallel_for(1000, [&](std::size_t, std::size_t) { ++parts; });
    EXPECT_EQ(parts.load(), 4);
  }
}

TEST(ThreadPool, OnePartRunsInlineOnCaller) {
  ThreadPool pool(4);
  std::thread::id ran_on;
  pool.parallel_for(1, [&](std::size_t lo, std::size_t hi) {
    EXPECT_EQ(lo, 0u);
    EXPECT_EQ(hi, 1u);
    ran_on = std::this_thread::get_id();
  });
  EXPECT_EQ(ran_on, std::this_thread::get_id());
}

TEST(ThreadPool, UsesOnlyAsManyPartsAsTheRangeFills) {
  // 5 items over 4 threads is chunk 2: three parts, not a fourth empty one.
  ThreadPool pool(4);
  std::mutex mu;
  std::vector<std::pair<std::size_t, std::size_t>> calls;
  pool.parallel_for(5, [&](std::size_t lo, std::size_t hi) {
    std::lock_guard<std::mutex> lk(mu);
    calls.emplace_back(lo, hi);
  });
  std::sort(calls.begin(), calls.end());
  const std::vector<std::pair<std::size_t, std::size_t>> want = {
      {0, 2}, {2, 4}, {4, 5}};
  EXPECT_EQ(calls, want);
}

TEST(SerialRegion, ParallelForRunsInlineOverTheFullRange) {
  ASSERT_TRUE(g_pool_pinned);
  ThreadPool pool(4);
  {
    const SerialRegion serial;
    EXPECT_EQ(parallel_width(), 1u);
    const auto calls = global_split(1000);
    ASSERT_EQ(calls.size(), 1u);
    EXPECT_EQ(calls[0], std::make_pair(std::size_t{0}, std::size_t{1000}));
    std::vector<std::thread::id> ran_on;
    pool.parallel_for(1000, [&](std::size_t lo, std::size_t hi) {
      EXPECT_EQ(lo, 0u);
      EXPECT_EQ(hi, 1000u);
      ran_on.push_back(std::this_thread::get_id());
    });
    ASSERT_EQ(ran_on.size(), 1u);
    EXPECT_EQ(ran_on[0], std::this_thread::get_id());
  }
  EXPECT_EQ(parallel_width(), global_pool().size());
  EXPECT_EQ(global_split(1000).size(), global_pool().size());
}

TEST(SerialRegion, NestsAndRestoresTheStateItFound) {
  {
    const SerialRegion outer;
    {
      const SerialRegion inner;
      EXPECT_EQ(global_split(1000).size(), 1u);
    }
    // Leaving the inner region must not end the outer one.
    EXPECT_EQ(global_split(1000).size(), 1u);
    EXPECT_EQ(parallel_width(), 1u);
  }
  EXPECT_EQ(global_split(1000).size(), global_pool().size());
}

TEST(SerialRegion, IsPerThread) {
  // A region on one thread leaves every other thread's fan-out alone.
  const SerialRegion serial;
  std::size_t other_parts = 0;
  std::thread other([&] { other_parts = global_split(1000).size(); });
  other.join();
  EXPECT_EQ(other_parts, global_pool().size());
  EXPECT_EQ(global_split(1000).size(), 1u);
}

TEST(GlobalPool, IsSingleton) {
  EXPECT_EQ(&global_pool(), &global_pool());
  EXPECT_GE(global_pool().size(), 1u);
}

}  // namespace
}  // namespace ppgnn
