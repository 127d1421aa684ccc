// The exec subsystem: StealScheduler mechanics and the determinism contract of
// ParallelFor — every index visited exactly once, chunk boundaries a pure
// function of (n, thread count), exceptions surfaced schedule-independently.

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "exec/parallel_for.h"
#include "exec/work_stealing.h"

namespace tgm {
namespace {

TEST(StealSchedulerTest, RunsSubmittedTasks) {
  std::atomic<int> done{0};
  std::mutex mu;
  std::condition_variable cv;
  // Declared after `mu`/`cv` so its destructor joins the workers before
  // they die: the waiter can see done == 50 and return while the last
  // task is still about to lock `mu` and notify.
  StealScheduler pool(3);
  EXPECT_EQ(pool.num_workers(), 3);
  for (int i = 0; i < 50; ++i) {
    pool.Submit([&] {
      if (done.fetch_add(1) + 1 == 50) {
        std::lock_guard<std::mutex> lock(mu);
        cv.notify_one();
      }
    });
  }
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return done.load() == 50; });
  EXPECT_EQ(done.load(), 50);
}

TEST(StealSchedulerTest, ZeroWorkersIsValid) {
  StealScheduler pool(0);
  EXPECT_EQ(pool.num_workers(), 0);
  // ParallelFor over a workerless pool runs inline on the caller.
  std::vector<int> hits(7, 0);
  ParallelFor(&pool, hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(StealSchedulerTest, DestructorJoinsIdleWorkers) {
  // Construct and destroy without submitting anything; must not hang.
  StealScheduler pool(4);
}

TEST(ResolveNumThreadsTest, PositivePassesThroughNonPositiveMeansHardware) {
  EXPECT_EQ(ResolveNumThreads(1), 1);
  EXPECT_EQ(ResolveNumThreads(7), 7);
  EXPECT_GE(ResolveNumThreads(0), 1);
  EXPECT_GE(ResolveNumThreads(-3), 1);
}

class ParallelForTest : public ::testing::TestWithParam<int> {};

TEST_P(ParallelForTest, VisitsEveryIndexExactlyOnce) {
  StealScheduler pool(GetParam());
  for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                        std::size_t{5}, std::size_t{64}, std::size_t{1000}}) {
    std::vector<std::atomic<int>> hits(n);
    for (auto& h : hits) h.store(0);
    ParallelFor(&pool, n, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "index " << i << " of " << n;
    }
  }
}

TEST_P(ParallelForTest, PerIndexOutputSlotsMatchSerial) {
  StealScheduler pool(GetParam());
  const std::size_t n = 333;
  std::vector<std::int64_t> serial(n), parallel(n);
  auto body = [](std::size_t i) {
    return static_cast<std::int64_t>(i * i + 7 * i + 3);
  };
  for (std::size_t i = 0; i < n; ++i) serial[i] = body(i);
  ParallelFor(&pool, n, [&](std::size_t i) { parallel[i] = body(i); });
  EXPECT_EQ(serial, parallel);
}

TEST_P(ParallelForTest, RethrowsBodyException) {
  StealScheduler pool(GetParam());
  EXPECT_THROW(
      ParallelFor(&pool, std::size_t{100},
                  [](std::size_t i) {
                    if (i == 57) throw std::runtime_error("boom");
                  }),
      std::runtime_error);
  // The pool must still be usable after an exception.
  std::atomic<int> count{0};
  ParallelFor(&pool, std::size_t{10}, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 10);
}

INSTANTIATE_TEST_SUITE_P(Workers, ParallelForTest,
                         ::testing::Values(0, 1, 3, 7));

TEST(ParallelForTest, NullPoolRunsInline) {
  std::vector<int> hits(9, 0);
  ParallelFor(nullptr, hits.size(), [&](std::size_t i) { ++hits[i]; });
  std::vector<int> expected(9, 1);
  EXPECT_EQ(hits, expected);
}

TEST(ParallelForTest, SumReductionInIndexOrderIsDeterministic) {
  // The miner's merge pattern: per-index slots folded in index order give
  // the same floating-point result for every worker count.
  auto run = [](int workers) {
    const std::size_t n = 501;
    StealScheduler pool(workers);
    std::vector<double> slots(n);
    ParallelFor(&pool, n, [&](std::size_t i) {
      slots[i] = 1.0 / static_cast<double>(i + 1);
    });
    double sum = 0.0;
    for (double s : slots) sum += s;
    return sum;
  };
  double base = run(0);
  for (int workers : {1, 2, 3, 7}) {
    double got = run(workers);
    EXPECT_EQ(base, got) << "workers=" << workers;  // bitwise, not near
  }
}

}  // namespace
}  // namespace tgm
