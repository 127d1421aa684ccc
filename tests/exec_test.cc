// The exec subsystem: ForkJoinPool runs every index of a call exactly
// once, per-index slots match the serial loop bit for bit, the lowest
// throwing index's exception surfaces, and back-to-back calls never hand
// a late worker the previous call's body.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "exec/fork_join.h"

namespace tgm {
namespace {

class ForkJoinPoolTest : public ::testing::TestWithParam<int> {};

TEST_P(ForkJoinPoolTest, RunsEveryIndexExactlyOnce) {
  ForkJoinPool pool(GetParam());
  EXPECT_EQ(pool.num_workers(), GetParam());
  for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                        std::size_t{5}, std::size_t{64}, std::size_t{1000}}) {
    std::vector<std::atomic<int>> hits(n);
    for (auto& h : hits) h.store(0);
    pool.Run(n, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "index " << i << " of " << n;
    }
  }
}

TEST_P(ForkJoinPoolTest, PerIndexSlotsMatchSerial) {
  ForkJoinPool pool(GetParam());
  const std::size_t n = 501;
  std::vector<std::int64_t> serial(n), parallel(n);
  std::vector<double> slots(n);
  auto value = [](std::size_t i) {
    return static_cast<std::int64_t>(i * i + 7 * i + 3);
  };
  for (std::size_t i = 0; i < n; ++i) serial[i] = value(i);
  pool.Run(n, [&](std::size_t i) {
    parallel[i] = value(i);
    slots[i] = 1.0 / static_cast<double>(i + 1);
  });
  EXPECT_EQ(serial, parallel);
  // The miner's merge pattern: per-index slots folded in index order give
  // the serial floating-point result, bitwise.
  double serial_sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    serial_sum += 1.0 / static_cast<double>(i + 1);
  }
  double sum = 0.0;
  for (double s : slots) sum += s;
  EXPECT_EQ(serial_sum, sum);
}

TEST_P(ForkJoinPoolTest, RethrowsLowestThrowingIndexAndStaysUsable) {
  ForkJoinPool pool(GetParam());
  for (int round = 0; round < 20; ++round) {
    try {
      pool.Run(std::size_t{100}, [](std::size_t i) {
        if (i % 7 == 3) throw std::runtime_error(std::to_string(i));
      });
      FAIL() << "no exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "3");
    }
  }
  std::atomic<int> count{0};
  pool.Run(std::size_t{10}, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 10);
}

INSTANTIATE_TEST_SUITE_P(Workers, ForkJoinPoolTest,
                         ::testing::Values(0, 1, 3, 7));

TEST(ForkJoinPoolTest, DestructorJoinsIdleWorkers) {
  // Construct and destroy without running anything; must not hang.
  ForkJoinPool pool(4);
}

TEST(ForkJoinPoolTest, BackToBackCallsStress) {
  // Seeded calls of random size whose indices spin for random times, so
  // workers wake at every point of a call's life. A worker that wakes
  // after a call has closed must sit it out: every body checks that its
  // call is the one open, and every index must run exactly once. Bodies
  // outlive all calls, so a stale run is counted instead of undefined.
  std::mt19937 rng(20261017u);
  for (int workers : {1, 3}) {
    ForkJoinPool pool(workers);
    constexpr int kCalls = 2000;
    std::vector<std::size_t> begin(kCalls + 1, 0);
    for (int c = 0; c < kCalls; ++c) begin[c + 1] = begin[c] + rng() % 12;
    std::vector<unsigned> spin(begin[kCalls]);
    for (unsigned& s : spin) s = rng() % 20000;
    std::vector<std::atomic<int>> hits(begin[kCalls]);
    for (auto& h : hits) h.store(0);
    std::atomic<int> open_call{-1};
    std::atomic<int> stale_runs{0};
    std::vector<std::function<void(std::size_t)>> bodies;
    for (int c = 0; c < kCalls; ++c) {
      bodies.emplace_back([&, c](std::size_t i) {
        if (open_call.load() != c) stale_runs.fetch_add(1);
        const auto until = std::chrono::steady_clock::now() +
                           std::chrono::nanoseconds(spin[begin[c] + i]);
        while (std::chrono::steady_clock::now() < until) {
        }
        hits[begin[c] + i].fetch_add(1);
      });
    }
    for (int c = 0; c < kCalls; ++c) {
      open_call.store(c);
      pool.Run(begin[c + 1] - begin[c], bodies[c]);
      open_call.store(-1);
    }
    EXPECT_EQ(stale_runs.load(), 0) << "workers=" << workers;
    for (std::size_t k = 0; k < hits.size(); ++k) {
      ASSERT_EQ(hits[k].load(), 1) << "workers=" << workers << " slot " << k;
    }
  }
}

TEST(ResolveNumThreadsTest, PositivePassesThroughNonPositiveMeansHardware) {
  EXPECT_EQ(ResolveNumThreads(1), 1);
  EXPECT_EQ(ResolveNumThreads(7), 7);
  EXPECT_GE(ResolveNumThreads(0), 1);
  EXPECT_GE(ResolveNumThreads(-3), 1);
}

}  // namespace
}  // namespace tgm
