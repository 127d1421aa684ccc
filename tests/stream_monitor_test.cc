// Online monitoring match semantics of StreamEngine under its default
// options (one shard, batch of one: every OnEvent is synchronous): ordered
// chains, entity consistency, injectivity, window expiry, the per-query
// partial cap, and agreement with the offline searcher.

#include "query/stream/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "test_util.h"

namespace tgm {
namespace {

using ::tgm::testing::MakePattern;

StreamEvent Ev(std::int64_t src, std::int64_t dst, LabelId src_label,
               LabelId dst_label, Timestamp ts,
               LabelId elabel = kNoEdgeLabel) {
  return StreamEvent{src, dst, src_label, dst_label, elabel, ts};
}

class StreamEngineMonitoringTest : public ::testing::Test {
 protected:
  std::vector<StreamAlert> FeedAll(StreamEngine& monitor,
                                   const std::vector<StreamEvent>& events) {
    std::vector<StreamAlert> alerts;
    for (const StreamEvent& e : events) {
      monitor.OnEvent(e, [&alerts](const StreamAlert& a) {
        alerts.push_back(a);
      });
    }
    return alerts;
  }
};

TEST_F(StreamEngineMonitoringTest, DetectsOrderedChain) {
  StreamEngine::Options options;
  options.window = 100;
  StreamEngine monitor(options);
  // Query: A(0) -> B(1), B -> C(2).
  monitor.AddQuery(MakePattern({0, 1, 2}, {{0, 1}, {1, 2}}));
  auto alerts = FeedAll(monitor, {
                                     Ev(10, 11, 0, 1, 5),
                                     Ev(11, 12, 1, 2, 15),
                                 });
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].interval, (Interval{5, 15}));
}

TEST_F(StreamEngineMonitoringTest, IgnoresWrongOrder) {
  StreamEngine::Options options;
  options.window = 100;
  StreamEngine monitor(options);
  monitor.AddQuery(MakePattern({0, 1, 2}, {{0, 1}, {1, 2}}));
  auto alerts = FeedAll(monitor, {
                                     Ev(11, 12, 1, 2, 5),   // B->C first
                                     Ev(10, 11, 0, 1, 15),  // A->B second
                                 });
  EXPECT_TRUE(alerts.empty());
}

TEST_F(StreamEngineMonitoringTest, WindowExpiresPartials) {
  StreamEngine::Options options;
  options.window = 50;
  StreamEngine monitor(options);
  monitor.AddQuery(MakePattern({0, 1, 2}, {{0, 1}, {1, 2}}));
  auto alerts = FeedAll(monitor, {
                                     Ev(10, 11, 0, 1, 5),
                                     Ev(11, 12, 1, 2, 500),  // too late
                                 });
  EXPECT_TRUE(alerts.empty());
  // The expired A->B partial is evicted, and the late B->C event cannot
  // start a new partial (it does not match query edge 0).
  EXPECT_EQ(monitor.PartialCount(), 0u);
}

TEST_F(StreamEngineMonitoringTest, EntityConsistencyRequired) {
  StreamEngine::Options options;
  options.window = 100;
  StreamEngine monitor(options);
  monitor.AddQuery(MakePattern({0, 1, 2}, {{0, 1}, {1, 2}}));
  // Second event's source is a *different* B-labeled entity.
  auto alerts = FeedAll(monitor, {
                                     Ev(10, 11, 0, 1, 5),
                                     Ev(99, 12, 1, 2, 15),
                                 });
  EXPECT_TRUE(alerts.empty());
}

TEST_F(StreamEngineMonitoringTest, InjectivityEnforced) {
  StreamEngine::Options options;
  options.window = 100;
  StreamEngine monitor(options);
  // Query wants two distinct B nodes: A->B, A->B'.
  monitor.AddQuery(Pattern::SingleEdge(0, 1).GrowForward(0, 1));
  auto alerts = FeedAll(monitor, {
                                     Ev(10, 11, 0, 1, 5),
                                     Ev(10, 11, 0, 1, 15),  // same B entity
                                     Ev(10, 13, 0, 1, 25),  // distinct B
                                 });
  // The second event cannot pair with the first (same B entity — the
  // injectivity rule); it does start its own partial, so the distinct-B
  // event completes two matches with distinct intervals.
  ASSERT_EQ(alerts.size(), 2u);
  EXPECT_EQ(alerts[0].interval, (Interval{5, 25}));
  EXPECT_EQ(alerts[1].interval, (Interval{15, 25}));
}

TEST_F(StreamEngineMonitoringTest, MultiEdgeQueriesNeedRepeatedEvents) {
  StreamEngine::Options options;
  options.window = 100;
  StreamEngine monitor(options);
  monitor.AddQuery(Pattern::SingleEdge(0, 1).GrowInward(0, 1));
  auto first = FeedAll(monitor, {Ev(1, 2, 0, 1, 5)});
  EXPECT_TRUE(first.empty());
  auto second = FeedAll(monitor, {Ev(1, 2, 0, 1, 9)});
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0].interval, (Interval{5, 9}));
}

TEST_F(StreamEngineMonitoringTest, MultipleQueriesIndependentAlerts) {
  StreamEngine::Options options;
  options.window = 100;
  StreamEngine monitor(options);
  std::size_t q0 = monitor.AddQuery(MakePattern({0, 1}, {{0, 1}}));
  std::size_t q1 = monitor.AddQuery(MakePattern({1, 2}, {{0, 1}}));
  auto alerts = FeedAll(monitor, {
                                     Ev(10, 11, 0, 1, 5),
                                     Ev(11, 12, 1, 2, 15),
                                 });
  ASSERT_EQ(alerts.size(), 2u);
  EXPECT_EQ(alerts[0].query_index, q0);
  EXPECT_EQ(alerts[1].query_index, q1);
}

TEST_F(StreamEngineMonitoringTest, DuplicateIntervalsSuppressed) {
  StreamEngine::Options options;
  options.window = 100;
  StreamEngine monitor(options);
  // Two B entities both complete the chain with identical timestamps is
  // impossible on a stream (one event per call), but two different
  // bindings may complete at the same (first, last): A->B1, A->B2, then
  // an event that closes both.
  monitor.AddQuery(MakePattern({0, 1, 2}, {{0, 1}, {0, 2}}));
  auto alerts = FeedAll(monitor, {
                                     Ev(10, 11, 0, 1, 5),
                                     Ev(10, 12, 0, 2, 15),
                                 });
  EXPECT_EQ(alerts.size(), 1u);
}

TEST_F(StreamEngineMonitoringTest, AgreesWithOfflineSearcher) {
  // Property: feeding a finalized log's edges in order produces exactly
  // the offline searcher's distinct match intervals.
  std::mt19937_64 rng(31);
  for (int trial = 0; trial < 10; ++trial) {
    TemporalGraph log = tgm::testing::RandomGraph(rng, 6, 25, 2);
    Pattern query = tgm::testing::RandomPattern(
        rng, 2 + static_cast<int>(rng() % 2), 2);

    TemporalQuerySearcher::Options search_options;
    search_options.window = 40;
    std::vector<Interval> offline =
        TemporalQuerySearcher(search_options).Search(query, log);

    StreamEngine::Options monitor_options;
    monitor_options.window = 40;
    StreamEngine monitor(monitor_options);
    monitor.AddQuery(query);
    std::vector<Interval> online;
    for (const TemporalEdge& e : log.edges()) {
      StreamEvent event{e.src, e.dst, log.label(e.src), log.label(e.dst),
                        e.elabel, e.ts};
      monitor.OnEvent(event, [&online](const StreamAlert& a) {
        online.push_back(a.interval);
      });
    }
    std::sort(online.begin(), online.end());
    online.erase(std::unique(online.begin(), online.end()), online.end());
    EXPECT_EQ(online, offline) << query.ToString() << "\n" << log.ToString();
  }
}

TEST_F(StreamEngineMonitoringTest, LateExtensionDoesNotStrandExpiredPartials) {
  // Regression: an extension inherits its base's first_ts but is appended
  // at the back of the partial list, so the list is not ordered by
  // first_ts. The old front-only expiry then never reached an expired
  // extension sitting behind any younger partial: it stayed "live"
  // forever — inflating PartialCount and burning max_partials_per_query —
  // despite being unable to ever complete (the window check rejects all
  // its extensions).
  StreamEngine::Options options;
  options.window = 50;
  options.max_partials_per_query = 3;
  StreamEngine monitor(options);
  // Query: A(0)->B(1), B->C(2), C->D(3) — three edges, so one extension
  // still leaves an (uncompletable once expired) partial behind.
  monitor.AddQuery(MakePattern({0, 1, 2, 3}, {{0, 1}, {1, 2}, {2, 3}}));

  auto alerts = FeedAll(monitor, {
                                     Ev(10, 11, 0, 1, 1),   // P1 (first_ts 1)
                                     Ev(20, 21, 0, 1, 49),  // P2 (first_ts 49)
                                     // Extends P1: inherits first_ts=1 but
                                     // lands BEHIND the younger P2.
                                     Ev(11, 12, 1, 2, 49),
                                 });
  EXPECT_TRUE(alerts.empty());
  ASSERT_EQ(monitor.PartialCount(), 3u);

  // ts=60: P1 and its extension expired (60 - 1 > 50), P2 did not. The
  // old front-only expiry popped P1, stopped at the younger P2, and
  // stranded the dead extension behind it (PartialCount 3, not 2).
  auto late = FeedAll(monitor, {Ev(30, 31, 0, 1, 60)});
  EXPECT_TRUE(late.empty());
  EXPECT_EQ(monitor.PartialCount(), 2u);  // P2 + the fresh (30,31) partial
  EXPECT_EQ(monitor.dropped_partials(), 0);

  // The surviving fresh partial must still be able to complete — proof
  // that no live state was evicted by the full-scan expiry.
  auto done = FeedAll(monitor, {
                                   Ev(31, 32, 1, 2, 61),
                                   Ev(32, 33, 2, 3, 62),
                               });
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].interval, (Interval{60, 62}));
}

TEST_F(StreamEngineMonitoringTest, ExpiredExtensionsFreeCapForLiveWork) {
  // Same stranding setup, but measuring the cap: after expiry the slots
  // held by dead partials must be reusable.
  StreamEngine::Options options;
  options.window = 10;
  options.max_partials_per_query = 3;
  StreamEngine monitor(options);
  monitor.AddQuery(MakePattern({0, 1, 2, 3}, {{0, 1}, {1, 2}, {2, 3}}));

  FeedAll(monitor, {
                       Ev(10, 11, 0, 1, 1),  // P1
                       Ev(20, 21, 0, 1, 9),  // P2 (younger, stands in front)
                       Ev(11, 12, 1, 2, 9),  // extension of P1, at the back
                   });
  ASSERT_EQ(monitor.PartialCount(), 3u);  // cap reached

  // ts=15: P1 and its extension expire; only P2 (first_ts 9) survives.
  // Both freed slots must be available for new partials, with no drops.
  FeedAll(monitor, {
                       Ev(40, 41, 0, 1, 15),
                       Ev(50, 51, 0, 1, 15),
                   });
  EXPECT_EQ(monitor.PartialCount(), 3u);
  EXPECT_EQ(monitor.dropped_partials(), 0);
}

TEST_F(StreamEngineMonitoringTest, PartialCapCountsDrops) {
  StreamEngine::Options options;
  options.window = 1000000;
  options.max_partials_per_query = 3;
  StreamEngine monitor(options);
  monitor.AddQuery(MakePattern({0, 1, 2}, {{0, 1}, {1, 2}}));
  std::vector<StreamEvent> events;
  for (int i = 0; i < 10; ++i) {
    events.push_back(Ev(100 + i, 200 + i, 0, 1, 10 + i));
  }
  FeedAll(monitor, events);
  EXPECT_EQ(monitor.PartialCount(), 3u);
  EXPECT_GT(monitor.dropped_partials(), 0);
}

}  // namespace
}  // namespace tgm
