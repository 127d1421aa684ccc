// The stream engine subsystem (src/query/stream/): compiled query plans,
// the entity-keyed partial index, out-of-order input handling,
// backpressure (oldest-first eviction with per-query drop accounting),
// batching/Flush, and the EngineStats surface. The match semantics
// themselves are checked against the brute-force reference in
// reference_differential_test.

#include "query/stream/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "query/stream/compiled_plan.h"
#include "test_util.h"

namespace tgm {
namespace {

using ::tgm::testing::MakePattern;

StreamEvent Ev(std::int64_t src, std::int64_t dst, LabelId src_label,
               LabelId dst_label, Timestamp ts,
               LabelId elabel = kNoEdgeLabel) {
  return StreamEvent{src, dst, src_label, dst_label, elabel, ts};
}

std::vector<StreamAlert> FeedAll(StreamEngine& engine,
                                 const std::vector<StreamEvent>& events) {
  std::vector<StreamAlert> alerts;
  auto sink = [&alerts](const StreamAlert& a) {
    alerts.push_back(a);
  };
  for (const StreamEvent& e : events) engine.OnEvent(e, sink);
  engine.Flush(sink);
  return alerts;
}

std::vector<StreamEvent> GraphEvents(const TemporalGraph& log) {
  std::vector<StreamEvent> events;
  for (const TemporalEdge& e : log.edges()) {
    events.push_back(StreamEvent::FromEdge(log, e));
  }
  return events;
}

TEST(CompiledQueryPlanTest, TransitionsRecordBoundSlots) {
  // A(0)->B(1), C(2)->B, A->C: forward seed, backward growth, inward edge.
  Pattern p = Pattern::SingleEdge(0, 1).GrowBackward(2, 1).GrowInward(0, 2);
  CompiledQueryPlan plan(p);
  ASSERT_EQ(plan.edge_count(), 3u);

  EXPECT_FALSE(plan.transition(0).src_bound);
  EXPECT_FALSE(plan.transition(0).dst_bound);
  EXPECT_EQ(plan.transition(0).bound_nodes, 0u);

  // Edge 1 (C->B): B bound by edge 0, C new.
  EXPECT_FALSE(plan.transition(1).src_bound);
  EXPECT_TRUE(plan.transition(1).dst_bound);
  EXPECT_EQ(plan.transition(1).bound_nodes, 2u);

  // Edge 2 (A->C): both bound.
  EXPECT_TRUE(plan.transition(2).src_bound);
  EXPECT_TRUE(plan.transition(2).dst_bound);
  EXPECT_EQ(plan.transition(2).bound_nodes, 3u);

  EXPECT_EQ(plan.transition(1).src_label, 2);
  EXPECT_EQ(plan.transition(1).dst_label, 1);
}

TEST(CompiledQueryPlanTest, SeedMatchesChecksLabelsAndLoopShape) {
  CompiledQueryPlan plan(MakePattern({0, 1}, {{0, 1}}));
  EXPECT_TRUE(plan.SeedMatches(Ev(7, 8, 0, 1, 5)));
  EXPECT_FALSE(plan.SeedMatches(Ev(7, 8, 1, 0, 5)));   // labels swapped
  EXPECT_FALSE(plan.SeedMatches(Ev(7, 7, 0, 1, 5)));   // loop vs non-loop
  EXPECT_FALSE(plan.SeedMatches(Ev(7, 8, 0, 1, 5, 3)));  // edge label
}

TEST(StreamEngineTest, AgreesWithOfflineSearcherAcrossBatchSizes) {
  // The batched engine replaying a finalized log produces exactly the
  // offline searcher's distinct match intervals, for every batch size.
  std::mt19937_64 rng(31);
  for (int trial = 0; trial < 8; ++trial) {
    TemporalGraph log = tgm::testing::RandomGraph(rng, 6, 25, 2);
    Pattern query = tgm::testing::RandomPattern(
        rng, 2 + static_cast<int>(rng() % 2), 2);

    TemporalQuerySearcher::Options search_options;
    search_options.window = 40;
    std::vector<Interval> offline =
        TemporalQuerySearcher(search_options).Search(query, log);

    for (std::size_t batch_size : {std::size_t{1}, std::size_t{7}}) {
      StreamEngine::Options options;
      options.window = 40;
      options.batch_size = batch_size;
      StreamEngine engine(options);
      engine.AddQuery(query);
      std::vector<Interval> online;
      for (const StreamAlert& a : FeedAll(engine, GraphEvents(log))) {
        online.push_back(a.interval);
      }
      std::sort(online.begin(), online.end());
      online.erase(std::unique(online.begin(), online.end()), online.end());
      EXPECT_EQ(online, offline) << "batch_size " << batch_size << "\n"
                                 << query.ToString() << "\n"
                                 << log.ToString();
    }
  }
}

TEST(StreamEngineTest, BatchingDefersAlertsUntilBatchBoundaryOrFlush) {
  StreamEngine::Options options;
  options.window = 100;
  options.batch_size = 4;
  StreamEngine engine(options);
  engine.AddQuery(MakePattern({0, 1, 2}, {{0, 1}, {1, 2}}));

  std::vector<StreamAlert> alerts;
  auto sink = [&alerts](const StreamAlert& a) {
    alerts.push_back(a);
  };
  engine.OnEvent(Ev(10, 11, 0, 1, 5), sink);
  engine.OnEvent(Ev(11, 12, 1, 2, 15), sink);
  EXPECT_TRUE(alerts.empty());  // batch of 4 not complete yet
  engine.Flush(sink);
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].interval, (Interval{5, 15}));

  // A full batch delivers without Flush.
  alerts.clear();
  for (int i = 0; i < 4; ++i) {
    engine.OnEvent(i % 2 == 0 ? Ev(20 + i, 40 + i, 0, 1, 20 + i)
                              : Ev(40 + i - 1, 60 + i, 1, 2, 20 + i),
                   sink);
  }
  EXPECT_EQ(alerts.size(), 2u);
}

TEST(StreamEngineTest, OutOfOrderTimestampClampedAndCounted) {
  StreamEngine::Options options;
  options.window = 100;
  StreamEngine engine(options);
  engine.AddQuery(MakePattern({0, 1, 2}, {{0, 1}, {1, 2}}));

  auto alerts = FeedAll(engine, {
                                    Ev(10, 11, 0, 1, 50),
                                    Ev(11, 12, 1, 2, 20),  // decreasing ts
                                });
  EXPECT_EQ(engine.out_of_order_events(), 1);
  // The violating event was clamped to ts=50, so the completed match
  // carries the clamped (monotonic) interval, not a backwards one.
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].interval, (Interval{50, 50}));
  EXPECT_EQ(engine.Stats().out_of_order_events, 1);
}

TEST(StreamEngineTest, DefaultOptionsSurfaceOutOfOrderCounterPerEvent) {
  StreamEngine::Options options;
  options.window = 100;
  StreamEngine monitor(options);
  monitor.AddQuery(MakePattern({0, 1}, {{0, 1}}));
  monitor.OnEvent(Ev(1, 2, 0, 1, 10), [](const StreamAlert&) {});
  EXPECT_EQ(monitor.out_of_order_events(), 0);
  monitor.OnEvent(Ev(1, 2, 0, 1, 3), [](const StreamAlert&) {});
  EXPECT_EQ(monitor.out_of_order_events(), 1);
}

TEST(StreamEngineTest, BackpressureEvictsOldestFirst) {
  StreamEngine::Options options;
  options.window = 1000000;
  options.max_partials_per_query = 2;
  StreamEngine engine(options);
  engine.AddQuery(MakePattern({0, 1, 2}, {{0, 1}, {1, 2}}));

  // Three seed partials under a cap of two: P1 (oldest) must be evicted,
  // P2 and P3 must survive and still be completable.
  auto alerts = FeedAll(engine, {
                                    Ev(10, 11, 0, 1, 1),  // P1
                                    Ev(20, 21, 0, 1, 2),  // P2
                                    Ev(30, 31, 0, 1, 3),  // P3 evicts P1
                                    Ev(11, 12, 1, 2, 4),  // would finish P1
                                    Ev(21, 22, 1, 2, 5),  // finishes P2
                                    Ev(31, 32, 1, 2, 6),  // finishes P3
                                });
  EXPECT_EQ(engine.dropped_partials(), 1);
  ASSERT_EQ(alerts.size(), 2u);
  // The evicted oldest partial never produced an alert.
  EXPECT_EQ(alerts[0].interval, (Interval{2, 5}));
  EXPECT_EQ(alerts[1].interval, (Interval{3, 6}));
}

TEST(StreamEngineTest, EvictionOrderFollowsFirstTsNotInsertionTime) {
  StreamEngine::Options options;
  options.window = 1000000;
  options.max_partials_per_query = 2;
  StreamEngine engine(options);
  engine.AddQuery(MakePattern({0, 1, 2, 3}, {{0, 1}, {1, 2}, {2, 3}}));

  // P1 seeds at ts=1; P2 seeds at ts=2; extending P1 at ts=3 replaces...
  // no — the extension is a NEW partial inheriting first_ts=1 while P1
  // stays live, so the cap is hit and the oldest by first_ts (P1 itself,
  // seeded before its extension) is evicted, not the younger P2.
  auto alerts = FeedAll(engine, {
                                    Ev(10, 11, 0, 1, 1),  // P1 (first_ts 1)
                                    Ev(20, 21, 0, 1, 2),  // P2 (first_ts 2)
                                    // Extension of P1 inherits first_ts=1;
                                    // inserting it evicts P1 (oldest).
                                    Ev(11, 12, 1, 2, 3),
                                    // P2 must still be alive: walk it to
                                    // completion (evicting as we go is fine
                                    // for the older P1-extension).
                                    Ev(21, 22, 1, 2, 4),
                                    Ev(22, 23, 2, 3, 5),
                                });
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].interval, (Interval{2, 5}));
  EXPECT_GE(engine.dropped_partials(), 2);
}

TEST(StreamEngineTest, PerQueryDropCountersAreIndependent) {
  StreamEngine::Options options;
  options.window = 1000000;
  options.max_partials_per_query = 2;
  StreamEngine engine(options);
  std::size_t q0 = engine.AddQuery(MakePattern({0, 1, 2}, {{0, 1}, {1, 2}}));
  std::size_t q1 = engine.AddQuery(MakePattern({3, 4, 5}, {{0, 1}, {1, 2}}));

  std::vector<StreamEvent> events;
  // Five seeds for q0 (3 evictions), three for q1 (1 eviction).
  for (int i = 0; i < 5; ++i) {
    events.push_back(Ev(100 + i, 200 + i, 0, 1, 10 + i));
  }
  for (int i = 0; i < 3; ++i) {
    events.push_back(Ev(300 + i, 400 + i, 3, 4, 20 + i));
  }
  FeedAll(engine, events);

  EngineStats stats = engine.Stats();
  ASSERT_EQ(stats.queries.size(), 2u);
  EXPECT_EQ(stats.queries[q0].dropped_partials, 3);
  EXPECT_EQ(stats.queries[q1].dropped_partials, 1);
  EXPECT_EQ(stats.dropped_partials, 4);
  EXPECT_EQ(stats.queries[q0].live_partials, 2u);
  EXPECT_EQ(stats.queries[q1].live_partials, 2u);
}

TEST(StreamEngineTest, StatsSnapshotReportsIndexOccupancyAndPeaks) {
  StreamEngine::Options options;
  options.window = 1000000;
  StreamEngine engine(options);
  engine.AddQuery(MakePattern({0, 1, 2}, {{0, 1}, {1, 2}}));

  std::vector<StreamEvent> events;
  for (int i = 0; i < 4; ++i) {
    events.push_back(Ev(100 + i, 200 + i, 0, 1, 10 + i));
  }
  FeedAll(engine, events);

  EngineStats stats = engine.Stats();
  ASSERT_EQ(stats.queries.size(), 1u);
  EXPECT_EQ(stats.queries[0].live_partials, 4u);
  EXPECT_EQ(stats.queries[0].peak_partials, 4u);
  // Each partial waits on its own bound entity -> four occupied buckets.
  EXPECT_EQ(stats.queries[0].index_buckets, 4u);
  EXPECT_EQ(stats.live_partials, 4u);
  ASSERT_EQ(stats.shard_events.size(), 1u);
  EXPECT_EQ(stats.shard_events[0], 4);
  EXPECT_EQ(stats.queries[0].alerts, 0);
}

TEST(StreamEngineTest, SeedDispatchSkipsIdleQueriesAndCountsThem) {
  // Two queries with disjoint edge-0 labels. Events that can only concern
  // query 0 must never probe idle query 1: the shard's label->query
  // bitmap skips it and the per-query seed_skips counter records it —
  // without changing the alert stream.
  StreamEngine::Options options;
  options.window = 100;
  StreamEngine engine(options);
  engine.AddQuery(MakePattern({0, 1}, {{0, 1}}));  // seeds on src label 0
  engine.AddQuery(MakePattern({2, 3}, {{0, 1}}));  // seeds on src label 2

  std::vector<StreamAlert> alerts = FeedAll(
      engine, {Ev(1, 2, 0, 1, 1), Ev(1, 2, 0, 1, 2), Ev(1, 2, 0, 1, 3)});
  // The single-edge query 0 completes on every event; query 1 never fires.
  ASSERT_EQ(alerts.size(), 3u);
  for (const StreamAlert& a : alerts) EXPECT_EQ(a.query_index, 0u);

  EngineStats stats = engine.Stats();
  ASSERT_EQ(stats.queries.size(), 2u);
  EXPECT_EQ(stats.queries[0].seed_skips, 0);
  EXPECT_EQ(stats.queries[1].seed_skips, 3);
  EXPECT_EQ(stats.seed_skips, 3);
}

TEST(StreamEngineTest, SeedDispatchNeverSkipsLiveQueries) {
  // A(0)->B(1) then C(2)->B: the second event's source label (2) cannot
  // seed the query, but by then the query holds a live partial — the
  // dispatch must still deliver the event so the extension completes.
  StreamEngine::Options options;
  options.window = 100;
  StreamEngine engine(options);
  engine.AddQuery(MakePattern({0, 1, 2}, {{0, 1}, {2, 1}}));

  std::vector<StreamAlert> alerts =
      FeedAll(engine, {Ev(1, 2, 0, 1, 1), Ev(5, 2, 2, 1, 4)});
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].interval, (Interval{1, 4}));
  EXPECT_EQ(engine.Stats().queries[0].seed_skips, 0);
}

TEST(StreamEngineTest, SeedSkipsIdenticalAcrossShardsAndBatches) {
  // The skip decision is a pure per-query function of the event, so the
  // counters — like every other stat — are shard- and batch-invariant.
  std::mt19937_64 rng(123);
  TemporalGraph log = tgm::testing::RandomGraph(rng, 8, 60, 3);
  std::vector<StreamEvent> events = GraphEvents(log);

  auto run = [&](int shards, std::size_t batch) {
    StreamEngine::Options options;
    options.window = 40;
    options.num_shards = shards;
    options.batch_size = batch;
    StreamEngine engine(options);
    std::mt19937_64 qrng(5);
    for (int q = 0; q < 6; ++q) {
      engine.AddQuery(tgm::testing::RandomPattern(qrng, 2, 3));
    }
    FeedAll(engine, events);
    std::vector<std::int64_t> skips;
    for (const EngineQueryStats& q : engine.Stats().queries) {
      skips.push_back(q.seed_skips);
    }
    return skips;
  };
  std::vector<std::int64_t> reference = run(1, 1);
  EXPECT_GT(std::accumulate(reference.begin(), reference.end(),
                            std::int64_t{0}),
            0);
  EXPECT_EQ(run(2, 1), reference);
  EXPECT_EQ(run(4, 16), reference);
}

// --- duplicate collapse -------------------------------------------------
//
// Chain A(0)->B(1)->C(2)->D(3). The seed (1,2) at ts 1 leaves one partial
// waiting on edge 1; (2,3) at ts 2 and again at ts 3 extends it twice into
// two partials waiting on edge 2 with the same first_ts and binding, which
// differ only in last_ts (2 and 3); (3,4) at ts 4 completes the chain.

struct CollapseRun {
  std::size_t live_before_last = 0;
  std::int64_t collapsed = 0;
  std::vector<StreamAlert> alerts;
};

CollapseRun RunRepeatedMiddleEdge(const TemporalConstraints& constraints) {
  StreamEngine::Options options;
  options.window = 100;
  StreamEngine engine(options);
  engine.AddQuery(MakePattern({0, 1, 2, 3}, {{0, 1}, {1, 2}, {2, 3}}),
                  options.window, constraints);
  CollapseRun run;
  run.alerts = FeedAll(engine, {Ev(1, 2, 0, 1, 1), Ev(2, 3, 1, 2, 2),
                                Ev(2, 3, 1, 2, 3)});
  run.live_before_last = engine.PartialCount();
  run.collapsed = engine.Stats().collapsed_partials;
  std::vector<StreamAlert> last = FeedAll(engine, {Ev(3, 4, 2, 3, 4)});
  run.alerts.insert(run.alerts.end(), last.begin(), last.end());
  return run;
}

TEST(StreamEngineTest, UnguardedDuplicateCollapsesIntoTheLivePartial) {
  // No guards: the ts-3 copy adds nothing, so it is not stored.
  const CollapseRun run = RunRepeatedMiddleEdge(TemporalConstraints());
  EXPECT_EQ(run.live_before_last, 2u);  // the seed and one copy, not two
  EXPECT_EQ(run.collapsed, 1);
  ASSERT_EQ(run.alerts.size(), 1u);
  EXPECT_EQ(run.alerts[0].interval, (Interval{1, 4}));
}

TEST(StreamEngineTest, CollapseKeepsTheOlderCopyUnderMinGap) {
  // min_gap 2 on edge 2: only the older copy (last_ts 2) may complete at
  // ts 4. Keeping the newer copy instead would lose the alert.
  TemporalConstraints constraints(3);
  constraints.mutable_guard(2).min_gap = 2;
  const CollapseRun run = RunRepeatedMiddleEdge(constraints);
  EXPECT_EQ(run.live_before_last, 2u);
  EXPECT_EQ(run.collapsed, 1);
  ASSERT_EQ(run.alerts.size(), 1u);
  EXPECT_EQ(run.alerts[0].interval, (Interval{1, 4}));
}

TEST(StreamEngineTest, MaxGapKeepsBothCopies) {
  // max_gap 1 on edge 2: the older copy expires after ts 3, and only the
  // newer one can complete at ts 4. Collapsing would lose the alert.
  TemporalConstraints constraints(3);
  constraints.mutable_guard(2).max_gap = 1;
  const CollapseRun run = RunRepeatedMiddleEdge(constraints);
  EXPECT_EQ(run.live_before_last, 3u);
  EXPECT_EQ(run.collapsed, 0);
  ASSERT_EQ(run.alerts.size(), 1u);
  EXPECT_EQ(run.alerts[0].interval, (Interval{1, 4}));
}

TEST(StreamEngineTest, PerQueryWindowOverridesEngineDefault) {
  // One engine, two identical patterns, different expiry horizons: the
  // tight window must reject the wide-span completion the loose one (the
  // engine default) accepts — the basis of Session live watches, where
  // every BehaviorQuery carries its own mined window.
  StreamEngine::Options options;
  options.window = 1000;
  StreamEngine engine(options);
  Pattern chain = MakePattern({0, 1, 2}, {{0, 1}, {1, 2}});
  engine.AddQuery(chain, /*window=*/5);
  engine.AddQuery(chain);  // inherits the engine-wide 1000

  std::vector<StreamAlert> alerts =
      FeedAll(engine, {Ev(1, 2, 0, 1, 0), Ev(2, 3, 1, 2, 50)});
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].query_index, 1u);
  EXPECT_EQ(alerts[0].interval, (Interval{0, 50}));
}

}  // namespace
}  // namespace tgm
