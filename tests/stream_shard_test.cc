// Shard-count determinism of the stream engine: every shard sees every
// event and each query lives in exactly one shard, so the merged alert
// stream — order and content — plus drops and per-query stats must be
// bit-identical across 1/2/4 shards and any batch size (mirroring
// parallel_miner_test.cc's approach for the miner). The serial run is the
// oracle for everything. The TSAN CI job runs this suite to pin the batch
// fan-out / merge protocol race-free.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "query/stream/engine.h"
#include "query/stream/partial_table.h"
#include "query/stream/query_runtime.h"
#include "temporal/constraints.h"
#include "test_util.h"

namespace tgm {
namespace {

struct RunResult {
  std::vector<StreamAlert> alerts;
  std::size_t live_partials;
  std::int64_t dropped;
  std::int64_t seed_skips;
  std::vector<std::int64_t> per_query_drops;
  std::vector<std::int64_t> per_query_alerts;
  std::vector<std::size_t> per_query_live;
  std::vector<std::size_t> per_query_peak;
  std::vector<std::size_t> per_query_buckets;
  std::vector<std::size_t> per_query_wildcard;
};

RunResult RunEngine(const StreamEngine::Options& options,
                    const std::vector<Pattern>& queries,
                    const std::vector<StreamEvent>& events,
                    const std::vector<TemporalConstraints>& constraints = {}) {
  StreamEngine engine(options);
  for (std::size_t q = 0; q < queries.size(); ++q) {
    if (q < constraints.size()) {
      engine.AddQuery(queries[q], options.window, constraints[q]);
    } else {
      engine.AddQuery(queries[q]);
    }
  }
  RunResult result;
  auto sink = [&result](const StreamAlert& a) {
    result.alerts.push_back(a);
  };
  for (const StreamEvent& e : events) engine.OnEvent(e, sink);
  engine.Flush(sink);
  result.live_partials = engine.PartialCount();
  result.dropped = engine.dropped_partials();
  const EngineStats stats = engine.Stats();
  result.seed_skips = stats.seed_skips;
  for (const EngineQueryStats& q : stats.queries) {
    result.per_query_drops.push_back(q.dropped_partials);
    result.per_query_alerts.push_back(q.alerts);
    result.per_query_live.push_back(q.live_partials);
    result.per_query_peak.push_back(q.peak_partials);
    result.per_query_buckets.push_back(q.index_buckets);
    result.per_query_wildcard.push_back(q.wildcard_partials);
  }
  return result;
}

void ExpectIdentical(const RunResult& want, const RunResult& got,
                     int num_shards, std::size_t batch_size) {
  SCOPED_TRACE(::testing::Message() << "num_shards=" << num_shards
                                    << " batch_size=" << batch_size);
  EXPECT_EQ(want.alerts, got.alerts);
  EXPECT_EQ(want.live_partials, got.live_partials);
  EXPECT_EQ(want.dropped, got.dropped);
  EXPECT_EQ(want.seed_skips, got.seed_skips);
  EXPECT_EQ(want.per_query_drops, got.per_query_drops);
  EXPECT_EQ(want.per_query_alerts, got.per_query_alerts);
  EXPECT_EQ(want.per_query_live, got.per_query_live);
  EXPECT_EQ(want.per_query_peak, got.per_query_peak);
  EXPECT_EQ(want.per_query_buckets, got.per_query_buckets);
  EXPECT_EQ(want.per_query_wildcard, got.per_query_wildcard);
}

class StreamShardTest : public ::testing::TestWithParam<int> {
 protected:
  /// Randomized fixture: a strict-order event stream replayed against a
  /// handful of random behaviour queries.
  void BuildFixture(std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    TemporalGraph log = tgm::testing::RandomGraph(rng, 8, 60, 2);
    for (const TemporalEdge& e : log.edges()) {
      events_.push_back(StreamEvent::FromEdge(log, e));
    }
    for (int q = 0; q < 6; ++q) {
      queries_.push_back(tgm::testing::RandomPattern(
          rng, 2 + static_cast<int>(rng() % 2), 2));
    }
  }

  std::vector<Pattern> queries_;
  std::vector<StreamEvent> events_;
};

TEST_P(StreamShardTest, AlertsIdenticalAcrossShardCounts) {
  BuildFixture(static_cast<std::uint64_t>(GetParam()) + 500);
  StreamEngine::Options base;
  base.window = 40;
  base.batch_size = 8;

  StreamEngine::Options serial = base;
  serial.num_shards = 1;
  RunResult want = RunEngine(serial, queries_, events_);
  EXPECT_FALSE(want.alerts.empty());  // fixtures must exercise the merge

  for (int num_shards : {2, 4}) {
    StreamEngine::Options options = base;
    options.num_shards = num_shards;
    ExpectIdentical(want, RunEngine(options, queries_, events_), num_shards,
                    base.batch_size);
  }
}

TEST_P(StreamShardTest, AlertsIdenticalAcrossBatchSizes) {
  BuildFixture(static_cast<std::uint64_t>(GetParam()) + 900);
  StreamEngine::Options base;
  base.window = 40;
  base.num_shards = 2;

  StreamEngine::Options serial = base;
  serial.batch_size = 1;
  RunResult want = RunEngine(serial, queries_, events_);

  for (std::size_t batch_size : {std::size_t{3}, std::size_t{16}}) {
    StreamEngine::Options options = base;
    options.batch_size = batch_size;
    ExpectIdentical(want, RunEngine(options, queries_, events_),
                    base.num_shards, batch_size);
  }
}

TEST_P(StreamShardTest, BackpressureDeterministicAcrossShards) {
  // A tight partial cap makes eviction order part of the observable
  // behaviour; it must not depend on the shard count either.
  BuildFixture(static_cast<std::uint64_t>(GetParam()) + 1300);
  StreamEngine::Options base;
  base.window = 40;
  base.batch_size = 4;
  base.max_partials_per_query = 3;

  StreamEngine::Options serial = base;
  serial.num_shards = 1;
  RunResult want = RunEngine(serial, queries_, events_);
  EXPECT_GT(want.dropped, 0);  // the cap must actually bite

  for (int num_shards : {2, 4}) {
    StreamEngine::Options options = base;
    options.num_shards = num_shards;
    ExpectIdentical(want, RunEngine(options, queries_, events_), num_shards,
                    base.batch_size);
  }
}

TEST_P(StreamShardTest, ConstrainedAlertsIdenticalAcrossShardsAndBatches) {
  // Timed-automata guards must not perturb the shard/batch determinism
  // oracle: a mix of guarded and plain queries yields one canonical alert
  // stream for every shard count and batch size.
  BuildFixture(static_cast<std::uint64_t>(GetParam()) + 1700);
  std::vector<TemporalConstraints> constraints;
  for (std::size_t q = 0; q < queries_.size(); ++q) {
    TemporalConstraints c(queries_[q].edge_count());
    switch (q % 4) {
      case 0:  // plain (trivial annotation)
        break;
      case 1:
        c.mutable_guard(1).max_gap = 25;
        break;
      case 2:
        c.mutable_guard(1).min_gap = 1;
        c.set_deadline(35);
        break;
      case 3:
        c.mutable_guard(0).elabel_alts = {kNoEdgeLabel};
        c.mutable_guard(1).max_since_seed = 30;
        break;
    }
    c.Normalize();
    constraints.push_back(std::move(c));
  }

  StreamEngine::Options base;
  base.window = 40;

  StreamEngine::Options serial = base;
  serial.num_shards = 1;
  serial.batch_size = 1;
  RunResult want = RunEngine(serial, queries_, events_, constraints);

  for (int num_shards : {2, 4}) {
    for (std::size_t batch_size : {std::size_t{1}, std::size_t{8}}) {
      StreamEngine::Options options = base;
      options.num_shards = num_shards;
      options.batch_size = batch_size;
      ExpectIdentical(want,
                      RunEngine(options, queries_, events_, constraints),
                      num_shards, batch_size);
    }
  }
}

TEST_P(StreamShardTest, DegenerateConstraintsBitIdenticalToUnconstrained) {
  // The degenerate-case parity pin (online half): a query annotated with
  // infinite gaps and single-alternative labels (each transition lists
  // only its own pattern label) must produce bit-identical alerts, drops,
  // and stats to the unconstrained path, across 1/2/4 shards and batch
  // sizes.
  BuildFixture(static_cast<std::uint64_t>(GetParam()) + 2100);
  std::vector<TemporalConstraints> degenerate;
  for (const Pattern& q : queries_) {
    TemporalConstraints c(q.edge_count());
    for (std::size_t k = 0; k < q.edge_count(); ++k) {
      c.mutable_guard(k).min_gap = 0;
      c.mutable_guard(k).max_gap = kNoGapLimit;
      c.mutable_guard(k).elabel_alts = {q.edge(k).elabel};
    }
    c.Normalize();
    degenerate.push_back(std::move(c));
  }

  StreamEngine::Options base;
  base.window = 40;
  for (int num_shards : {1, 2, 4}) {
    for (std::size_t batch_size : {std::size_t{1}, std::size_t{8}}) {
      StreamEngine::Options options = base;
      options.num_shards = num_shards;
      options.batch_size = batch_size;
      RunResult plain = RunEngine(options, queries_, events_);
      ExpectIdentical(plain,
                      RunEngine(options, queries_, events_, degenerate),
                      num_shards, batch_size);
      if (num_shards == 1) EXPECT_FALSE(plain.alerts.empty());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StreamShardTest, ::testing::Range(0, 6));

TEST(StreamShardPlumbingTest, EveryShardSeesEveryEvent) {
  StreamEngine::Options options;
  options.window = 100;
  options.num_shards = 3;
  options.batch_size = 2;
  StreamEngine engine(options);
  ASSERT_EQ(engine.num_shards(), 3);
  for (int q = 0; q < 3; ++q) {
    engine.AddQuery(Pattern::SingleEdge(static_cast<LabelId>(q), 9));
  }
  auto sink = [](const StreamAlert&) {};
  for (int i = 0; i < 5; ++i) {
    engine.OnEvent(StreamEvent{i, 100 + i, 0, 9, kNoEdgeLabel, i}, sink);
  }
  engine.Flush(sink);
  EngineStats stats = engine.Stats();
  ASSERT_EQ(stats.shard_events.size(), 3u);
  for (std::int64_t count : stats.shard_events) EXPECT_EQ(count, 5);
}

TEST(StreamShardPlumbingTest, RoundRobinPartition) {
  StreamEngine::Options options;
  options.num_shards = 2;
  StreamEngine engine(options);
  for (int q = 0; q < 5; ++q) {
    engine.AddQuery(Pattern::SingleEdge(static_cast<LabelId>(q), 9));
  }
  EngineStats stats = engine.Stats();
  ASSERT_EQ(stats.queries.size(), 5u);
  for (std::size_t q = 0; q < 5; ++q) {
    EXPECT_EQ(stats.queries[q].query_index, q);
    EXPECT_EQ(stats.queries[q].shard, q % 2);
  }
}

// --- self-loop probe dedup (the double-extension regression) -----------
//
// The entity index files partials in one role-agnostic bucket map keyed
// by required entity. A self-loop event (src_entity == dst_entity) names
// the same bucket twice; without bucket-level dedup in ForEachExtendable
// every partial in it would be probed — and on a successful match
// extended — twice.

TEST(PartialTableSelfLoopTest, SelfLoopProbesBucketOnce) {
  PartialTable table(/*node_count=*/3, /*entity_index=*/true);
  const std::vector<std::int64_t> binding = {5, 7, kUnboundEntity};
  table.Insert(binding, 1, 1, 1, PartialTable::kNeverExpires,
               PartialTable::Role::kEntity, 7);
  int visits = 0;
  table.ForEachExtendable(7, 7, [&](std::uint32_t) { ++visits; });
  EXPECT_EQ(visits, 1);  // would be 2 if both endpoint probes fired

  // Distinct endpoints still probe both buckets.
  const std::vector<std::int64_t> other = {9, 11, kUnboundEntity};
  table.Insert(other, 1, 2, 2, PartialTable::kNeverExpires,
               PartialTable::Role::kEntity, 9);
  visits = 0;
  table.ForEachExtendable(7, 9, [&](std::uint32_t) { ++visits; });
  EXPECT_EQ(visits, 2);
}

class SelfLoopExtensionTest : public ::testing::TestWithParam<int> {};

TEST_P(SelfLoopExtensionTest, SelfLoopEventExtendsPartialOnce) {
  // Query: A -[e0]-> B, B -[e1]-> B (self-loop), B -[e2]-> C. After the
  // seed, the partial waits on the self-loop transition in entity bucket
  // B; the self-loop event must extend it exactly once. A double probe
  // would leave a duplicate partial behind (live 3, not 2) — the final
  // completion stays deduplicated either way, which is exactly why the
  // live count is the pin.
  const int num_shards = GetParam();
  Pattern p = Pattern::SingleEdge(0, 1).GrowInward(1, 1).GrowForward(1, 2);

  StreamEngine::Options options;
  options.window = 100;
  options.num_shards = num_shards;
  StreamEngine engine(options);
  engine.AddQuery(p);

  std::vector<StreamAlert> alerts;
  auto sink = [&alerts](const StreamAlert& a) { alerts.push_back(a); };
  engine.OnEvent(StreamEvent{10, 20, 0, 1, kNoEdgeLabel, 1}, sink);  // seed
  engine.OnEvent(StreamEvent{20, 20, 1, 1, kNoEdgeLabel, 2}, sink);  // loop
  EXPECT_EQ(engine.PartialCount(), 2u);  // seed partial + one extension
  engine.OnEvent(StreamEvent{20, 30, 1, 2, kNoEdgeLabel, 3}, sink);  // done
  engine.Flush(sink);

  const std::vector<StreamAlert> expected = {{0, Interval{1, 3}}};
  EXPECT_EQ(alerts, expected);
  EngineStats stats = engine.Stats();
  ASSERT_EQ(stats.queries.size(), 1u);
  EXPECT_EQ(stats.queries[0].peak_partials, 2u);
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, SelfLoopExtensionTest,
                         ::testing::Values(1, 2));

}  // namespace
}  // namespace tgm
