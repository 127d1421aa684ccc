// TemporalConstraints across the layers: validation and normalization of
// the guard structs, compilation into CompiledQueryPlan (seed horizons,
// label-alternative accept sets, the SeedMatches/SeedDispatchKeys single
// source of truth), guard enforcement in the stream runtime and the
// offline searcher (including offline/online parity on constrained
// queries), the guard-expiry peak-partials reduction, and the
// QueryConstraintsBuilder front door. The degenerate-case suites pin that
// a trivial annotation is bit-identical to the unconstrained path.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include "api/builders.h"
#include "query/searcher.h"
#include "query/stream/engine.h"
#include "temporal/constraints.h"
#include "test_util.h"

namespace tgm {
namespace {

// A -(el 5)-> B -(el 6)-> C chain (node labels 0, 1, 2).
Pattern ChainPattern() {
  return Pattern::SingleEdge(0, 1, 5).GrowForward(1, 2, 6);
}

StreamEvent Ev(std::int64_t src, std::int64_t dst, LabelId src_label,
               LabelId dst_label, LabelId elabel, Timestamp ts) {
  return StreamEvent{src, dst, src_label, dst_label, elabel, ts};
}

struct EngineRun {
  std::vector<StreamAlert> alerts;
  std::size_t peak_partials = 0;
  std::size_t live_partials = 0;
  std::int64_t dropped = 0;
};

EngineRun RunEngine(const Pattern& query, const TemporalConstraints& c,
                    const std::vector<StreamEvent>& events, Timestamp window,
                    int num_shards = 1, std::size_t batch_size = 1) {
  StreamEngine::Options options;
  options.window = window;
  options.num_shards = num_shards;
  options.batch_size = batch_size;
  StreamEngine engine(options);
  engine.AddQuery(query, window, c);
  EngineRun run;
  auto sink = [&run](const StreamAlert& a) { run.alerts.push_back(a); };
  for (const StreamEvent& e : events) engine.OnEvent(e, sink);
  engine.Flush(sink);
  run.live_partials = engine.PartialCount();
  run.dropped = engine.dropped_partials();
  for (const EngineQueryStats& q : engine.Stats().queries) {
    run.peak_partials = std::max(run.peak_partials, q.peak_partials);
  }
  return run;
}

std::vector<Interval> AlertIntervals(const EngineRun& run) {
  std::vector<Interval> out;
  for (const StreamAlert& a : run.alerts) out.push_back(a.interval);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

// --- struct-level validation ----------------------------------------------

TEST(TemporalConstraintsTest, TrivialityAndNormalize) {
  Pattern p = ChainPattern();
  TemporalConstraints c(p.edge_count());
  EXPECT_TRUE(c.IsTrivial());
  EXPECT_TRUE(TemporalConstraints().IsTrivial());

  c.mutable_guard(1).elabel_alts = {9, 7, 9, 7};
  EXPECT_FALSE(c.IsTrivial());
  c.Normalize();
  EXPECT_EQ(c.guard(1).elabel_alts, (std::vector<LabelId>{7, 9}));

  TemporalConstraints d(p.edge_count());
  d.set_deadline(10);
  EXPECT_FALSE(d.IsTrivial());
}

TEST(TemporalConstraintsTest, GuardOutOfRangeIsTrivial) {
  TemporalConstraints c(1);
  c.mutable_guard(0).elabel_alts = {3};
  EXPECT_EQ(c.guard(5).min_gap, 0);
  EXPECT_EQ(c.guard(5).max_gap, kNoGapLimit);
  EXPECT_TRUE(c.guard(5).elabel_alts.empty());
}

TEST(TemporalConstraintsTest, ValidateForRejectsInconsistentGuards) {
  Pattern p = ChainPattern();

  TemporalConstraints too_many(p.edge_count() + 1);
  EXPECT_FALSE(too_many.ValidateFor(p).ok());

  TemporalConstraints negative_min(p.edge_count());
  negative_min.mutable_guard(1).min_gap = -3;
  EXPECT_FALSE(negative_min.ValidateFor(p).ok());

  TemporalConstraints crossed(p.edge_count());
  crossed.mutable_guard(1).min_gap = 10;
  crossed.mutable_guard(1).max_gap = 5;
  EXPECT_FALSE(crossed.ValidateFor(p).ok());

  TemporalConstraints crossed_seed(p.edge_count());
  crossed_seed.mutable_guard(1).min_since_seed = 10;
  crossed_seed.mutable_guard(1).max_since_seed = 5;
  EXPECT_FALSE(crossed_seed.ValidateFor(p).ok());

  TemporalConstraints seed_gap(p.edge_count());
  seed_gap.mutable_guard(0).max_gap = 5;
  EXPECT_FALSE(seed_gap.ValidateFor(p).ok());

  TemporalConstraints bad_alt(p.edge_count());
  bad_alt.mutable_guard(1).elabel_alts = {-2};
  EXPECT_FALSE(bad_alt.ValidateFor(p).ok());

  TemporalConstraints bad_deadline(p.edge_count());
  bad_deadline.set_deadline(-1);
  EXPECT_FALSE(bad_deadline.ValidateFor(p).ok());

  TemporalConstraints below_sentinel(p.edge_count());
  below_sentinel.mutable_guard(1).max_gap = -7;
  EXPECT_FALSE(below_sentinel.ValidateFor(p).ok());

  // Zero is a real (satisfiable) upper bound, not the sentinel.
  TemporalConstraints zero_gap(p.edge_count());
  zero_gap.mutable_guard(1).max_gap = 0;
  EXPECT_TRUE(zero_gap.ValidateFor(p).ok());

  // Seed-edge label alternatives are fine; only time bounds are rejected.
  TemporalConstraints seed_alt(p.edge_count());
  seed_alt.mutable_guard(0).elabel_alts = {9};
  EXPECT_TRUE(seed_alt.ValidateFor(p).ok());
}

TEST(TemporalConstraintsTest, EffectiveWindowFoldsDeadline) {
  TemporalConstraints c;
  EXPECT_EQ(c.EffectiveWindow(100), 100);
  EXPECT_EQ(c.EffectiveWindow(0), 0);
  c.set_deadline(50);
  EXPECT_EQ(c.EffectiveWindow(100), 50);
  EXPECT_EQ(c.EffectiveWindow(30), 30);
  EXPECT_EQ(c.EffectiveWindow(0), 50);
}

// --- compilation ------------------------------------------------------------

TEST(CompiledPlanConstraintsTest, GuardsAndSeedHorizonBakedIn) {
  Pattern p = ChainPattern().GrowForward(2, 3, 7);  // 3 edges
  TemporalConstraints c(p.edge_count());
  c.mutable_guard(1).min_gap = 2;
  c.mutable_guard(1).max_gap = 20;
  c.mutable_guard(2).max_since_seed = 10;
  c.set_deadline(50);

  CompiledQueryPlan plan(p, c);
  EXPECT_TRUE(plan.constrained());
  EXPECT_EQ(plan.transition(1).min_gap, 2);
  EXPECT_EQ(plan.transition(1).max_gap, 20);
  EXPECT_EQ(plan.transition(2).max_since_seed, 10);
  // Suffix-min over {deadline 50, max_since_seed(2) 10}: every prefix
  // state is dead once now - first_ts exceeds 10.
  EXPECT_EQ(plan.transition(0).seed_horizon, 10);
  EXPECT_EQ(plan.transition(1).seed_horizon, 10);
  EXPECT_EQ(plan.transition(2).seed_horizon, 10);
  EXPECT_EQ(plan.EffectiveWindow(100), 50);
  EXPECT_EQ(plan.EffectiveWindow(0), 50);

  CompiledQueryPlan plain(p);
  EXPECT_FALSE(plain.constrained());
  EXPECT_EQ(plain.transition(0).seed_horizon, kNoGapLimit);
  EXPECT_EQ(plain.EffectiveWindow(100), 100);
}

TEST(CompiledPlanConstraintsTest, AcceptsLabelCoversAlternatives) {
  Pattern p = ChainPattern();
  TemporalConstraints c(p.edge_count());
  c.mutable_guard(0).elabel_alts = {9, 5};  // 5 == the pattern's own label
  c.Normalize();
  CompiledQueryPlan plan(p, c);
  // The pattern's own label is filtered out of the alternative list.
  EXPECT_EQ(plan.transition(0).elabel_alts, (std::vector<LabelId>{9}));
  EXPECT_TRUE(plan.transition(0).AcceptsLabel(5));
  EXPECT_TRUE(plan.transition(0).AcceptsLabel(9));
  EXPECT_FALSE(plan.transition(0).AcceptsLabel(6));
}

// Satellite regression: the seed-dispatch keys and the SeedMatches
// predicate must agree — every event SeedMatches accepts carries a
// dispatch key, for plain and alternative-labeled plans alike (a dispatch
// bitmap that misses a key would silently drop seeds on idle queries).
TEST(CompiledPlanConstraintsTest, SeedDispatchKeysAgreeWithSeedMatches) {
  Pattern p = ChainPattern();
  TemporalConstraints c(p.edge_count());
  c.mutable_guard(0).elabel_alts = {9};
  c.Normalize();

  for (const CompiledQueryPlan& plan :
       {CompiledQueryPlan(p), CompiledQueryPlan(p, c)}) {
    std::set<std::pair<LabelId, LabelId>> keys;
    for (const auto& key : plan.SeedDispatchKeys()) keys.insert(key);
    for (LabelId elabel = 0; elabel <= 10; ++elabel) {
      for (LabelId src_label = 0; src_label <= 3; ++src_label) {
        for (LabelId dst_label = 0; dst_label <= 3; ++dst_label) {
          StreamEvent event = Ev(1, 2, src_label, dst_label, elabel, 10);
          if (plan.SeedMatches(event)) {
            EXPECT_TRUE(keys.count({elabel, src_label}))
                << "SeedMatches accepts (elabel=" << elabel
                << ", src_label=" << src_label
                << ") but SeedDispatchKeys does not list it";
          }
        }
      }
    }
    // And the keys are tight: each key admits at least one seed event.
    for (const auto& [elabel, src_label] : keys) {
      StreamEvent event = Ev(1, 2, src_label, plan.transition(0).dst_label,
                             elabel, 10);
      EXPECT_TRUE(plan.SeedMatches(event));
    }
  }
}

// --- stream runtime enforcement ---------------------------------------------

TEST(StreamConstraintsTest, MaxGapRejectsSlowExtension) {
  Pattern p = ChainPattern();
  TemporalConstraints c(p.edge_count());
  c.mutable_guard(1).max_gap = 10;

  // Fast pair completes; slow pair (gap 20, still inside the window) does
  // not.
  std::vector<StreamEvent> events = {
      Ev(1, 2, 0, 1, 5, 100), Ev(2, 3, 1, 2, 6, 105),   // gap 5: match
      Ev(4, 5, 0, 1, 5, 200), Ev(5, 6, 1, 2, 6, 220),   // gap 20: blocked
  };
  EngineRun constrained = RunEngine(p, c, events, /*window=*/1000);
  ASSERT_EQ(constrained.alerts.size(), 1u);
  EXPECT_EQ(constrained.alerts[0].interval, (Interval{100, 105}));

  EngineRun plain =
      RunEngine(p, TemporalConstraints(), events, /*window=*/1000);
  EXPECT_EQ(plain.alerts.size(), 2u);
}

TEST(StreamConstraintsTest, MinGapRejectsFastExtension) {
  Pattern p = ChainPattern();
  TemporalConstraints c(p.edge_count());
  c.mutable_guard(1).min_gap = 10;

  std::vector<StreamEvent> events = {
      Ev(1, 2, 0, 1, 5, 100), Ev(2, 3, 1, 2, 6, 105),   // gap 5: blocked
      Ev(4, 5, 0, 1, 5, 200), Ev(5, 6, 1, 2, 6, 215),   // gap 15: match
  };
  EngineRun run = RunEngine(p, c, events, /*window=*/1000);
  ASSERT_EQ(run.alerts.size(), 1u);
  EXPECT_EQ(run.alerts[0].interval, (Interval{200, 215}));
}

TEST(StreamConstraintsTest, MaxSinceSeedBoundsLaterEdges) {
  Pattern p = ChainPattern().GrowForward(2, 3, 7);  // 3 edges
  TemporalConstraints c(p.edge_count());
  c.mutable_guard(2).max_since_seed = 10;

  // Edges at +4, +8 from the seed: edge 2 lands at seed+8 <= 10: match.
  std::vector<StreamEvent> ok = {
      Ev(1, 2, 0, 1, 5, 100),
      Ev(2, 3, 1, 2, 6, 104),
      Ev(3, 4, 2, 3, 7, 108),
  };
  EXPECT_EQ(RunEngine(p, c, ok, /*window=*/1000).alerts.size(), 1u);

  // Edge 2 at seed+12 > 10: blocked even though each gap is small.
  std::vector<StreamEvent> late = {
      Ev(1, 2, 0, 1, 5, 100),
      Ev(2, 3, 1, 2, 6, 106),
      Ev(3, 4, 2, 3, 7, 112),
  };
  EXPECT_EQ(RunEngine(p, c, late, /*window=*/1000).alerts.size(), 0u);
}

TEST(StreamConstraintsTest, DeadlineTightensWindow) {
  Pattern p = ChainPattern();
  TemporalConstraints c(p.edge_count());
  c.set_deadline(10);

  std::vector<StreamEvent> events = {
      Ev(1, 2, 0, 1, 5, 100), Ev(2, 3, 1, 2, 6, 120),  // span 20
  };
  EXPECT_EQ(RunEngine(p, c, events, /*window=*/1000).alerts.size(), 0u);
  EXPECT_EQ(RunEngine(p, TemporalConstraints(), events, /*window=*/1000)
                .alerts.size(),
            1u);
  // The deadline also binds when the engine window is unbounded.
  EXPECT_EQ(RunEngine(p, c, events, /*window=*/0).alerts.size(), 0u);
}

TEST(StreamConstraintsTest, LabelAlternativesSeedAndExtend) {
  Pattern p = ChainPattern();  // edge labels 5 then 6
  TemporalConstraints c(p.edge_count());
  c.mutable_guard(0).elabel_alts = {9};   // seed accepts 5 or 9
  c.mutable_guard(1).elabel_alts = {8};   // extension accepts 6 or 8
  c.Normalize();

  std::vector<StreamEvent> events = {
      Ev(1, 2, 0, 1, 9, 100),  Ev(2, 3, 1, 2, 6, 101),   // alt seed
      Ev(4, 5, 0, 1, 5, 200),  Ev(5, 6, 1, 2, 8, 201),   // alt extension
      Ev(7, 8, 0, 1, 9, 300),  Ev(8, 9, 1, 2, 8, 301),   // both alt
      Ev(10, 11, 0, 1, 8, 400), Ev(11, 12, 1, 2, 5, 401),  // wrong slots
  };
  EngineRun run = RunEngine(p, c, events, /*window=*/1000);
  EXPECT_EQ(AlertIntervals(run),
            (std::vector<Interval>{{100, 101}, {200, 201}, {300, 301}}));

  // Unconstrained, none of the alternative-labeled pairs match.
  EXPECT_EQ(
      RunEngine(p, TemporalConstraints(), events, /*window=*/1000).alerts
          .size(),
      0u);
}

TEST(StreamConstraintsTest, GuardExpiryShrinksPeakPartialsAlertsIdentical) {
  Pattern p = ChainPattern();
  TemporalConstraints c(p.edge_count());
  c.mutable_guard(1).max_gap = 2;

  // A long parade of seeds that never extend (each waits on edge 1 with a
  // 2-tick max gap), plus a few real matches scattered in.
  std::vector<StreamEvent> events;
  std::int64_t entity = 100;
  for (Timestamp ts = 1; ts <= 200; ++ts) {
    events.push_back(Ev(entity, entity + 1, 0, 1, 5, ts));
    entity += 2;
    if (ts % 50 == 0) {
      events.push_back(Ev(entity, entity + 1, 0, 1, 5, ts));
      events.push_back(Ev(entity + 1, entity + 2, 1, 2, 6, ts + 1));
      entity += 3;
    }
  }

  EngineRun run = RunEngine(p, c, events, /*window=*/1000);
  EXPECT_EQ(AlertIntervals(run), (std::vector<Interval>{
                                     {50, 51}, {100, 101}, {150, 151},
                                     {200, 201}}));
  EXPECT_EQ(run.alerts.size(), 4u);
  EXPECT_EQ(run.dropped, 0);
  // The guard-driven expiry keeps only the partials that can still
  // complete within the 2-tick max gap. Expiring by the 1000-tick window
  // alone would hold every one of the 204 seeds live to the end.
  EXPECT_EQ(run.peak_partials, 4u);
  EXPECT_EQ(run.live_partials, 3u);
}

// --- degenerate-case parity (stream) ----------------------------------------

TEST(StreamConstraintsTest, TrivialConstraintsBitIdenticalToUnconstrained) {
  std::mt19937_64 rng(20260807);
  Pattern p = ChainPattern();
  std::vector<StreamEvent> events;
  std::uniform_int_distribution<std::int64_t> ent(1, 30);
  std::uniform_int_distribution<int> lbl(0, 2);
  std::uniform_int_distribution<int> el(5, 6);
  Timestamp ts = 1;
  for (int i = 0; i < 400; ++i) {
    std::int64_t s = ent(rng);
    std::int64_t d = ent(rng);
    if (s == d) continue;
    events.push_back(Ev(s, d, lbl(rng), lbl(rng), el(rng), ts));
    ts += static_cast<Timestamp>(rng() % 3);
  }

  // Explicit trivial guards and infinite gaps are the same degenerate
  // case: identical alerts, stats, and live/peak partials — including
  // under backpressure (window 0 + tiny cap exercises EvictOldest order).
  TemporalConstraints trivial(p.edge_count());
  TemporalConstraints infinite(p.edge_count());
  infinite.mutable_guard(1).max_gap = kNoGapLimit;
  infinite.mutable_guard(1).min_gap = 0;

  for (Timestamp window : {Timestamp{0}, Timestamp{20}}) {
    SCOPED_TRACE(window);
    EngineRun plain =
        RunEngine(p, TemporalConstraints(), events, window);
    for (const TemporalConstraints& c : {trivial, infinite}) {
      EngineRun run = RunEngine(p, c, events, window);
      EXPECT_EQ(plain.alerts, run.alerts);
      EXPECT_EQ(plain.peak_partials, run.peak_partials);
      EXPECT_EQ(plain.live_partials, run.live_partials);
      EXPECT_EQ(plain.dropped, run.dropped);
    }
  }
}

// --- offline searcher enforcement -------------------------------------------

TEST(SearcherConstraintsTest, GuardsEnforcedOffline) {
  // Data: two A->B->C chains, one tight (gap 5) one slow (gap 20).
  TemporalGraph g;
  for (LabelId l : {0, 1, 2, 0, 1, 2}) g.AddNode(l);
  g.AddEdge(0, 1, 100, 5);
  g.AddEdge(1, 2, 105, 6);
  g.AddEdge(3, 4, 200, 5);
  g.AddEdge(4, 5, 220, 6);
  g.Finalize(TiePolicy::kRequireStrict);

  Pattern p = ChainPattern();
  TemporalQuerySearcher searcher({.window = 1000});

  EXPECT_EQ(searcher.Search(p, g).size(), 2u);

  TemporalConstraints c(p.edge_count());
  c.mutable_guard(1).max_gap = 10;
  std::vector<Interval> hits = searcher.Search(p, c, g);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], (Interval{100, 105}));

  TemporalConstraints min_c(p.edge_count());
  min_c.mutable_guard(1).min_gap = 10;
  hits = searcher.Search(p, min_c, g);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], (Interval{200, 220}));

  TemporalConstraints dl(p.edge_count());
  dl.set_deadline(10);
  hits = searcher.Search(p, dl, g);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], (Interval{100, 105}));
}

TEST(SearcherConstraintsTest, LabelAlternativesWidenSignatureEnumeration) {
  // The anchor edge's own label never occurs in the data; only the
  // alternative does. The signature-index enumeration must still find it.
  TemporalGraph g;
  for (LabelId l : {0, 1, 2}) g.AddNode(l);
  g.AddEdge(0, 1, 100, 9);  // label 9, not the pattern's 5
  g.AddEdge(1, 2, 101, 6);
  g.Finalize(TiePolicy::kRequireStrict);

  Pattern p = ChainPattern();
  TemporalQuerySearcher searcher({.window = 1000});
  EXPECT_TRUE(searcher.Search(p, g).empty());

  TemporalConstraints c(p.edge_count());
  c.mutable_guard(0).elabel_alts = {9};
  std::vector<Interval> hits = searcher.Search(p, c, g);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], (Interval{100, 101}));
}

TEST(SearcherConstraintsTest, TrivialConstraintsMatchUnconstrainedSearch) {
  std::mt19937_64 rng(7);
  TemporalGraph g = testing::RandomGraph(rng, 40, 400, 3);
  Pattern p = ChainPattern();
  // ChainPattern's edge labels (5, 6) never occur in RandomGraph; use an
  // unlabeled chain instead.
  Pattern unlabeled =
      Pattern::SingleEdge(0, 1).GrowForward(1, 2).GrowForward(2, 0);
  TemporalQuerySearcher searcher({.window = 50});
  for (const Pattern& q : {p, unlabeled}) {
    EXPECT_EQ(searcher.Search(q, g),
              searcher.Search(q, TemporalConstraints(q.edge_count()), g));
  }
}

// Offline Search and an online engine replay must agree on constrained
// queries exactly as they do on plain ones.
TEST(SearcherConstraintsTest, ConstrainedOfflineOnlineParity) {
  std::mt19937_64 rng(42);
  Pattern p = Pattern::SingleEdge(0, 1).GrowForward(1, 2);
  TemporalConstraints c(p.edge_count());
  c.mutable_guard(1).min_gap = 1;
  c.mutable_guard(1).max_gap = 6;
  c.set_deadline(40);

  std::size_t total_matches = 0;
  for (int round = 0; round < 5; ++round) {
    SCOPED_TRACE(round);
    TemporalGraph g = testing::RandomGraph(rng, 25, 300, 3);
    TemporalQuerySearcher searcher({.window = 50});
    std::vector<Interval> offline = searcher.Search(p, c, g);

    StreamEngine::Options options;
    options.window = 50;
    StreamEngine engine(options);
    engine.AddQuery(p, 50, c);
    std::vector<Interval> online;
    auto sink = [&online](const StreamAlert& a) {
      online.push_back(a.interval);
    };
    for (const TemporalEdge& e : g.edges()) {
      engine.OnEvent(StreamEvent::FromEdge(g, e), sink);
    }
    engine.Flush(sink);
    std::sort(online.begin(), online.end());
    online.erase(std::unique(online.begin(), online.end()), online.end());

    EXPECT_EQ(offline, online);
    total_matches += offline.size();
  }
  EXPECT_GT(total_matches, 0u) << "fixture too sparse to be meaningful";
}

// --- builder -----------------------------------------------------------------

TEST(QueryConstraintsBuilderTest, BuildsValidatedConstraints) {
  Pattern p = ChainPattern().GrowForward(2, 3, 7);
  auto built = api::QueryConstraintsBuilder(p.edge_count())
                   .MaxGap(1, 30)
                   .MinGap(2, 5)
                   .MaxSinceSeed(2, 120)
                   .AlternativeEdgeLabel(1, 8)
                   .AlternativeEdgeLabel(1, 8)  // deduped by Normalize
                   .Deadline(600)
                   .Build(p);
  ASSERT_TRUE(built.ok()) << built.status().message();
  const TemporalConstraints& c = *built;
  EXPECT_EQ(c.guard(1).max_gap, 30);
  EXPECT_EQ(c.guard(2).min_gap, 5);
  EXPECT_EQ(c.guard(2).max_since_seed, 120);
  EXPECT_EQ(c.guard(1).elabel_alts, (std::vector<LabelId>{8}));
  EXPECT_EQ(c.deadline(), 600);
  EXPECT_FALSE(c.IsTrivial());
}

TEST(QueryConstraintsBuilderTest, RejectsOutOfRangeAndInvalid) {
  Pattern p = ChainPattern();
  auto out_of_range =
      api::QueryConstraintsBuilder(p.edge_count()).MaxGap(7, 10).Build(p);
  EXPECT_FALSE(out_of_range.ok());

  auto seed_gap =
      api::QueryConstraintsBuilder(p.edge_count()).MaxGap(0, 10).Build(p);
  EXPECT_FALSE(seed_gap.ok());

  auto crossed = api::QueryConstraintsBuilder(p.edge_count())
                     .MinGap(1, 20)
                     .MaxGap(1, 10)
                     .Build(p);
  EXPECT_FALSE(crossed.ok());
}

}  // namespace
}  // namespace tgm
