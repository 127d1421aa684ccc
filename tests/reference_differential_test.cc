// The two user-facing matching paths against the brute-force reference of
// tests/reference/: offline TemporalQuerySearcher::Search and live
// StreamEngine replays (1 and 2 shards, batches of 1 and 7) must return
// exactly the reference's match intervals on thousands of seeded random
// tiny logs. The logs mix timestamp ties, self-loops and one or two edge
// labels; the queries mix self-loop edges, windows (0 included), random
// gap and since-seed guards, label alternatives and deadlines. The TSAN
// CI job runs this suite for its 2-shard engines.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "query/searcher.h"
#include "query/stream/engine.h"
#include "reference/reference_matcher.h"
#include "temporal/constraints.h"
#include "test_util.h"

namespace tgm {
namespace {

using ::tgm::testing::MakeGraph;
using ::tgm::testing::MakePattern;

// --- the reference on hand-checked cases ----------------------------------

std::vector<Interval> Unconstrained(const Pattern& query,
                                    const TemporalGraph& log,
                                    Timestamp window = 0) {
  return reference::MatchIntervals(query, TemporalConstraints(), window, log);
}

TEST(ReferenceMatcherTest, KeepsEdgeOrderAndWindow) {
  TemporalGraph log = MakeGraph({0, 1, 2, 0, 1, 2},
                                {{0, 1, 10}, {1, 2, 20},    // in order
                                 {4, 5, 30}, {3, 4, 40}});  // reversed
  Pattern q = MakePattern({0, 1, 2}, {{0, 1}, {1, 2}});
  EXPECT_EQ(Unconstrained(q, log), (std::vector<Interval>{{10, 20}}));
  EXPECT_TRUE(Unconstrained(q, log, /*window=*/9).empty());
}

TEST(ReferenceMatcherTest, TiesFollowPositionOrder) {
  // Two edges share a timestamp: the recorded order is the temporal order.
  TemporalGraph log = MakeGraph({0, 1, 2}, {{0, 1, 7}, {1, 2, 7}});
  Pattern forward = MakePattern({0, 1, 2}, {{0, 1}, {1, 2}});
  Pattern backward = MakePattern({1, 2, 0}, {{0, 1}, {2, 0}});
  EXPECT_EQ(Unconstrained(forward, log), (std::vector<Interval>{{7, 7}}));
  EXPECT_TRUE(Unconstrained(backward, log).empty());
}

TEST(ReferenceMatcherTest, NodeMapIsInjective) {
  // A->B twice into the same B cannot match A->B, A->B' (B' a new node),
  // but it does match the multi-edge A->B, A->B.
  TemporalGraph log = MakeGraph({0, 1}, {{0, 1, 1}, {0, 1, 2}});
  EXPECT_TRUE(
      Unconstrained(Pattern::SingleEdge(0, 1).GrowForward(0, 1), log).empty());
  EXPECT_EQ(Unconstrained(Pattern::SingleEdge(0, 1).GrowInward(0, 1), log),
            (std::vector<Interval>{{1, 2}}));
}

TEST(ReferenceMatcherTest, GuardsAlternativesAndDeadline) {
  // A -(5)-> B at 10, then B -(6)-> C at 13: one gap of 3.
  TemporalGraph log;
  for (LabelId l : {0, 1, 2}) log.AddNode(l);
  log.AddEdge(0, 1, 10, 5);
  log.AddEdge(1, 2, 13, 6);
  log.Finalize();
  const Pattern q = Pattern::SingleEdge(0, 1, 5).GrowForward(1, 2, 6);
  TemporalConstraints c(q.edge_count());
  c.mutable_guard(1).max_gap = 2;
  EXPECT_TRUE(reference::MatchIntervals(q, c, 0, log).empty());
  c.mutable_guard(1).max_gap = 3;
  EXPECT_EQ(reference::MatchIntervals(q, c, 0, log),
            (std::vector<Interval>{{10, 13}}));
  c.mutable_guard(1).min_since_seed = 4;
  EXPECT_TRUE(reference::MatchIntervals(q, c, 0, log).empty());
  c.mutable_guard(1).min_since_seed = 0;
  c.set_deadline(2);
  EXPECT_TRUE(reference::MatchIntervals(q, c, 0, log).empty());
  c.set_deadline(0);
  // Relabeled to 7, edge 1 matches the log's label-6 edge only through an
  // alternative.
  const Pattern relabeled = Pattern::SingleEdge(0, 1, 5).GrowForward(1, 2, 7);
  EXPECT_TRUE(reference::MatchIntervals(relabeled, c, 0, log).empty());
  c.mutable_guard(1).elabel_alts = {6};
  EXPECT_EQ(reference::MatchIntervals(relabeled, c, 0, log),
            (std::vector<Interval>{{10, 13}}));
}

// --- random cases -----------------------------------------------------------

constexpr int kCases = 3000;
constexpr int kQueriesPerCase = 3;

/// A tiny log: 3-6 nodes over `node_labels` labels, 4-12 edges over
/// `edge_labels` edge labels, about one in eight a self-loop, and
/// timestamp steps of 0-3 (so ties are common).
TemporalGraph RandomLog(std::mt19937_64& rng, int node_labels,
                        int edge_labels) {
  TemporalGraph log;
  const int nodes = 3 + static_cast<int>(rng() % 4);
  for (int i = 0; i < nodes; ++i) {
    log.AddNode(static_cast<LabelId>(rng() % node_labels));
  }
  const int edges = 4 + static_cast<int>(rng() % 9);
  Timestamp ts = static_cast<Timestamp>(rng() % 3);
  for (int i = 0; i < edges; ++i) {
    const auto src = static_cast<NodeId>(rng() % nodes);
    const auto dst =
        rng() % 8 == 0 ? src : static_cast<NodeId>(rng() % nodes);
    const auto elabel = static_cast<LabelId>(rng() % edge_labels);
    log.AddEdge(src, dst, ts, elabel);
    static constexpr Timestamp kSteps[] = {0, 0, 1, 1, 2, 3};
    ts += kSteps[rng() % 6];
  }
  log.Finalize(TiePolicy::kBreakByInsertionOrder);
  return log;
}

/// A canonical query of 1-3 edges (occasionally 4). The seed is a self-loop
/// one time in eight; inward growth may close a self-loop too. Every draw
/// is its own statement, so the case does not depend on the compiler's
/// argument evaluation order.
Pattern RandomQuery(std::mt19937_64& rng, int node_labels, int edge_labels) {
  auto label = [&] { return static_cast<LabelId>(rng() % node_labels); };
  auto elabel = [&] { return static_cast<LabelId>(rng() % edge_labels); };
  Pattern p;
  if (rng() % 8 == 0) {
    TemporalGraph loop;
    loop.AddNode(label());
    loop.AddEdge(0, 0, 1, elabel());
    loop.Finalize();
    p = *Pattern::FromTemporalGraph(loop);
  } else {
    const LabelId src = label();
    const LabelId dst = label();
    p = Pattern::SingleEdge(src, dst, elabel());
  }
  const std::size_t edges = 1 + rng() % 3 + (rng() % 6 == 0 ? 1 : 0);
  while (p.edge_count() < edges) {
    const std::uint64_t growth = rng() % 3;
    const auto u = static_cast<NodeId>(rng() % p.node_count());
    const auto v = static_cast<NodeId>(rng() % p.node_count());
    const LabelId l = label();
    const LabelId el = elabel();
    if (growth == 0) {
      p = p.GrowForward(u, l, el);
    } else if (growth == 1) {
      p = p.GrowBackward(l, v, el);
    } else {
      p = p.GrowInward(u, v, el);
    }
  }
  return p;
}

/// Trivial two times in five; otherwise random gap and since-seed bounds
/// on the edges after the seed, label alternatives on any edge (including
/// labels the log never uses and the edge's own label), and sometimes a
/// deadline.
TemporalConstraints RandomConstraints(std::mt19937_64& rng,
                                      const Pattern& query, int edge_labels) {
  if (rng() % 5 < 2) return TemporalConstraints();
  TemporalConstraints c(query.edge_count());
  for (std::size_t k = 0; k < query.edge_count(); ++k) {
    TransitionGuard& g = c.mutable_guard(k);
    if (rng() % 3 == 0) {
      const int alts = 1 + static_cast<int>(rng() % 2);
      for (int a = 0; a < alts; ++a) {
        g.elabel_alts.push_back(
            static_cast<LabelId>(rng() % (edge_labels + 1)));
      }
    }
    if (k == 0) continue;  // the seed edge carries no time bounds
    if (rng() % 2 == 0) g.min_gap = static_cast<Timestamp>(rng() % 3);
    if (rng() % 2 == 0) {
      g.max_gap = g.min_gap + static_cast<Timestamp>(rng() % 4);
    }
    if (rng() % 3 == 0) g.min_since_seed = static_cast<Timestamp>(rng() % 4);
    if (rng() % 3 == 0) {
      g.max_since_seed = g.min_since_seed + static_cast<Timestamp>(rng() % 6);
    }
  }
  if (rng() % 3 == 0) c.set_deadline(static_cast<Timestamp>(rng() % 9));
  return c;
}

struct Case {
  TemporalGraph log;
  Timestamp window = 0;
  std::vector<Pattern> queries;
  std::vector<TemporalConstraints> constraints;
};

Case RandomCase(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const int node_labels = 1 + static_cast<int>(rng() % 2);
  const int edge_labels = 1 + static_cast<int>(rng() % 2);
  Case c;
  c.log = RandomLog(rng, node_labels, edge_labels);
  static constexpr Timestamp kWindows[] = {0, 0, 1, 2, 3, 4, 6, 10, 1000};
  c.window = kWindows[rng() % 9];
  for (int q = 0; q < kQueriesPerCase; ++q) {
    c.queries.push_back(RandomQuery(rng, node_labels, edge_labels));
    c.constraints.push_back(
        RandomConstraints(rng, c.queries.back(), edge_labels));
  }
  return c;
}

/// Per-query alert intervals of a StreamEngine replay of the case's log,
/// each sorted (duplicates kept: the engine must not emit any). Adds the
/// replay's collapsed partials to `*collapsed`.
std::vector<std::vector<Interval>> Replay(const Case& c, int num_shards,
                                          std::size_t batch_size,
                                          std::int64_t* collapsed) {
  StreamEngine::Options options;
  options.window = c.window;
  options.num_shards = num_shards;
  options.batch_size = batch_size;
  StreamEngine engine(options);
  for (std::size_t q = 0; q < c.queries.size(); ++q) {
    engine.AddQuery(c.queries[q], c.window, c.constraints[q]);
  }
  std::vector<std::vector<Interval>> alerts(c.queries.size());
  auto sink = [&alerts](const StreamAlert& a) {
    alerts[a.query_index].push_back(a.interval);
  };
  for (const TemporalEdge& e : c.log.edges()) {
    engine.OnEvent(StreamEvent::FromEdge(c.log, e), sink);
  }
  engine.Flush(sink);
  *collapsed += engine.Stats().collapsed_partials;
  for (std::vector<Interval>& intervals : alerts) {
    std::sort(intervals.begin(), intervals.end());
  }
  return alerts;
}

std::string Describe(const Case& c, std::size_t q) {
  std::string out = "window " + std::to_string(c.window) + ", deadline " +
                    std::to_string(c.constraints[q].deadline()) + "\n";
  for (std::size_t k = 0; k < c.constraints[q].size(); ++k) {
    const TransitionGuard& g = c.constraints[q].guard(k);
    out += "guard " + std::to_string(k) + ": gap [" +
           std::to_string(g.min_gap) + ", " + std::to_string(g.max_gap) +
           "] since-seed [" + std::to_string(g.min_since_seed) + ", " +
           std::to_string(g.max_since_seed) + "] alts";
    for (LabelId alt : g.elabel_alts) out += " " + std::to_string(alt);
    out += "\n";
  }
  return out + "query:\n" + c.queries[q].ToString() + "\nlog:\n" +
         c.log.ToString();
}

TEST(ReferenceDifferentialTest, SearchAndWatchReturnTheReferenceIntervals) {
  int non_empty = 0;
  std::int64_t collapsed = 0;
  int failures = 0;
  for (int seed = 0; seed < kCases && failures < 5; ++seed) {
    const Case c = RandomCase(static_cast<std::uint64_t>(seed));
    std::vector<std::vector<Interval>> want;
    for (std::size_t q = 0; q < c.queries.size(); ++q) {
      ASSERT_TRUE(c.constraints[q].ValidateFor(c.queries[q]).ok());
      want.push_back(reference::MatchIntervals(c.queries[q], c.constraints[q],
                                               c.window, c.log));
      if (!want.back().empty()) ++non_empty;
    }
    TemporalQuerySearcher::Options search_options;
    search_options.window = c.window;
    const TemporalQuerySearcher searcher(search_options);
    for (std::size_t q = 0; q < c.queries.size(); ++q) {
      const std::vector<Interval> got =
          searcher.Search(c.queries[q], c.constraints[q], c.log);
      EXPECT_EQ(got, want[q]) << "Search, seed " << seed << "\n"
                              << Describe(c, q);
      if (got != want[q]) ++failures;
    }
    for (int shards : {1, 2}) {
      for (std::size_t batch : {std::size_t{1}, std::size_t{7}}) {
        const std::vector<std::vector<Interval>> got =
            Replay(c, shards, batch, &collapsed);
        for (std::size_t q = 0; q < c.queries.size(); ++q) {
          EXPECT_EQ(got[q], want[q])
              << "Watch at " << shards << " shard(s), batch " << batch
              << ", seed " << seed << "\n"
              << Describe(c, q);
          if (got[q] != want[q]) ++failures;
        }
      }
    }
  }
  // Thousands of empty agreements would prove nothing, and neither would
  // replays that never exercise the duplicate collapse.
  EXPECT_GE(non_empty, 500);
  EXPECT_GE(collapsed, 500);
  std::printf("%d of %d reference results non-empty; %lld partials "
              "collapsed over the replays\n",
              non_empty, kCases * kQueriesPerCase,
              static_cast<long long>(collapsed));
}

}  // namespace
}  // namespace tgm
