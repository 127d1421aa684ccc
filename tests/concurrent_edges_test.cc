// Section 5: concurrent edges. The library follows the paper's second
// option — data collectors sequentialize concurrent events by a
// pre-defined policy — implemented as TiePolicy::kBreakByInsertionOrder.

#include <gtest/gtest.h>

#include "mining/miner.h"
#include "query/searcher.h"
#include "test_util.h"

namespace tgm {
namespace {

TEST(ConcurrentEdgesTest, StrictPolicyRejectsTies) {
  TemporalGraph g;
  g.AddNode(0);
  g.AddNode(1);
  g.AddEdge(0, 1, 5);
  g.AddEdge(1, 0, 5);
  EXPECT_DEATH(g.Finalize(TiePolicy::kRequireStrict), "TGM_CHECK");
}

TEST(ConcurrentEdgesTest, InsertionOrderPolicyKeepsRecordingOrder) {
  TemporalGraph g;
  g.AddNode(0);
  g.AddNode(1);
  g.AddNode(2);
  g.AddEdge(1, 2, 5);  // recorded first
  g.AddEdge(0, 1, 5);  // concurrent, recorded second
  g.AddEdge(0, 2, 3);  // earlier timestamp
  g.Finalize(TiePolicy::kBreakByInsertionOrder);
  EXPECT_EQ(g.edge(0).ts, 3);
  EXPECT_EQ(g.edge(1).src, 1);  // ties keep insertion order
  EXPECT_EQ(g.edge(2).src, 0);
}

TEST(ConcurrentEdgesTest, SequentializedDataIsMinable) {
  // Positives: concurrent burst (a,b) at t=10 recorded as a-before-b;
  // after sequentialization the miner sees a consistent total order and
  // recovers the pattern.
  std::vector<TemporalGraph> pos;
  std::vector<TemporalGraph> neg;
  for (int i = 0; i < 4; ++i) {
    TemporalGraph g;
    g.AddNode(0);
    g.AddNode(1);
    g.AddNode(2);
    g.AddEdge(0, 1, 10);
    g.AddEdge(1, 2, 10);  // concurrent with the first edge
    g.Finalize(TiePolicy::kBreakByInsertionOrder);
    pos.push_back(std::move(g));
    TemporalGraph h;
    h.AddNode(0);
    h.AddNode(1);
    h.AddNode(2);
    h.AddEdge(1, 2, 10);
    h.AddEdge(0, 1, 20);
    h.Finalize(TiePolicy::kBreakByInsertionOrder);
    neg.push_back(std::move(h));
  }
  MinerConfig config = MinerConfig::TGMiner();
  config.max_edges = 2;
  MineResult result = Miner(config, pos, neg).Mine();
  Pattern expected = tgm::testing::MakePattern({0, 1, 2}, {{0, 1}, {1, 2}});
  bool found = false;
  for (const MinedPattern& m : result.top) {
    if (m.pattern == expected && m.freq_neg == 0.0) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(ConcurrentEdgesTest, MatchersUsePositionOrderNotTimestamps) {
  // Two edges share a timestamp; after sequentialization the position
  // order is what the matchers honour: the forward chain matches at
  // [7, 7], the reversed one not at all.
  TemporalGraph g;
  g.AddNode(0);
  g.AddNode(1);
  g.AddNode(2);
  g.AddEdge(0, 1, 7);
  g.AddEdge(1, 2, 7);
  g.Finalize(TiePolicy::kBreakByInsertionOrder);
  Pattern forward = tgm::testing::MakePattern({0, 1, 2}, {{0, 1}, {1, 2}});
  Pattern backward = tgm::testing::MakePattern({1, 2, 0}, {{0, 1}, {2, 0}});
  TemporalQuerySearcher searcher(TemporalQuerySearcher::Options{});
  EXPECT_EQ(searcher.Search(forward, g), (std::vector<Interval>{{7, 7}}));
  EXPECT_TRUE(searcher.Search(backward, g).empty());
}

}  // namespace
}  // namespace tgm
