#include <gtest/gtest.h>

#include "mining/miner.h"
#include "test_util.h"

namespace tgm {
namespace {

using ::tgm::testing::ExpectIdenticalResults;
using ::tgm::testing::MakeGraph;

// Datasets engineered so the Section 4.2 pruning rules demonstrably fire,
// plus equivalence checks that pruning never changes the ranked top-k
// (Theorem 2 under the top-k score cut).

// Graphs with long shared chains create many sub/supergraph pairs with
// identical residual sets.
std::vector<TemporalGraph> ChainGraphs(int count, int chain_length,
                                       int label_period) {
  std::vector<TemporalGraph> graphs;
  for (int i = 0; i < count; ++i) {
    TemporalGraph g;
    for (int v = 0; v <= chain_length; ++v) {
      g.AddNode(static_cast<LabelId>(v % label_period));
    }
    for (int e = 0; e < chain_length; ++e) {
      g.AddEdge(static_cast<NodeId>(e), static_cast<NodeId>(e + 1),
                static_cast<Timestamp>(e + 1));
    }
    g.Finalize();
    graphs.push_back(std::move(g));
  }
  return graphs;
}

TEST(PruningTest, SubgraphPruningTriggersOnChains) {
  std::vector<TemporalGraph> pos = ChainGraphs(4, 8, 3);
  std::vector<TemporalGraph> neg = ChainGraphs(4, 3, 2);
  MinerConfig config = MinerConfig::TGMiner();
  config.max_edges = 5;
  Miner miner(config, pos, neg);
  MineResult result = miner.Mine();
  EXPECT_GT(result.stats.subgraph_prune_triggers +
                result.stats.supergraph_prune_triggers +
                result.stats.naive_prunes,
            0);
}

TEST(PruningTest, PrunedResultEqualsUnprunedResult) {
  // Theorem 2 made exact for the ranked list: once the top-k list is full,
  // the naive bound, Lemma 4 and Proposition 2 cut only branches whose
  // bound is at most the k-th retained score, and no pattern of such a
  // branch can enter the list. So the whole ranked list (patterns, scores,
  // order) equals the same DFS with every prune off. Small lists make the
  // cut fire; the support floor and the size cap vary what it cuts. The
  // single-label graphs share cuts between many embeddings, which is where
  // the structural prunes need their embedding conditions.
  struct Shape {
    int nodes, edges, labels, graphs;
  };
  std::mt19937_64 rng(5);
  std::int64_t subgraph_prunes = 0;
  std::int64_t supergraph_prunes = 0;
  for (const Shape& shape : {Shape{5, 9, 2, 4}, Shape{3, 6, 1, 3}}) {
    for (int trial = 0; trial < 10; ++trial) {
      std::vector<TemporalGraph> pos;
      std::vector<TemporalGraph> neg;
      for (int i = 0; i < shape.graphs; ++i) {
        pos.push_back(tgm::testing::RandomGraph(rng, shape.nodes, shape.edges,
                                                shape.labels));
        neg.push_back(tgm::testing::RandomGraph(rng, shape.nodes, shape.edges,
                                                shape.labels));
      }
      for (int max_edges = 2; max_edges <= 5; ++max_edges) {
        for (double min_pos_freq : {0.0, 0.5}) {
          for (int top_k : {1, 3, 8}) {
            SCOPED_TRACE(::testing::Message()
                         << "labels=" << shape.labels << " trial=" << trial
                         << " max_edges=" << max_edges
                         << " min_pos_freq=" << min_pos_freq
                         << " top_k=" << top_k);
            MinerConfig on = MinerConfig::TGMiner();
            on.max_edges = max_edges;
            on.min_pos_freq = min_pos_freq;
            on.top_k = top_k;
            MinerConfig off = on;
            off.use_naive_bound = false;
            off.use_subgraph_pruning = false;
            off.use_supergraph_pruning = false;
            MineResult pruned = Miner(on, pos, neg).Mine();
            ExpectIdenticalResults(Miner(off, pos, neg).Mine(), pruned);
            subgraph_prunes += pruned.stats.subgraph_prune_triggers;
            supergraph_prunes += pruned.stats.supergraph_prune_triggers;
          }
        }
      }
    }
  }
  // The fixtures must exercise Lemma 4 and Proposition 2, not only the
  // naive bound.
  EXPECT_GT(subgraph_prunes, 0);
  EXPECT_GT(supergraph_prunes, 0);
}

TEST(PruningTest, SubgraphPruneBoundCoversGrowthsPastMaxEdges) {
  // Lemma 4 maps the current pattern's growths onto growths of a larger
  // reference, and near max_edges some of those lie past the cap, where
  // the reference's branch was never visited. On these single-label graphs
  // a reference best that ignored them cut the branch holding the
  // unpruned search's 8th pattern (max_edges 4, top_k 8).
  const std::vector<LabelId> labels = {0, 0, 0, 0};
  std::vector<TemporalGraph> pos = {
      MakeGraph(labels, {{0, 2, 1}, {2, 0, 4}, {1, 2, 6}, {3, 0, 7},
                         {3, 0, 9}, {2, 0, 12}, {2, 0, 14}, {1, 0, 17},
                         {2, 0, 19}, {1, 0, 22}, {3, 2, 23}}),
      MakeGraph(labels, {{2, 3, 1}, {3, 2, 2}, {3, 2, 4}, {1, 2, 5},
                         {2, 3, 8}, {1, 3, 9}, {1, 3, 11}, {1, 0, 12},
                         {3, 2, 15}, {1, 2, 17}, {3, 1, 20}})};
  std::vector<TemporalGraph> neg = {
      MakeGraph(labels, {{1, 0, 1}, {0, 2, 2}, {0, 1, 5}, {3, 1, 7},
                         {2, 0, 10}, {1, 0, 13}, {3, 2, 16}, {3, 1, 19},
                         {0, 1, 22}, {0, 1, 24}, {2, 0, 27}}),
      MakeGraph(labels, {{3, 1, 1}, {0, 2, 2}, {0, 3, 5}, {2, 0, 7},
                         {1, 2, 9}, {1, 2, 11}, {3, 1, 13}, {0, 2, 14},
                         {0, 1, 16}, {3, 1, 19}, {3, 2, 21}})};
  for (double min_pos_freq : {0.0, 0.5}) {
    MinerConfig off;
    off.max_edges = 4;
    off.top_k = 8;
    off.min_pos_freq = min_pos_freq;
    off.use_naive_bound = false;
    off.use_subgraph_pruning = false;
    off.use_supergraph_pruning = false;
    MineResult want = Miner(off, pos, neg).Mine();
    for (const MinerConfig& preset :
         {MinerConfig::TGMiner(), MinerConfig::SubPrune()}) {
      for (int root_batch : {1, 0}) {
        SCOPED_TRACE(::testing::Message()
                     << "min_pos_freq=" << min_pos_freq
                     << " supergraph=" << preset.use_supergraph_pruning
                     << " root_batch=" << root_batch);
        MinerConfig on = preset;
        on.max_edges = 4;
        on.top_k = 8;
        on.min_pos_freq = min_pos_freq;
        on.root_batch = root_batch;
        on.num_threads = 2;
        ExpectIdenticalResults(want, Miner(on, pos, neg).Mine());
      }
    }
  }
}

TEST(PruningTest, SubgraphPruneNeedsEveryEmbeddingToExtend) {
  // Equal residual sets say that the current pattern and the reference end
  // their embeddings at the same cuts, not that every embedding of the
  // current pattern extends to one of the reference. On these single-label
  // graphs two embeddings share a cut, only one extends, and a growth of
  // the other is the unpruned search's top-ranked pattern (max_edges 4,
  // top_k 1).
  const std::vector<LabelId> labels = {0, 0, 0, 0};
  std::vector<TemporalGraph> pos = {
      MakeGraph(labels, {{0, 3, 1}, {3, 0, 4}, {2, 3, 5}, {0, 3, 6},
                         {3, 1, 8}, {0, 1, 11}}),
      MakeGraph(labels, {{1, 0, 1}, {3, 1, 3}, {3, 1, 4}, {3, 0, 6},
                         {1, 0, 7}, {2, 0, 9}})};
  std::vector<TemporalGraph> neg = {
      MakeGraph(labels, {{1, 0, 1}, {2, 0, 2}, {2, 3, 4}, {0, 2, 6},
                         {2, 0, 8}, {0, 1, 11}}),
      MakeGraph(labels, {{1, 3, 1}, {0, 3, 4}, {1, 0, 5}, {1, 0, 6},
                         {1, 3, 8}, {3, 0, 11}}),
      MakeGraph(labels, {{0, 2, 1}, {0, 1, 3}, {0, 1, 5}, {2, 0, 8},
                         {1, 2, 11}, {2, 0, 14}})};
  for (int top_k : {1, 3, 8}) {
    MinerConfig off;
    off.max_edges = 4;
    off.top_k = top_k;
    off.use_naive_bound = false;
    off.use_subgraph_pruning = false;
    off.use_supergraph_pruning = false;
    MineResult want = Miner(off, pos, neg).Mine();
    for (const MinerConfig& preset :
         {MinerConfig::TGMiner(), MinerConfig::SubPrune()}) {
      SCOPED_TRACE(::testing::Message()
                   << "top_k=" << top_k
                   << " supergraph=" << preset.use_supergraph_pruning);
      MinerConfig on = preset;
      on.max_edges = 4;
      on.top_k = top_k;
      ExpectIdenticalResults(want, Miner(on, pos, neg).Mine());
    }
  }
}

TEST(PruningTest, SupergraphPruneNeedsEveryEmbeddingToExtend) {
  // Proposition 2 against the reference 0->1, 2->1 cuts the pattern
  // 0->1, 0->1, 2->1: both end their embeddings at the same cuts on both
  // sides. But in the first negative graph the reference also embeds with
  // node 0 on a node that has no second edge into node 1, and only that
  // node sends a later edge. So growing node 0 keeps the reference in that
  // negative graph and drops the pattern from it: the cut branch holds the
  // only pattern absent from every negative graph.
  std::vector<TemporalGraph> pos = {
      MakeGraph({0, 0, 0, 0}, {{0, 1, 1}, {0, 1, 2}, {2, 1, 3}, {0, 3, 4}})};
  std::vector<TemporalGraph> neg = {
      MakeGraph({0, 0, 0, 0, 0},
                {{0, 1, 1}, {0, 1, 2}, {2, 1, 3}, {3, 1, 4}, {2, 4, 5}}),
      MakeGraph({0, 0, 0}, {{0, 1, 1}, {0, 1, 2}, {0, 2, 3}})};
  MinerConfig off;
  off.max_edges = 5;
  off.top_k = 1;
  off.use_naive_bound = false;
  off.use_subgraph_pruning = false;
  off.use_supergraph_pruning = false;
  MineResult want = Miner(off, pos, neg).Mine();
  ASSERT_EQ(want.top.size(), 1u);
  EXPECT_EQ(want.top[0].freq_neg, 0.0);
  for (const MinerConfig& preset :
       {MinerConfig::TGMiner(), MinerConfig::SupPrune()}) {
    SCOPED_TRACE(::testing::Message()
                 << "subgraph=" << preset.use_subgraph_pruning);
    MinerConfig on = preset;
    on.max_edges = 5;
    on.top_k = 1;
    ExpectIdenticalResults(want, Miner(on, pos, neg).Mine());
  }
}

TEST(PruningTest, SubgraphTestsAreCounted) {
  std::vector<TemporalGraph> pos = ChainGraphs(3, 7, 2);
  std::vector<TemporalGraph> neg = ChainGraphs(3, 2, 2);
  MinerConfig config = MinerConfig::TGMiner();
  config.max_edges = 4;
  Miner miner(config, pos, neg);
  MineResult result = miner.Mine();
  // Chains of repeated labels produce candidate pairs, so tests happen.
  EXPECT_GT(result.stats.residual_equiv_tests, 0);
}

TEST(PruningTest, TimeBudgetSetsTimedOut) {
  std::mt19937_64 rng(17);
  std::vector<TemporalGraph> pos;
  std::vector<TemporalGraph> neg;
  for (int i = 0; i < 6; ++i) {
    pos.push_back(tgm::testing::RandomGraph(rng, 8, 40, 2));
    neg.push_back(tgm::testing::RandomGraph(rng, 8, 40, 2));
  }
  MinerConfig config = MinerConfig::TGMiner();
  config.max_edges = 12;
  config.use_naive_bound = false;  // force a big search
  config.max_millis = 1;
  MineResult result = Miner(config, pos, neg).Mine();
  EXPECT_TRUE(result.stats.timed_out);
}

TEST(PruningTest, VisitCapStopsSearch) {
  std::vector<TemporalGraph> pos = ChainGraphs(3, 10, 2);
  std::vector<TemporalGraph> neg = ChainGraphs(3, 2, 2);
  MinerConfig config = MinerConfig::TGMiner();
  config.max_edges = 10;
  // The uncapped search visits 19 patterns on this fixture; the cap must
  // actually bind for the truncation reporting below to be exercised.
  config.max_visited = 10;
  MineResult result = Miner(config, pos, neg).Mine();
  // The cap is checked between visits, so allow a small overshoot.
  EXPECT_LE(result.stats.patterns_visited, 15);
  // A capped search is a truncated search and must say so: callers could
  // not previously tell a max_visited cut from a completed search.
  EXPECT_TRUE(result.stats.visit_cap_hit);
  EXPECT_TRUE(result.stats.truncated());
  EXPECT_FALSE(result.stats.timed_out);
}

TEST(PruningTest, CompletedSearchReportsNoTruncation) {
  std::vector<TemporalGraph> pos = ChainGraphs(3, 6, 2);
  std::vector<TemporalGraph> neg = ChainGraphs(3, 2, 2);
  MinerConfig config = MinerConfig::TGMiner();
  config.max_edges = 3;
  config.max_visited = 1000000;
  config.max_millis = 600000;
  MineResult result = Miner(config, pos, neg).Mine();
  EXPECT_FALSE(result.stats.visit_cap_hit);
  EXPECT_FALSE(result.stats.timed_out);
  EXPECT_FALSE(result.stats.truncated());
}

TEST(PruningTest, EmbeddingCapIsDeterministic) {
  std::vector<TemporalGraph> pos = ChainGraphs(3, 12, 1);  // all same label
  std::vector<TemporalGraph> neg = ChainGraphs(3, 3, 1);
  MinerConfig config = MinerConfig::TGMiner();
  config.max_edges = 3;
  config.max_embeddings_per_graph = 4;
  MineResult a = Miner(config, pos, neg).Mine();
  MineResult b = Miner(config, pos, neg).Mine();
  EXPECT_EQ(a.stats.patterns_visited, b.stats.patterns_visited);
  EXPECT_EQ(a.best_score, b.best_score);
  EXPECT_GT(a.stats.embedding_cap_hits, 0);
}

class ScoreKindPruningTest : public ::testing::TestWithParam<ScoreKind> {};

TEST_P(ScoreKindPruningTest, PruningPreservesBestScoreForEveryScore) {
  std::mt19937_64 rng(41);
  for (int trial = 0; trial < 4; ++trial) {
    std::vector<TemporalGraph> pos;
    std::vector<TemporalGraph> neg;
    for (int i = 0; i < 4; ++i) {
      pos.push_back(tgm::testing::RandomGraph(rng, 5, 9, 2));
      neg.push_back(tgm::testing::RandomGraph(rng, 5, 9, 2));
    }
    MinerConfig off;
    off.score_kind = GetParam();
    off.max_edges = 3;
    off.use_naive_bound = false;
    off.use_subgraph_pruning = false;
    off.use_supergraph_pruning = false;
    double reference = Miner(off, pos, neg).Mine().best_score;

    MinerConfig on = MinerConfig::TGMiner();
    on.score_kind = GetParam();
    on.max_edges = 3;
    EXPECT_DOUBLE_EQ(Miner(on, pos, neg).Mine().best_score, reference)
        << DiscriminativeScore::KindName(GetParam());
  }
}

INSTANTIATE_TEST_SUITE_P(AllScores, ScoreKindPruningTest,
                         ::testing::Values(ScoreKind::kLogRatio,
                                           ScoreKind::kGTest,
                                           ScoreKind::kInfoGain),
                         [](const auto& info) -> std::string {
                           switch (info.param) {
                             case ScoreKind::kLogRatio:
                               return "LogRatio";
                             case ScoreKind::kGTest:
                               return "GTest";
                             case ScoreKind::kInfoGain:
                               return "InfoGain";
                           }
                           return "Unknown";
                         });

// The paper (Section 6.1) observes that the different score functions
// "deliver a common set of discriminative patterns" — on cleanly planted
// data the top pattern coincides.
TEST(PruningTest, ScoreFunctionsAgreeOnPlantedPattern) {
  std::vector<TemporalGraph> pos;
  std::vector<TemporalGraph> neg;
  for (int i = 0; i < 5; ++i) {
    pos.push_back(MakeGraph({0, 1, 2}, {{0, 1, 1}, {1, 2, 2}}));
    neg.push_back(MakeGraph({0, 1, 2}, {{1, 2, 1}, {0, 1, 2}}));
  }
  Pattern planted =
      tgm::testing::MakePattern({0, 1, 2}, {{0, 1}, {1, 2}});
  for (ScoreKind kind :
       {ScoreKind::kLogRatio, ScoreKind::kGTest, ScoreKind::kInfoGain}) {
    MinerConfig config = MinerConfig::TGMiner();
    config.score_kind = kind;
    config.max_edges = 2;
    MineResult result = Miner(config, pos, neg).Mine();
    bool found = false;
    for (const MinedPattern& m : result.top) {
      if (m.score == result.best_score && m.pattern == planted) found = true;
    }
    EXPECT_TRUE(found) << DiscriminativeScore::KindName(kind);
  }
}

}  // namespace
}  // namespace tgm
