#include "query/pipeline.h"

#include <gtest/gtest.h>

namespace tgm {
namespace {

// A micro-scale pipeline shared across tests (data generation and mining
// are the expensive parts).
class PipelineTest : public ::testing::Test {
 protected:
  static Pipeline* pipeline() {
    static Pipeline* instance = [] {
      PipelineConfig config;
      config.dataset.runs_per_behavior = 6;
      config.dataset.background_graphs = 20;
      config.dataset.test_instances = 36;
      config.dataset.gen.size_scale = 0.5;
      config.dataset.gen.noise_level = 0.5;
      config.query_size = 4;
      auto* p = new Pipeline(config);
      p->Prepare();
      return p;
    }();
    return instance;
  }

  static int IndexOf(BehaviorKind kind) {
    const auto& all = AllBehaviors();
    for (std::size_t i = 0; i < all.size(); ++i) {
      if (all[i] == kind) return static_cast<int>(i);
    }
    return -1;
  }
};

TEST_F(PipelineTest, PrepareBuildsData) {
  EXPECT_EQ(pipeline()->training().positives.size(),
            static_cast<std::size_t>(kNumBehaviors));
  EXPECT_EQ(pipeline()->training().background.size(), 20u);
  EXPECT_FALSE(pipeline()->test_log().truth.empty());
}

TEST_F(PipelineTest, FractionSubsamplesTraining) {
  EXPECT_EQ(pipeline()->Positives(0, 1.0).size(), 6u);
  EXPECT_EQ(pipeline()->Positives(0, 0.5).size(), 3u);
  EXPECT_EQ(pipeline()->Positives(0, 0.01).size(), 1u);
  EXPECT_EQ(pipeline()->Negatives(0.5).size(), 10u);
}

TEST_F(PipelineTest, WindowPositive) {
  for (int i = 0; i < kNumBehaviors; ++i) {
    EXPECT_GT(pipeline()->WindowFor(i), 0);
  }
}

TEST_F(PipelineTest, TGMinerFindsDiscriminativePatterns) {
  int idx = IndexOf(BehaviorKind::kScpDownload);
  MinerConfig cfg = pipeline()->config().miner;
  cfg.max_edges = 4;
  MineResult result = pipeline()->MineTemporal(idx, cfg);
  ASSERT_FALSE(result.top.empty());
  // A strongly discriminative pattern exists: high positive frequency and
  // (near-)zero background frequency.
  EXPECT_GE(result.top.front().freq_pos, 0.5);
  EXPECT_LE(result.top.front().freq_neg, 0.2);
}

TEST_F(PipelineTest, TemporalQueriesAreBounded) {
  int idx = IndexOf(BehaviorKind::kGzipDecompress);
  MinerConfig cfg = pipeline()->config().miner;
  cfg.max_edges = 3;
  MineResult result = pipeline()->MineTemporal(idx, cfg);
  auto queries = pipeline()->TemporalQueries(result);
  EXPECT_LE(queries.size(), 5u);
  for (const auto& q : queries) {
    EXPECT_LE(q.pattern.edge_count(), 3u);
  }
}

TEST_F(PipelineTest, EndToEndTGMinerBeatsNodeSetOnScp) {
  // scp-download is the paper's flagship confusable behaviour (Table 2:
  // NodeSet 13.8% precision vs TGMiner 100%).
  int idx = IndexOf(BehaviorKind::kScpDownload);
  AccuracyResult tg = pipeline()->RunTGMiner(idx);
  AccuracyResult ns = pipeline()->RunNodeSet(idx);
  EXPECT_GT(tg.precision(), ns.precision());
  EXPECT_GT(tg.recall(), 0.5);
}

TEST_F(PipelineTest, EndToEndRunsProduceMatches) {
  int idx = IndexOf(BehaviorKind::kBzip2Decompress);
  AccuracyResult tg = pipeline()->RunTGMiner(idx);
  EXPECT_GT(tg.identified, 0);
  EXPECT_GT(tg.recall(), 0.5);
  EXPECT_GT(tg.precision(), 0.5);
}

TEST_F(PipelineTest, NtempRunsEndToEnd) {
  int idx = IndexOf(BehaviorKind::kGzipDecompress);
  AccuracyResult nt = pipeline()->RunNtemp(idx);
  EXPECT_GT(nt.identified, 0);
  EXPECT_GT(nt.recall(), 0.3);
}

}  // namespace
}  // namespace tgm
