// Parallel mining determinism: MinerConfig::num_threads must not change
// mined results — for every thread count the ranked result list (patterns,
// scores, frequencies, order), the best score, and every search counter
// are bit-identical to serial.
//
// Root subtrees are the miner's only parallel unit: with
// MinerConfig::root_batch != 1 whole root subtrees run as stealable tasks
// on the scheduler, each running the serial DFS. Determinism comes from
// fixed batch membership (a function of root indices only), per-subtree
// WorkerState seeded from the committed snapshot, and commits in
// ascending root-bucket order — pinned below across 1/2/4/8 threads and
// across repeated runs (steal schedules vary run to run). With
// root_batch == 1 num_threads is inert: no scheduler is created. Completed
// searches also rank identically for every root_batch, because the top-k
// score cut never drops a pattern the serial search keeps; only the
// counters depend on root_batch.

#include <gtest/gtest.h>

#include <vector>

#include "mining/miner.h"
#include "syslog/dataset.h"
#include "test_util.h"

namespace tgm {
namespace {

using ::tgm::testing::ExpectIdenticalResults;

/// The search itself must be identical, not just the output: thread count
/// may not change what gets visited, expanded, tested, pruned, or capped —
/// on completed and budget-truncated searches alike.
void ExpectIdenticalSearch(const MineResult& want, const MineResult& got) {
  EXPECT_EQ(want.stats.patterns_visited, got.stats.patterns_visited);
  EXPECT_EQ(want.stats.patterns_expanded, got.stats.patterns_expanded);
  EXPECT_EQ(want.stats.naive_prunes, got.stats.naive_prunes);
  EXPECT_EQ(want.stats.subgraph_prune_triggers,
            got.stats.subgraph_prune_triggers);
  EXPECT_EQ(want.stats.supergraph_prune_triggers,
            got.stats.supergraph_prune_triggers);
  EXPECT_EQ(want.stats.subgraph_tests, got.stats.subgraph_tests);
  EXPECT_EQ(want.stats.residual_equiv_tests, got.stats.residual_equiv_tests);
  EXPECT_EQ(want.stats.embedding_cap_hits, got.stats.embedding_cap_hits);
  EXPECT_EQ(want.stats.visit_cap_hit, got.stats.visit_cap_hit);
}

/// For a fixed root_batch, ranked output AND every search counter must be
/// bit-identical for every thread count: each subtree is a pure function
/// of (its root bucket, the committed snapshot at batch start) and commits
/// land in ascending root-bucket order.
void ExpectThreadCountInvariance(const MinerConfig& base,
                                 const std::vector<TemporalGraph>& pos,
                                 const std::vector<TemporalGraph>& neg) {
  MinerConfig serial = base;
  serial.num_threads = 1;
  MineResult want = Miner(serial, pos, neg).Mine();
  for (int num_threads : {2, 4, 8}) {
    MinerConfig config = base;
    config.num_threads = num_threads;
    MineResult got = Miner(config, pos, neg).Mine();
    SCOPED_TRACE(::testing::Message() << "num_threads=" << num_threads);
    ExpectIdenticalResults(want, got);
    ExpectIdenticalSearch(want, got);
  }
}

class ParallelMinerTest : public ::testing::TestWithParam<int> {};

TEST_P(ParallelMinerTest, RandomFixturesRankIdentically) {
  // The replication-test fixtures: random strict-order temporal graphs.
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) + 3000);
  std::vector<TemporalGraph> pos;
  std::vector<TemporalGraph> neg;
  for (int i = 0; i < 3; ++i) {
    pos.push_back(tgm::testing::RandomGraph(rng, 5, 8, 2));
    neg.push_back(tgm::testing::RandomGraph(rng, 5, 8, 2));
  }
  MinerConfig config = MinerConfig::TGMiner();
  config.max_edges = 3;
  config.top_k = 512;
  ExpectThreadCountInvariance(config, pos, neg);
}

TEST_P(ParallelMinerTest, ReplicatedFixturesRankIdentically) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) + 7000);
  std::vector<TemporalGraph> pos;
  std::vector<TemporalGraph> neg;
  for (int i = 0; i < 2; ++i) {
    pos.push_back(tgm::testing::RandomGraph(rng, 6, 10, 2));
    neg.push_back(tgm::testing::RandomGraph(rng, 6, 10, 2));
  }
  int factor = 2 + GetParam() % 3;
  std::vector<TemporalGraph> pos_syn = ReplicateGraphs(pos, factor);
  std::vector<TemporalGraph> neg_syn = ReplicateGraphs(neg, factor);
  MinerConfig config = MinerConfig::TGMiner();
  config.max_edges = 3;
  config.top_k = 256;
  ExpectThreadCountInvariance(config, pos_syn, neg_syn);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelMinerTest, ::testing::Range(0, 6));

TEST(ParallelMinerConfigTest, EmbeddingCapStaysDeterministic) {
  // The cap truncates after a deterministic sort; thread count must
  // preserve both the truncation and the ranked output.
  std::mt19937_64 rng(91);
  std::vector<TemporalGraph> pos;
  std::vector<TemporalGraph> neg;
  for (int i = 0; i < 4; ++i) {
    pos.push_back(tgm::testing::RandomGraph(rng, 6, 14, 1));
    neg.push_back(tgm::testing::RandomGraph(rng, 6, 14, 1));
  }
  MinerConfig config = MinerConfig::TGMiner();
  config.max_edges = 3;
  config.max_embeddings_per_graph = 4;
  ExpectThreadCountInvariance(config, pos, neg);

  // A visit budget that cuts the search while caps are being hit: the
  // cap-hit count then depends on exactly which children were deduped, so
  // it must come from the same lazy per-child dedupe at every thread
  // count, serial and batched.
  MinerConfig truncated = MinerConfig::TGMiner();
  truncated.max_embeddings_per_graph = 3;
  truncated.max_visited = 30;
  for (int root_batch : {1, 4}) {
    SCOPED_TRACE(::testing::Message() << "root_batch=" << root_batch);
    truncated.root_batch = root_batch;
    ExpectThreadCountInvariance(truncated, pos, neg);
  }
  MineResult capped = Miner(truncated, pos, neg).Mine();
  EXPECT_TRUE(capped.stats.visit_cap_hit);
  EXPECT_GT(capped.stats.embedding_cap_hits, 0);
}

TEST(ParallelMinerConfigTest, PipelineShapedConfigRanksIdentically) {
  // The accuracy pipeline's miner settings (support floor, small top-k
  // list) make the score cut fire on every pruning path; thread count must
  // still be invisible in the results.
  std::mt19937_64 rng(47);
  std::vector<TemporalGraph> pos;
  std::vector<TemporalGraph> neg;
  for (int i = 0; i < 5; ++i) {
    pos.push_back(tgm::testing::RandomGraph(rng, 7, 12, 3));
    neg.push_back(tgm::testing::RandomGraph(rng, 7, 12, 3));
  }
  MinerConfig config = MinerConfig::TGMiner();
  config.max_edges = 4;
  config.min_pos_freq = 0.5;
  config.top_k = 16;
  ExpectThreadCountInvariance(config, pos, neg);
}

TEST(ParallelMinerConfigTest, AblationConfigsRankIdentically) {
  std::mt19937_64 rng(5);
  std::vector<TemporalGraph> pos;
  std::vector<TemporalGraph> neg;
  for (int i = 0; i < 3; ++i) {
    pos.push_back(tgm::testing::RandomGraph(rng, 5, 9, 2));
    neg.push_back(tgm::testing::RandomGraph(rng, 5, 9, 2));
  }
  for (const MinerConfig& preset :
       {MinerConfig::SubPrune(), MinerConfig::SupPrune(),
        MinerConfig::LinearScan()}) {
    MinerConfig config = preset;
    config.max_edges = 3;
    ExpectThreadCountInvariance(config, pos, neg);
  }
}

TEST(ParallelMinerConfigTest, VisitCapBudgetStaysDeterministic) {
  // Unlike max_millis (wall-clock, inherently timing-dependent), the
  // max_visited budget counts DFS visits, which happen only on the serial
  // skeleton — so a capped search must still be thread-count-invariant.
  std::mt19937_64 rng(63);
  std::vector<TemporalGraph> pos;
  std::vector<TemporalGraph> neg;
  for (int i = 0; i < 3; ++i) {
    pos.push_back(tgm::testing::RandomGraph(rng, 6, 12, 2));
    neg.push_back(tgm::testing::RandomGraph(rng, 6, 12, 2));
  }
  MinerConfig config = MinerConfig::TGMiner();
  config.max_edges = 4;
  config.max_visited = 40;
  ExpectThreadCountInvariance(config, pos, neg);
}

// ---------------------------------------------------------------------------
// Root-subtree parallelism (MinerConfig::root_batch > 1).

class RootSubtreeParallelTest : public ::testing::TestWithParam<int> {};

TEST_P(RootSubtreeParallelTest, RandomFixturesRankIdenticallyAcrossThreads) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) + 11000);
  std::vector<TemporalGraph> pos;
  std::vector<TemporalGraph> neg;
  for (int i = 0; i < 3; ++i) {
    pos.push_back(tgm::testing::RandomGraph(rng, 6, 10, 2));
    neg.push_back(tgm::testing::RandomGraph(rng, 6, 10, 2));
  }
  MinerConfig config = MinerConfig::TGMiner();
  config.max_edges = 3;
  config.top_k = 512;
  // Small batches exercise multiple commit rounds, large ones one big
  // batch; both must be schedule-independent.
  for (int root_batch : {2, 4, 16}) {
    SCOPED_TRACE(::testing::Message() << "root_batch=" << root_batch);
    config.root_batch = root_batch;
    ExpectThreadCountInvariance(config, pos, neg);
  }
}

TEST_P(RootSubtreeParallelTest, AblationConfigsRankIdenticallyAcrossThreads) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) + 13000);
  std::vector<TemporalGraph> pos;
  std::vector<TemporalGraph> neg;
  for (int i = 0; i < 3; ++i) {
    pos.push_back(tgm::testing::RandomGraph(rng, 5, 9, 2));
    neg.push_back(tgm::testing::RandomGraph(rng, 5, 9, 2));
  }
  for (const MinerConfig& preset :
       {MinerConfig::SubPrune(), MinerConfig::SupPrune(),
        MinerConfig::LinearScan()}) {
    MinerConfig config = preset;
    config.max_edges = 3;
    config.root_batch = 4;
    ExpectThreadCountInvariance(config, pos, neg);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RootSubtreeParallelTest,
                         ::testing::Range(0, 4));

TEST(RootSubtreeParallelTest, RanksIdenticallyToSerialSearch) {
  // Subtrees in a batch cannot see each other's registrations or top-k
  // entries, so the batched search prunes less than root_batch=1. Its
  // ranked list must still equal the serial one: every entry of a worker's
  // top-k list precedes the current pattern in the serial visit order, so
  // the top-k score cut never drops a pattern the serial search keeps.
  // Small lists make the cut fire.
  std::mt19937_64 rng(29);
  for (int trial = 0; trial < 16; ++trial) {
    std::vector<TemporalGraph> pos;
    std::vector<TemporalGraph> neg;
    for (int i = 0; i < 4; ++i) {
      pos.push_back(tgm::testing::RandomGraph(rng, 5, 9, 2));
      neg.push_back(tgm::testing::RandomGraph(rng, 5, 9, 2));
    }
    for (int top_k : {1, 3, 8}) {
      MinerConfig serial = MinerConfig::TGMiner();
      serial.max_edges = 3;
      serial.top_k = top_k;
      MineResult want = Miner(serial, pos, neg).Mine();
      for (int root_batch : {4, 0}) {
        SCOPED_TRACE(::testing::Message()
                     << "trial=" << trial << " top_k=" << top_k
                     << " root_batch=" << root_batch);
        MinerConfig batched = serial;
        batched.root_batch = root_batch;
        batched.num_threads = 4;
        ExpectIdenticalResults(want, Miner(batched, pos, neg).Mine());
      }
    }
  }
}

TEST(RootSubtreeParallelTest, MinPosFreqAndTieCutConfigsStayInvariant) {
  // The pipeline-shaped knobs (support floor, small top-k list) make the
  // score cut gate on per-worker state; it must stay thread-count-invariant
  // in batched mode too.
  std::mt19937_64 rng(53);
  std::vector<TemporalGraph> pos;
  std::vector<TemporalGraph> neg;
  for (int i = 0; i < 5; ++i) {
    pos.push_back(tgm::testing::RandomGraph(rng, 7, 12, 3));
    neg.push_back(tgm::testing::RandomGraph(rng, 7, 12, 3));
  }
  MinerConfig config = MinerConfig::TGMiner();
  config.max_edges = 4;
  config.min_pos_freq = 0.5;
  config.top_k = 16;
  config.root_batch = 4;
  ExpectThreadCountInvariance(config, pos, neg);
}

TEST(RootSubtreeParallelTest, VisitCapIsDeterministicAndReported) {
  // max_visited cuts against committed + own visits — a function of root
  // indices, not timing — so capped batched searches must rank
  // identically for every thread count, and the cut must be visible to
  // callers via stats.visit_cap_hit (a capped search is truncated, not
  // complete).
  std::mt19937_64 rng(71);
  std::vector<TemporalGraph> pos;
  std::vector<TemporalGraph> neg;
  for (int i = 0; i < 3; ++i) {
    pos.push_back(tgm::testing::RandomGraph(rng, 6, 12, 2));
    neg.push_back(tgm::testing::RandomGraph(rng, 6, 12, 2));
  }
  MinerConfig config = MinerConfig::TGMiner();
  config.max_edges = 4;
  config.max_visited = 40;
  config.root_batch = 4;
  ExpectThreadCountInvariance(config, pos, neg);
  MineResult capped = Miner(config, pos, neg).Mine();
  EXPECT_TRUE(capped.stats.visit_cap_hit);
  EXPECT_TRUE(capped.stats.truncated());
  EXPECT_FALSE(capped.stats.timed_out);
}

TEST(RootSubtreeParallelTest, ReplicatedFixturesRankIdenticallyAcrossThreads) {
  std::mt19937_64 rng(97);
  std::vector<TemporalGraph> pos;
  std::vector<TemporalGraph> neg;
  for (int i = 0; i < 2; ++i) {
    pos.push_back(tgm::testing::RandomGraph(rng, 6, 10, 2));
    neg.push_back(tgm::testing::RandomGraph(rng, 6, 10, 2));
  }
  std::vector<TemporalGraph> pos_syn = ReplicateGraphs(pos, 3);
  std::vector<TemporalGraph> neg_syn = ReplicateGraphs(neg, 3);
  MinerConfig config = MinerConfig::TGMiner();
  config.max_edges = 3;
  config.top_k = 256;
  config.root_batch = 8;
  ExpectThreadCountInvariance(config, pos_syn, neg_syn);
}

TEST(RootSubtreeParallelTest, RepeatedStealingRunsAreIdentical) {
  // Steal schedules differ run to run (they depend on timing), so rerunning
  // the same batched, heavily-threaded configuration is a direct regression
  // net for schedule-dependent state leaking into results or search-shape
  // stats.
  std::mt19937_64 rng(211);
  std::vector<TemporalGraph> pos;
  std::vector<TemporalGraph> neg;
  for (int i = 0; i < 3; ++i) {
    pos.push_back(tgm::testing::RandomGraph(rng, 6, 10, 2));
    neg.push_back(tgm::testing::RandomGraph(rng, 6, 10, 2));
  }
  MinerConfig config = MinerConfig::TGMiner();
  config.max_edges = 3;
  config.top_k = 512;
  config.root_batch = 16;
  config.num_threads = 8;
  MineResult want = Miner(config, pos, neg).Mine();
  for (int run = 0; run < 3; ++run) {
    SCOPED_TRACE(::testing::Message() << "run " << run);
    MineResult got = Miner(config, pos, neg).Mine();
    ExpectIdenticalResults(want, got);
    ExpectIdenticalSearch(want, got);
  }
}

TEST(RootSubtreeParallelTest, AdaptiveRootBatchIsRepeatableAndSound) {
  // root_batch == 0 derives the batch size from the thread count, so its
  // counters are only comparable at fixed num_threads — pin that
  // repeatability. Its ranked list must equal the fully serial search's,
  // like every other root_batch, at every list size that fills.
  std::mt19937_64 rng(223);
  std::vector<TemporalGraph> pos;
  std::vector<TemporalGraph> neg;
  for (int i = 0; i < 4; ++i) {
    pos.push_back(tgm::testing::RandomGraph(rng, 5, 9, 2));
    neg.push_back(tgm::testing::RandomGraph(rng, 5, 9, 2));
  }
  for (int top_k : {1, 3, 8, 16}) {
    SCOPED_TRACE(::testing::Message() << "top_k=" << top_k);
    MinerConfig serial = MinerConfig::TGMiner();
    serial.max_edges = 3;
    serial.top_k = top_k;
    MineResult want = Miner(serial, pos, neg).Mine();

    MinerConfig adaptive = serial;
    adaptive.root_batch = 0;
    adaptive.num_threads = 4;
    MineResult first = Miner(adaptive, pos, neg).Mine();
    ExpectIdenticalResults(want, first);
    for (int run = 0; run < 2; ++run) {
      SCOPED_TRACE(::testing::Message() << "run " << run);
      MineResult got = Miner(adaptive, pos, neg).Mine();
      ExpectIdenticalResults(first, got);
      EXPECT_EQ(first.stats.patterns_visited, got.stats.patterns_visited);
    }

    // With one thread the sentinel degenerates to the exact serial search.
    MinerConfig adaptive_serial = serial;
    adaptive_serial.root_batch = 0;
    MineResult degenerate = Miner(adaptive_serial, pos, neg).Mine();
    ExpectIdenticalResults(want, degenerate);
    EXPECT_EQ(want.stats.patterns_visited,
              degenerate.stats.patterns_visited);
  }
}

TEST(ParallelMinerConfigTest, ZeroMeansHardwareThreadsAndStillMatches) {
  std::mt19937_64 rng(11);
  std::vector<TemporalGraph> pos;
  std::vector<TemporalGraph> neg;
  for (int i = 0; i < 3; ++i) {
    pos.push_back(tgm::testing::RandomGraph(rng, 5, 8, 2));
    neg.push_back(tgm::testing::RandomGraph(rng, 5, 8, 2));
  }
  MinerConfig serial = MinerConfig::TGMiner();
  serial.max_edges = 3;
  MineResult want = Miner(serial, pos, neg).Mine();
  MinerConfig hw = serial;
  hw.num_threads = 0;  // all hardware threads
  MineResult got = Miner(hw, pos, neg).Mine();
  ExpectIdenticalResults(want, got);
}

}  // namespace
}  // namespace tgm
