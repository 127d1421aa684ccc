// Microbenchmarks (google-benchmark) for the primitive operations whose
// costs explain the Figure 13 ablation gaps:
//  - temporal subgraph tests: SeqMatcher vs Vf2Matcher vs IndexMatcher
//    (Section 4.3 — the paper reports >70M such tests for sshd-login),
//  - residual-set equivalence: I-value comparison vs linear scan
//    (Section 4.4 — >400M such tests for sshd-login),
//  - sequence encoding and pattern canonical hashing.

#include <benchmark/benchmark.h>

#include <random>

#include "matching/index_matcher.h"
#include "matching/seq_matcher.h"
#include "matching/vf2_matcher.h"
#include "mining/miner.h"
#include "temporal/residual.h"
#include "temporal/sequence.h"

namespace tgm {
namespace {

Pattern RandomPattern(std::mt19937_64& rng, int num_edges, int num_labels) {
  std::uniform_int_distribution<LabelId> label(0, num_labels - 1);
  Pattern p = Pattern::SingleEdge(label(rng), label(rng));
  while (static_cast<int>(p.edge_count()) < num_edges) {
    std::uniform_int_distribution<NodeId> node(
        0, static_cast<NodeId>(p.node_count()) - 1);
    switch (rng() % 3) {
      case 0:
        p = p.GrowForward(node(rng), label(rng));
        break;
      case 1:
        p = p.GrowBackward(label(rng), node(rng));
        break;
      default: {
        NodeId u = node(rng);
        NodeId v = node(rng);
        if (u != v) p = p.GrowInward(u, v);
        break;
      }
    }
  }
  return p;
}

Pattern GrowRandomly(std::mt19937_64& rng, Pattern p, int extra,
                     int num_labels) {
  std::uniform_int_distribution<LabelId> label(0, num_labels - 1);
  for (int i = 0; i < extra;) {
    std::uniform_int_distribution<NodeId> node(
        0, static_cast<NodeId>(p.node_count()) - 1);
    switch (rng() % 3) {
      case 0:
        p = p.GrowForward(node(rng), label(rng));
        ++i;
        break;
      case 1:
        p = p.GrowBackward(label(rng), node(rng));
        ++i;
        break;
      default: {
        NodeId u = node(rng);
        NodeId v = node(rng);
        if (u != v) {
          p = p.GrowInward(u, v);
          ++i;
        }
        break;
      }
    }
  }
  return p;
}

// Containment test pairs: (small, grown-super) so the answer is true and
// the matchers do real work.
std::vector<std::pair<Pattern, Pattern>> MakePairs(int small_edges,
                                                   int extra_edges) {
  std::mt19937_64 rng(99);
  std::vector<std::pair<Pattern, Pattern>> pairs;
  for (int i = 0; i < 32; ++i) {
    Pattern small = RandomPattern(rng, small_edges, 3);
    Pattern big = GrowRandomly(rng, small, extra_edges, 3);
    pairs.emplace_back(std::move(small), std::move(big));
  }
  return pairs;
}

template <typename MatcherT>
void BM_SubgraphTest(benchmark::State& state) {
  auto pairs = MakePairs(static_cast<int>(state.range(0)),
                         static_cast<int>(state.range(1)));
  MatcherT matcher;
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& [small, big] = pairs[i++ % pairs.size()];
    benchmark::DoNotOptimize(matcher.Contains(small, big));
  }
}

BENCHMARK_TEMPLATE(BM_SubgraphTest, SeqMatcher)
    ->Args({4, 4})
    ->Args({6, 6})
    ->Args({8, 10});
BENCHMARK_TEMPLATE(BM_SubgraphTest, Vf2Matcher)
    ->Args({4, 4})
    ->Args({6, 6})
    ->Args({8, 10});
BENCHMARK_TEMPLATE(BM_SubgraphTest, IndexMatcher)
    ->Args({4, 4})
    ->Args({6, 6})
    ->Args({8, 10});

// Appendix J ablation: each SeqMatcher acceleration disabled in turn.
void BM_SeqMatcherAblation(benchmark::State& state) {
  auto pairs = MakePairs(6, 8);
  SeqMatcher::Options options;
  options.label_sequence_test = state.range(0) != 0;
  options.local_information_match = state.range(1) != 0;
  options.prefix_pruning = state.range(2) != 0;
  SeqMatcher matcher(options);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& [small, big] = pairs[i++ % pairs.size()];
    benchmark::DoNotOptimize(matcher.Contains(small, big));
  }
}
BENCHMARK(BM_SeqMatcherAblation)
    ->Args({1, 1, 1})   // all prunings on (TGMiner)
    ->Args({0, 1, 1})   // no label sequence test
    ->Args({1, 0, 1})   // no local information match
    ->Args({1, 1, 0})   // no prefix pruning
    ->Args({0, 0, 0});  // plain enumeration

void BM_BuildSequenceRep(benchmark::State& state) {
  std::mt19937_64 rng(7);
  Pattern p = RandomPattern(rng, static_cast<int>(state.range(0)), 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildSequenceRep(p));
  }
}
BENCHMARK(BM_BuildSequenceRep)->Arg(6)->Arg(20)->Arg(45);

void BM_PatternHash(benchmark::State& state) {
  std::mt19937_64 rng(8);
  Pattern p = RandomPattern(rng, static_cast<int>(state.range(0)), 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.Hash());
  }
}
BENCHMARK(BM_PatternHash)->Arg(6)->Arg(45);

// Residual equivalence: the I-value path is one integer comparison; the
// linear-scan path compares materialized cut lists.
void BM_ResidualEquivIValue(benchmark::State& state) {
  std::mt19937_64 rng(9);
  TemporalGraph g;
  for (int i = 0; i < 50; ++i) g.AddNode(static_cast<LabelId>(i % 5));
  Timestamp ts = 1;
  for (int i = 0; i < 1000; ++i) {
    g.AddEdge(static_cast<NodeId>(rng() % 50),
              static_cast<NodeId>((rng() % 49 + 1)), ts++);
  }
  g.Finalize();
  std::vector<const TemporalGraph*> graphs = {&g};
  std::vector<std::pair<std::int32_t, EdgePos>> cuts;
  for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
    cuts.emplace_back(0, static_cast<EdgePos>(rng() % 1000));
  }
  ResidualSet a(cuts, graphs);
  ResidualSet b(cuts, graphs);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.i_value() == b.i_value());
  }
}
BENCHMARK(BM_ResidualEquivIValue)->Arg(16)->Arg(256)->Arg(4096);

void BM_ResidualEquivLinearScan(benchmark::State& state) {
  std::mt19937_64 rng(9);
  TemporalGraph g;
  for (int i = 0; i < 50; ++i) g.AddNode(static_cast<LabelId>(i % 5));
  Timestamp ts = 1;
  for (int i = 0; i < 1000; ++i) {
    g.AddEdge(static_cast<NodeId>(rng() % 50),
              static_cast<NodeId>((rng() % 49 + 1)), ts++);
  }
  g.Finalize();
  std::vector<const TemporalGraph*> graphs = {&g};
  std::vector<std::pair<std::int32_t, EdgePos>> cuts;
  for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
    cuts.emplace_back(0, static_cast<EdgePos>(rng() % 1000));
  }
  ResidualSet a(cuts, graphs);
  ResidualSet b(cuts, graphs);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.StructurallyEqual(b));
  }
}
BENCHMARK(BM_ResidualEquivLinearScan)->Arg(16)->Arg(256)->Arg(4096);

// End-to-end mining throughput, serial and across root subtrees. Args are
// (num_threads, root_batch): the 1/1 row is the exact serial search;
// root_batch=16 rows mine whole root subtrees concurrently on the pool
// with per-worker registries merged in ascending root order (the 1/16 row
// runs the same batches inline). Threads take effect only with
// root_batch != 1, so there are no N/1 rows. Ranked results are
// bit-identical on every row; patterns_visited is identical across thread
// counts within each root_batch value. On a multicore host the
// time/iteration of the subtree rows drops with threads.
void BM_MineParallel(benchmark::State& state) {
  std::mt19937_64 rng(1234);
  std::vector<TemporalGraph> pos;
  std::vector<TemporalGraph> neg;
  auto random_graph = [&rng](int nodes, int edges, int labels) {
    TemporalGraph g;
    for (int i = 0; i < nodes; ++i) {
      g.AddNode(static_cast<LabelId>(rng() % labels));
    }
    Timestamp ts = 1;
    for (int i = 0; i < edges;) {
      NodeId u = static_cast<NodeId>(rng() % nodes);
      NodeId v = static_cast<NodeId>(rng() % nodes);
      if (u == v) continue;
      g.AddEdge(u, v, ts++);
      ++i;
    }
    g.Finalize();
    return g;
  };
  for (int i = 0; i < 24; ++i) {
    pos.push_back(random_graph(12, 60, 3));
    neg.push_back(random_graph(12, 60, 3));
  }
  MinerConfig config = MinerConfig::TGMiner();
  config.max_edges = 4;
  config.max_embeddings_per_graph = 500;
  config.num_threads = static_cast<int>(state.range(0));
  config.root_batch = static_cast<int>(state.range(1));
  std::int64_t visited = 0;
  for (auto _ : state) {
    MineResult result = Miner(config, pos, neg).Mine();
    visited = result.stats.patterns_visited;
    benchmark::DoNotOptimize(result);
  }
  state.counters["patterns_visited"] = static_cast<double>(visited);
}
BENCHMARK(BM_MineParallel)
    ->Args({1, 1})
    ->Args({1, 16})
    ->Args({2, 16})
    ->Args({4, 16})
    ->Args({8, 16})
    // root_batch=0: the adaptive sentinel sizes batches from the thread
    // count, so these rows measure the prune-loss-vs-speedup trade of the
    // auto batch against the explicit rows above (patterns_visited shows
    // the extra exploration, time/iteration the payoff).
    ->Args({4, 0})
    ->Args({8, 0})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace tgm

BENCHMARK_MAIN();
