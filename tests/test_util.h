#ifndef TGM_TESTS_TEST_UTIL_H_
#define TGM_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "mining/result.h"
#include "temporal/pattern.h"
#include "temporal/temporal_graph.h"

namespace tgm::testing {

/// Asserts bitwise equality of two mining results (ranked list + best
/// score). Stats are intentionally not compared: counters such as
/// elapsed_seconds are timing-dependent by nature, and pruning changes
/// what is visited without changing what is ranked.
inline void ExpectIdenticalResults(const MineResult& want,
                                   const MineResult& got) {
  EXPECT_EQ(want.best_score, got.best_score);
  ASSERT_EQ(want.top.size(), got.top.size());
  for (std::size_t i = 0; i < want.top.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "rank " << i);
    EXPECT_TRUE(want.top[i].pattern == got.top[i].pattern);
    EXPECT_EQ(want.top[i].score, got.top[i].score);
    EXPECT_EQ(want.top[i].freq_pos, got.top[i].freq_pos);
    EXPECT_EQ(want.top[i].freq_neg, got.top[i].freq_neg);
    EXPECT_EQ(want.top[i].support_pos, got.top[i].support_pos);
    EXPECT_EQ(want.top[i].support_neg, got.top[i].support_neg);
  }
}

/// Builds a finalized temporal graph from labels and (src, dst, ts) edges.
inline TemporalGraph MakeGraph(
    const std::vector<LabelId>& labels,
    const std::vector<std::tuple<NodeId, NodeId, Timestamp>>& edges,
    TiePolicy policy = TiePolicy::kBreakByInsertionOrder) {
  TemporalGraph g;
  for (LabelId l : labels) g.AddNode(l);
  for (const auto& [src, dst, ts] : edges) g.AddEdge(src, dst, ts);
  g.Finalize(policy);
  return g;
}

/// Builds a canonical pattern from labels and (src, dst) edges in temporal
/// order. Edges must respect canonical first-appearance numbering.
inline Pattern MakePattern(const std::vector<LabelId>& labels,
                           const std::vector<std::pair<NodeId, NodeId>>& edges) {
  TemporalGraph g;
  for (LabelId l : labels) g.AddNode(l);
  Timestamp ts = 1;
  for (const auto& [src, dst] : edges) g.AddEdge(src, dst, ts++);
  g.Finalize(TiePolicy::kRequireStrict);
  auto p = Pattern::FromTemporalGraph(g);
  TGM_CHECK(p.has_value());
  return *p;
}

/// Grows a random canonical pattern of `num_edges` edges over an alphabet
/// of `num_labels` node labels (edge labels default).
inline Pattern RandomPattern(std::mt19937_64& rng, int num_edges,
                             int num_labels) {
  std::uniform_int_distribution<LabelId> label(0, num_labels - 1);
  Pattern p = Pattern::SingleEdge(label(rng), label(rng));
  while (static_cast<int>(p.edge_count()) < num_edges) {
    int choice = static_cast<int>(rng() % 3);
    std::uniform_int_distribution<NodeId> node(
        0, static_cast<NodeId>(p.node_count()) - 1);
    if (choice == 0) {
      p = p.GrowForward(node(rng), label(rng));
    } else if (choice == 1) {
      p = p.GrowBackward(label(rng), node(rng));
    } else {
      NodeId u = node(rng);
      NodeId v = node(rng);
      if (u == v) continue;  // the miner never grows self-loops
      p = p.GrowInward(u, v);
    }
  }
  return p;
}

/// Grows `extra` additional random edges on top of `base` (so `base` ⊆t
/// result by construction).
inline Pattern GrowRandomly(std::mt19937_64& rng, const Pattern& base,
                            int extra, int num_labels) {
  Pattern p = base;
  std::uniform_int_distribution<LabelId> label(0, num_labels - 1);
  for (int i = 0; i < extra;) {
    std::uniform_int_distribution<NodeId> node(
        0, static_cast<NodeId>(p.node_count()) - 1);
    int choice = static_cast<int>(rng() % 3);
    if (choice == 0) {
      p = p.GrowForward(node(rng), label(rng));
    } else if (choice == 1) {
      p = p.GrowBackward(label(rng), node(rng));
    } else {
      NodeId u = node(rng);
      NodeId v = node(rng);
      if (u == v) continue;
      p = p.GrowInward(u, v);
    }
    ++i;
  }
  return p;
}

/// Random data graph: `num_nodes` labeled nodes, `num_edges` edges with
/// strictly increasing timestamps (no self-loops).
inline TemporalGraph RandomGraph(std::mt19937_64& rng, int num_nodes,
                                 int num_edges, int num_labels) {
  TemporalGraph g;
  std::uniform_int_distribution<LabelId> label(0, num_labels - 1);
  for (int i = 0; i < num_nodes; ++i) g.AddNode(label(rng));
  std::uniform_int_distribution<NodeId> node(0, num_nodes - 1);
  Timestamp ts = 1;
  for (int i = 0; i < num_edges;) {
    NodeId u = node(rng);
    NodeId v = node(rng);
    if (u == v) continue;
    g.AddEdge(u, v, ts);
    ts += 1 + static_cast<Timestamp>(rng() % 3);
    ++i;
  }
  g.Finalize(TiePolicy::kRequireStrict);
  return g;
}

}  // namespace tgm::testing

#endif  // TGM_TESTS_TEST_UTIL_H_
