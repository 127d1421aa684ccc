#include "mining/miner.h"

#include <algorithm>
#include <chrono>

#include "base/invariants.h"
#include "mining/key_index.h"

namespace tgm {

namespace {

NodeId FindMappedNode(const NodeSeq& nodes, NodeId data_node) {
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i] == data_node) return static_cast<NodeId>(i);
  }
  return kNewNode;
}

/// Number of entries in an ascending position list that lie strictly after
/// `last` — the incident tail-edge count CSR enumeration works from.
std::size_t TailSuffixCount(EdgePosSpan positions, EdgePos last) {
  return static_cast<std::size_t>(
      positions.end() -
      std::upper_bound(positions.begin(), positions.end(), last));
}

/// True if no two embeddings in `table` share a cut, i.e. each (graph, cut)
/// pair of `residual` belongs to exactly one node map.
bool OneEmbeddingPerCut(const EmbeddingTable& table,
                        const ResidualSet& residual) {
  std::size_t embeddings = 0;
  for (const GraphEmbeddings& ge : table) embeddings += ge.embeds.size();
  return embeddings == residual.cuts().size();
}

}  // namespace

Miner::Miner(const MinerConfig& config,
             std::vector<const TemporalGraph*> positives,
             std::vector<const TemporalGraph*> negatives)
    : config_(config),
      pos_graphs_(std::move(positives)),
      neg_graphs_(std::move(negatives)),
      score_(config.score_kind, static_cast<std::int64_t>(pos_graphs_.size()),
             static_cast<std::int64_t>(neg_graphs_.size()), config.epsilon),
      // Root subtrees are the only parallel unit, so threads are started
      // only when batches can hold more than one subtree (root_batch 0 or
      // > 1; negatives clamp to the serial 1).
      pool_(ResolveNumThreads(config.num_threads) > 1 &&
                    (config.root_batch == 0 || config.root_batch > 1)
                ? std::make_unique<StealScheduler>(
                      ResolveNumThreads(config.num_threads) - 1)
                : nullptr),
      tester_(MakeTester(config.subgraph_algo)),
      registry_(config.residual_algo) {
  TGM_CHECK(config_.max_edges >= 1);
  TGM_CHECK(config_.top_k >= 1);
  TGM_CHECK(!pos_graphs_.empty());
  TGM_CHECK(!neg_graphs_.empty());
  for (const TemporalGraph* g : pos_graphs_) TGM_CHECK(g->finalized());
  for (const TemporalGraph* g : neg_graphs_) TGM_CHECK(g->finalized());
}

Miner::Miner(const MinerConfig& config,
             const std::vector<TemporalGraph>& positives,
             const std::vector<TemporalGraph>& negatives)
    : Miner(config,
            [&positives] {
              std::vector<const TemporalGraph*> ptrs;
              ptrs.reserve(positives.size());
              for (const TemporalGraph& g : positives) ptrs.push_back(&g);
              return ptrs;
            }(),
            [&negatives] {
              std::vector<const TemporalGraph*> ptrs;
              ptrs.reserve(negatives.size());
              for (const TemporalGraph& g : negatives) ptrs.push_back(&g);
              return ptrs;
            }()) {}

std::int64_t Miner::DedupeAndCap(EmbeddingTable& table) const {
  std::int64_t cap_hits = 0;
  for (GraphEmbeddings& ge : table) {
    std::sort(ge.embeds.begin(), ge.embeds.end());
    ge.embeds.erase(std::unique(ge.embeds.begin(), ge.embeds.end()),
                    ge.embeds.end());
    if (config_.max_embeddings_per_graph > 0 &&
        static_cast<std::int64_t>(ge.embeds.size()) >
            config_.max_embeddings_per_graph) {
      ge.embeds.resize(
          static_cast<std::size_t>(config_.max_embeddings_per_graph));
      ++cap_hits;
    }
  }
  return cap_hits;
}

void Miner::ReleaseTable(EmbeddingTable& table) {
  for (GraphEmbeddings& ge : table) {
    ScratchPool<Embedding>::Release(std::move(ge.embeds));
  }
  ScratchPool<GraphEmbeddings>::Release(std::move(table));
  table.clear();
}

std::uint64_t Miner::HashKey(const ExtensionKey& k) {
  auto mix = [](std::uint64_t h, std::int32_t x) {
    h ^= static_cast<std::uint32_t>(x) + 0x9e3779b97f4a7c15ull + (h << 6) +
         (h >> 2);
    return h;
  };
  std::uint64_t h = 0x243f6a8885a308d3ull;
  h = mix(h, k.src);
  h = mix(h, k.dst);
  h = mix(h, k.src_label);
  h = mix(h, k.dst_label);
  return mix(h, k.elabel);
}

void Miner::CollectGraphExtensions(const GraphEmbeddings& ge,
                                   const TemporalGraph& g,
                                   std::vector<KeyedEmbeds>& out) const {
  const auto& edges = g.edges();
  const std::size_t base = out.size();

  // Deep DFS levels see one or two embeddings with short tails, so every
  // fixed per-call cost here is hot. Strategy selection is driven by the
  // actual tail work instead of worst-case sizes.
  std::size_t total_tail = 0;
  for (const Embedding& emb : ge.embeds) {
    total_tail += edges.size() - static_cast<std::size_t>(emb.last) - 1;
  }
  if (total_tail == 0) return;

  // Run lookup: candidates go straight into their run's embedding list, so
  // nothing is sorted or moved twice, and BuildChildren's key sort erases
  // the first-encounter order.
  HybridKeyIndex run_index(
      base, [](const ExtensionKey& key) { return HashKey(key); },
      [&out](std::size_t i) -> const ExtensionKey& { return out[i].key; });
  auto find_run = [&](const ExtensionKey& key) -> std::size_t {
    std::size_t idx = run_index.Find(key, out.size());
    if (idx != kKeyIndexNotFound) return idx;
    idx = out.size();
    KeyedEmbeds& run = out.emplace_back();
    run.key = key;
    run.graph = ge.graph;
    run.embeds = ScratchPool<Embedding>::Acquire();
    run_index.Inserted(idx);
    return idx;
  };

  // O(1) data-node -> pattern-slot lookup for the tail scan; entries are
  // set per embedding and unset afterwards, so the full fill happens once
  // per call. The fill costs node_count stores while the payoff is one
  // inline-map scan saved per tail edge, so short total tails keep the
  // scanning fallback.
  std::vector<NodeId> node_slot;
  const bool use_node_slot =
      total_tail * ge.embeds.front().nodes.size() >= 2 * g.node_count();
  if (use_node_slot) {
    node_slot = ScratchPool<NodeId>::Acquire();
    node_slot.assign(g.node_count(), kNewNode);
  }

  // CSR-driven candidate enumeration: when the per-node position lists say
  // few tail edges touch the mapped nodes, gather exactly those positions
  // from the incidence spans instead of scanning the whole tail. The
  // gathered set, sorted ascending, is precisely the positions the linear
  // scan would have accepted, in the same order — candidate streams (and
  // therefore run first-encounter order and ranked output) are identical
  // either way, so the cutover is purely a cost decision.
  std::vector<EdgePos> incident;
  bool incident_acquired = false;

  for (const Embedding& emb : ge.embeds) {
    if (use_node_slot) {
      for (std::size_t i = 0; i < emb.nodes.size(); ++i) {
        node_slot[static_cast<std::size_t>(emb.nodes[i])] =
            static_cast<NodeId>(i);
      }
    }
    auto process = [&](std::size_t p) {
      const TemporalEdge& e = edges[p];
      NodeId u = use_node_slot
                     ? node_slot[static_cast<std::size_t>(e.src)]
                     : FindMappedNode(emb.nodes, e.src);
      NodeId v = use_node_slot
                     ? node_slot[static_cast<std::size_t>(e.dst)]
                     : FindMappedNode(emb.nodes, e.dst);
      if (u == kNewNode && v == kNewNode) return;  // not T-connected
      ExtensionKey key;
      key.src = u;
      key.dst = v;
      key.src_label = g.label(e.src);
      key.dst_label = g.label(e.dst);
      key.elabel = e.elabel;
      Embedding& child = out[find_run(key)].embeds.emplace_back();
      child.nodes = emb.nodes;
      if (u == kNewNode) child.nodes.push_back(e.src);
      if (v == kNewNode) child.nodes.push_back(e.dst);
      child.last = static_cast<EdgePos>(p);
    };

    // Incident tail-edge estimate from the CSR spans. Edges joining two
    // mapped nodes are counted twice (once per endpoint) — acceptable for
    // a cost estimate, deduplicated in the gather below. Short tails are
    // exempt outright — a linear scan of a few dozen edges beats any
    // amount of per-node bookkeeping — and the loop bails as soon as the
    // estimate disqualifies the gather, so dense embeddings pay at most
    // one or two binary searches, not one per mapped node.
    constexpr std::size_t kCsrGatherMinTail = 64;
    const std::size_t tail_len =
        edges.size() - static_cast<std::size_t>(emb.last) - 1;
    std::size_t incident_estimate = tail_len < kCsrGatherMinTail ? tail_len : 0;
    for (std::size_t i = 0;
         i < emb.nodes.size() && 2 * incident_estimate < tail_len; ++i) {
      incident_estimate += TailSuffixCount(g.out_edges(emb.nodes[i]), emb.last);
      incident_estimate += TailSuffixCount(g.in_edges(emb.nodes[i]), emb.last);
    }
    if (2 * incident_estimate < tail_len) {
      if (!incident_acquired) {
        incident = ScratchPool<EdgePos>::Acquire();
        incident_acquired = true;
      }
      incident.clear();
      for (std::size_t i = 0; i < emb.nodes.size(); ++i) {
        for (EdgePosSpan span :
             {g.out_edges(emb.nodes[i]), g.in_edges(emb.nodes[i])}) {
          auto it = std::upper_bound(span.begin(), span.end(), emb.last);
          incident.insert(incident.end(), it, span.end());
        }
      }
      std::sort(incident.begin(), incident.end());
      incident.erase(std::unique(incident.begin(), incident.end()),
                     incident.end());
      for (EdgePos p : incident) process(static_cast<std::size_t>(p));
    } else {
      for (std::size_t p = static_cast<std::size_t>(emb.last) + 1;
           p < edges.size(); ++p) {
        process(p);
      }
    }
    if (use_node_slot) {
      for (std::size_t i = 0; i < emb.nodes.size(); ++i) {
        node_slot[static_cast<std::size_t>(emb.nodes[i])] = kNewNode;
      }
    }
  }
  if (incident_acquired) ScratchPool<EdgePos>::Release(std::move(incident));
  if (use_node_slot) ScratchPool<NodeId>::Release(std::move(node_slot));
}

void Miner::CollectExtensions(const EmbeddingTable& table,
                              const std::vector<const TemporalGraph*>& graphs,
                              bool positive_side,
                              std::vector<KeyedEmbeds>& out) const {
  std::size_t first = out.size();
  for (const GraphEmbeddings& ge : table) {
    CollectGraphExtensions(ge, *graphs[static_cast<std::size_t>(ge.graph)],
                           out);
  }
  for (std::size_t i = first; i < out.size(); ++i) {
    out[i].positive = positive_side;
  }
}

std::vector<Miner::ChildWork> Miner::BuildChildren(
    std::vector<KeyedEmbeds>& runs) const {
  // Merge the runs into per-key buckets through a second open-addressing
  // key -> child view. The runs arrive positive side first, graphs
  // ascending within each side (CollectExtensions appends them that way for
  // every thread count), so appending each run to its child in arrival
  // order reproduces the exact per-key bucket layout the seed built by
  // inserting into a std::map — without comparison-sorting the whole run
  // list. Only the small distinct-key children list is sorted, which also
  // erases the hash-driven first-encounter order. The vector itself is
  // pooled: every DFS level builds one, so callers release it (after
  // recycling any leftover bucket tables) when the level unwinds.
  std::vector<ChildWork> children = ScratchPool<ChildWork>::Acquire();
  HybridKeyIndex child_index(
      0, [](const ExtensionKey& key) { return HashKey(key); },
      [&children](std::size_t i) -> const ExtensionKey& {
        return children[i].key;
      });
  for (KeyedEmbeds& run : runs) {
    std::size_t idx = child_index.Find(run.key, children.size());
    if (idx == kKeyIndexNotFound) {
      idx = children.size();
      children.emplace_back().key = run.key;
      child_index.Inserted(idx);
    }
    ChildWork& child = children[idx];
    EmbeddingTable& side = run.positive ? child.buckets.pos
                                        : child.buckets.neg;
    if (side.capacity() == 0) side = ScratchPool<GraphEmbeddings>::Acquire();
    side.push_back(GraphEmbeddings{run.graph, std::move(run.embeds)});
  }
  std::sort(children.begin(), children.end(),
            [](const ChildWork& a, const ChildWork& b) {
              return a.key < b.key;
            });
  for (ChildWork& work : children) {
    double fp = static_cast<double>(work.buckets.pos.size()) /
                static_cast<double>(pos_graphs_.size());
    double fn = static_cast<double>(work.buckets.neg.size()) /
                static_cast<double>(neg_graphs_.size());
    work.score = score_(fp, fn);
  }
  if (config_.order_children_by_score) {
    std::stable_sort(children.begin(), children.end(),
                     [](const ChildWork& a, const ChildWork& b) {
                       return a.score > b.score;
                     });
  }
  return children;
}

ResidualSet Miner::BuildResidual(
    const EmbeddingTable& table,
    const std::vector<const TemporalGraph*>& graphs) const {
  std::vector<std::pair<std::int32_t, EdgePos>> cuts;
  for (const GraphEmbeddings& ge : table) {
    for (const Embedding& emb : ge.embeds) {
      cuts.emplace_back(ge.graph, emb.last);
    }
  }
  return ResidualSet(std::move(cuts), graphs);
}

Pattern Miner::Grow(const Pattern& parent, const ExtensionKey& key) const {
  if (key.src != kNewNode && key.dst != kNewNode) {
    return parent.GrowInward(key.src, key.dst, key.elabel);
  }
  if (key.src != kNewNode) {
    return parent.GrowForward(key.src, key.dst_label, key.elabel);
  }
  TGM_DCHECK(key.dst != kNewNode);
  return parent.GrowBackward(key.src_label, key.dst, key.elabel);
}

void Miner::UpdateTop(WorkerState& ws, const Pattern& pattern,
                      double freq_pos, double freq_neg, double score,
                      std::int64_t support_pos, std::int64_t support_neg) {
  if (support_pos == 0) return;  // patterns absent from Gp are never queries
  // The support floor is a hard constraint on results as well as on
  // expansion: a pattern occurring in a minority of the behaviour's runs is
  // run-specific noise, not a behaviour signature, no matter its score.
  if (freq_pos < config_.min_pos_freq) return;
  if (CannotEnterTop(ws.top, score)) return;
  MinedPattern mined;
  mined.pattern = pattern;
  mined.freq_pos = freq_pos;
  mined.freq_neg = freq_neg;
  mined.score = score;
  mined.support_pos = support_pos;
  mined.support_neg = support_neg;
  // Log the insertion for the commit replay; entries later displaced from
  // ws.top stay in the log and are re-gated (and then dropped) at commit.
  ws.inserts.push_back(mined);
  InsertTop(ws.top, std::move(mined));
}

bool Miner::CannotEnterTop(const std::vector<MinedPattern>& top,
                           double bound) const {
  return static_cast<int>(top.size()) >= config_.top_k &&
         bound <= top.back().score;
}

void Miner::InsertTop(std::vector<MinedPattern>& top,
                      MinedPattern mined) const {
  if (CannotEnterTop(top, mined.score)) return;
  // Insert keeping descending score order, stable for equal scores.
  auto it = std::upper_bound(top.begin(), top.end(), mined,
                             [](const MinedPattern& a, const MinedPattern& b) {
                               return a.score > b.score;
                             });
  top.insert(it, std::move(mined));
  if (static_cast<int>(top.size()) > config_.top_k) top.pop_back();
}

bool Miner::TrySubgraphPrune(WorkerState& ws, const Pattern& pattern,
                             const ResidualSet& pos_res,
                             double* inherited_bound) {
  bool pruned = false;
  ForEachCandidate(
      ws, pos_res.i_value(), pos_res.cuts(), &ws.stats.residual_equiv_tests,
      [&](const PatternRegistry::CandidateMeta& meta,
          const RegisteredPattern& g1) {
        // Lemma 4 bounds this branch by the reference's branch best; a
        // reference whose branch could still enter the top-k never cuts,
        // so it is dropped before any test.
        if (!CannotEnterTop(ws.top, meta.branch_best)) return true;
        if (static_cast<std::int32_t>(pattern.edge_count()) >
            meta.edge_count) {
          return true;
        }
        ++ws.stats.subgraph_tests;
        auto mapping = ws.tester->FindMapping(pattern, g1.pattern);
        if (!mapping.has_value()) return true;
        // Condition (3): labels of g1 nodes that no node of the current
        // pattern maps to must not occur in the current pattern's positive
        // residual node label set. The mark buffer lives in the worker so
        // this per-candidate check does not allocate.
        std::vector<char>& mapped = ws.mapped_scratch;
        mapped.assign(static_cast<std::size_t>(meta.node_count), 0);
        for (NodeId target : *mapping) {
          mapped[static_cast<std::size_t>(target)] = 1;
        }
        for (std::size_t v = 0; v < mapped.size(); ++v) {
          if (mapped[v] != 0) continue;
          LabelId l = g1.pattern.label(static_cast<NodeId>(v));
          if (pos_res.ResidualLabelSetContains(l, pos_graphs_)) return true;
        }
        pruned = true;
        *inherited_bound = meta.branch_best;
        return false;
      });
  return pruned;
}

bool Miner::TrySupergraphPrune(WorkerState& ws, const Pattern& pattern,
                               const ResidualSet& pos_res,
                               const ResidualSet& neg_res,
                               double* inherited_bound) {
  bool pruned = false;
  ForEachCandidate(
      ws, pos_res.i_value(), pos_res.cuts(), &ws.stats.residual_equiv_tests,
      [&](const PatternRegistry::CandidateMeta& meta,
          const RegisteredPattern& g1) {
        // Proposition 2's bound, gated like Lemma 4's above.
        if (!CannotEnterTop(ws.top, meta.branch_best)) return true;
        if (meta.node_count !=
            static_cast<std::int32_t>(pattern.node_count())) {
          return true;
        }
        if (meta.edge_count >
            static_cast<std::int32_t>(pattern.edge_count())) {
          return true;
        }
        // Negative residual sets must match as well.
        ++ws.stats.residual_equiv_tests;
        if (ws.local.algo() == ResidualEquivAlgo::kIValue) {
          if (meta.neg_i_value != neg_res.i_value()) return true;
        } else {
          if (g1.neg_cuts != neg_res.cuts()) return true;
        }
        // Equal cuts carry every negative embedding of g1 over only when
        // no two of them share a cut (see TrySupergraphPrune's comment).
        if (!g1.one_neg_embedding_per_cut) return true;
        ++ws.stats.subgraph_tests;
        if (!ws.tester->Contains(g1.pattern, pattern)) return true;
        pruned = true;
        *inherited_bound = meta.branch_best;
        return false;
      });
  return pruned;
}

void Miner::RegisterEntry(WorkerState& ws, const Pattern& pattern,
                          const ResidualSet& pos_res,
                          const ResidualSet& neg_res,
                          bool one_neg_embedding_per_cut,
                          double branch_best) {
  RegisteredPattern entry;
  entry.pattern = pattern;
  entry.pos_i_value = pos_res.i_value();
  entry.neg_i_value = neg_res.i_value();
  entry.node_count = static_cast<std::int32_t>(pattern.node_count());
  entry.edge_count = static_cast<std::int32_t>(pattern.edge_count());
  entry.branch_best = branch_best;
  entry.one_neg_embedding_per_cut = one_neg_embedding_per_cut;
  // The cut lists are only consulted (and kept) by the kLinearScan
  // ablation; the I-value path compares the integer compression, so the
  // copies would be made and immediately discarded.
  if (ws.local.algo() == ResidualEquivAlgo::kLinearScan) {
    entry.pos_cuts = pos_res.cuts();
    entry.neg_cuts = neg_res.cuts();
  }
  ws.local.Add(std::move(entry));
}

double Miner::Dfs(WorkerState& ws, const Pattern& pattern,
                  EmbeddingTable& pos_table, EmbeddingTable& neg_table) {
  ++ws.stats.patterns_visited;

  std::int64_t support_pos = static_cast<std::int64_t>(pos_table.size());
  std::int64_t support_neg = static_cast<std::int64_t>(neg_table.size());
  double freq_pos = static_cast<double>(support_pos) /
                    static_cast<double>(pos_graphs_.size());
  double freq_neg = static_cast<double>(support_neg) /
                    static_cast<double>(neg_graphs_.size());
  double own_score = score_(freq_pos, freq_neg);
  UpdateTop(ws, pattern, freq_pos, freq_neg, own_score, support_pos,
            support_neg);

  if (static_cast<int>(pattern.edge_count()) >= config_.max_edges) {
    // Lemma 4 maps a smaller pattern's growths onto growths of a larger
    // reference, some of them past the size cap. Their naive bound keeps
    // the reference's recorded branch best a bound on every branch it cuts.
    return score_.UpperBound(freq_pos);
  }
  if (BudgetExhausted(ws)) return own_score;
  if (config_.use_naive_bound && support_pos == 0) {
    // F(0, y) is the global minimum and frequency is anti-monotone: every
    // supergraph also has zero positive support. This is the degenerate
    // case of the Section 4.1 bound.
    ++ws.stats.naive_prunes;
    return own_score;
  }
  if (config_.use_naive_bound &&
      CannotEnterTop(ws.top, score_.UpperBound(freq_pos))) {
    ++ws.stats.naive_prunes;
    return own_score;
  }
  if (freq_pos < config_.min_pos_freq) {
    return own_score;
  }

  const ResidualSet pos_res = BuildResidual(pos_table, pos_graphs_);
  const ResidualSet neg_res = BuildResidual(neg_table, neg_graphs_);
  const bool one_neg_embedding_per_cut =
      OneEmbeddingPerCut(neg_table, neg_res);

  double inherited = 0.0;
  // Lemma 4 needs every positive embedding of this pattern to extend to
  // the reference (see TrySubgraphPrune).
  if (config_.use_subgraph_pruning && OneEmbeddingPerCut(pos_table, pos_res) &&
      TrySubgraphPrune(ws, pattern, pos_res, &inherited)) {
    ++ws.stats.subgraph_prune_triggers;
    RegisterEntry(ws, pattern, pos_res, neg_res, one_neg_embedding_per_cut,
                  inherited);
    return std::max(own_score, inherited);
  }
  if (config_.use_supergraph_pruning &&
      TrySupergraphPrune(ws, pattern, pos_res, neg_res, &inherited)) {
    ++ws.stats.supergraph_prune_triggers;
    RegisterEntry(ws, pattern, pos_res, neg_res, one_neg_embedding_per_cut,
                  inherited);
    return std::max(own_score, inherited);
  }

  ++ws.stats.patterns_expanded;
  std::vector<KeyedEmbeds> runs = ScratchPool<KeyedEmbeds>::Acquire();
  CollectExtensions(pos_table, pos_graphs_, /*positive_side=*/true, runs);
  CollectExtensions(neg_table, neg_graphs_, /*positive_side=*/false, runs);
  // The parent's embeddings have been copied into the child streams;
  // recycle the buffers for the levels below.
  ReleaseTable(pos_table);
  ReleaseTable(neg_table);

  std::vector<ChildWork> children = BuildChildren(runs);
  ScratchPool<KeyedEmbeds>::Release(std::move(runs));

  // Each child is deduped lazily, right before its visit, so a budget
  // break skips (and never counts cap hits for) unvisited children.
  double branch_best = own_score;
  for (ChildWork& child : children) {
    Pattern grown = Grow(pattern, child.key);
    ws.stats.embedding_cap_hits += DedupeAndCap(child.buckets.pos);
    ws.stats.embedding_cap_hits += DedupeAndCap(child.buckets.neg);
    double sub = Dfs(ws, grown, child.buckets.pos, child.buckets.neg);
    // Paths that return before expanding leave their tables populated;
    // recycle them here so every level reuses warmed buffers.
    ReleaseTable(child.buckets.pos);
    ReleaseTable(child.buckets.neg);
    branch_best = std::max(branch_best, sub);
    if (BudgetExhausted(ws)) break;
  }

  // Recycle before returning the pooled children vector: a budget break
  // leaves unvisited children's tables populated, and Release would
  // destroy (not pool) the nested buffers. Already-released tables are
  // empty, so the sweep is idempotent.
  for (ChildWork& child : children) {
    ReleaseTable(child.buckets.pos);
    ReleaseTable(child.buckets.neg);
  }
  children.clear();
  ScratchPool<ChildWork>::Release(std::move(children));

  RegisterEntry(ws, pattern, pos_res, neg_res, one_neg_embedding_per_cut,
                branch_best);
  return branch_best;
}

bool Miner::BudgetExhausted(WorkerState& ws) {
  if (config_.max_visited > 0 &&
      ws.committed_visited + ws.stats.patterns_visited >=
          config_.max_visited) {
    // Unlike a wall-clock cut this one is reported (visit_cap_hit) AND
    // deterministic: committed + own visits depend only on root indices,
    // never on timing, so capped searches rank identically for every
    // thread count (subtrees in the same batch each stop against their own
    // count, so the summed total may overshoot max_visited by at most the
    // in-flight batch).
    ws.stats.visit_cap_hit = true;
    return true;
  }
  if (config_.max_millis > 0) {
    if (ws.stats.timed_out) return true;
    if (timed_out_.load(std::memory_order_relaxed)) {
      ws.stats.timed_out = true;
      return true;
    }
    // Amortize the clock read on the *call* count, not the visit count: a
    // visit-count trigger never fires while patterns_visited stalls
    // between calls (deep unwinds, one pattern doing unbounded embedding
    // work), and calls happen at least once per visit, so counting calls
    // bounds the staleness in both regimes.
    if ((++ws.budget_calls & 63) == 0) {
      auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                         std::chrono::steady_clock::now() - start_time_)
                         .count();
      if (elapsed >= config_.max_millis) {
        timed_out_.store(true, std::memory_order_relaxed);
        ws.stats.timed_out = true;
        return true;
      }
    }
  }
  return false;
}

std::size_t Miner::ResolveRootBatch(std::size_t root_count) const {
  if (config_.root_batch != 0) {
    // Explicit settings pass through (negatives clamp to the serial 1, as
    // before the sentinel existed).
    return static_cast<std::size_t>(std::max(config_.root_batch, 1));
  }
  const std::size_t threads =
      pool_ != nullptr ? static_cast<std::size_t>(pool_->num_workers()) + 1
                       : 1;
  if (threads <= 1 || root_count <= 1) return 1;
  // Adaptive sizing trades pruning context for parallelism: subtrees in
  // one batch cannot prune against each other, and measured pruning loss
  // grows with batch size (see bench/BM_MineParallel root_batch=0 rows).
  // A few batch rounds (~4) keep the loss bounded while oversubscribing
  // each round (up to 4 roots per thread) so steals can level skew.
  const std::size_t batch =
      std::min(4 * threads, std::max(threads, root_count / 4));
  return std::max<std::size_t>(batch, 1);
}

Miner::WorkerState Miner::MakeWorker(std::size_t batch_size) {
  WorkerState ws(config_.residual_algo);
  ws.committed = &registry_;
  ws.top = top_;
  ws.committed_visited = stats_.patterns_visited;
  if (batch_size <= 1) {
    // Nothing runs concurrently with a single-subtree batch, so the worker
    // may share the miner's memoizing tester (keeping the serial search's
    // warm memo across roots).
    ws.tester = tester_.get();
  } else {
    ws.owned_tester = MakeTester(config_.subgraph_algo);
    ws.tester = ws.owned_tester.get();
  }
  return ws;
}

void Miner::CommitWorker(WorkerState& ws) {
  stats_.MergeFrom(ws.stats);
  for (MinedPattern& mined : ws.inserts) InsertTop(top_, std::move(mined));
  registry_.Absorb(std::move(ws.local));
}

bool Miner::CommittedBudgetExhausted() {
  if (config_.max_visited > 0 &&
      stats_.patterns_visited >= config_.max_visited) {
    stats_.visit_cap_hit = true;
    return true;
  }
  if (config_.max_millis > 0) {
    if (!timed_out_.load(std::memory_order_relaxed)) {
      auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                         std::chrono::steady_clock::now() - start_time_)
                         .count();
      if (elapsed >= config_.max_millis) {
        timed_out_.store(true, std::memory_order_relaxed);
      }
    }
    if (timed_out_.load(std::memory_order_relaxed)) {
      stats_.timed_out = true;
      return true;
    }
  }
  return false;
}

MineResult Miner::Mine() {
  start_time_ = std::chrono::steady_clock::now();
  auto start = start_time_;
  // Reset the committed state so repeated Mine() calls are independent.
  registry_ = PatternRegistry(config_.residual_algo);
  stats_ = MinerStats{};
  top_.clear();
  timed_out_.store(false, std::memory_order_relaxed);

  // Root level: bucket every data edge into a one-edge pattern. A root is
  // an extension whose endpoints are both new, so root buckets flow through
  // the same flat sort-then-group machinery as DFS extensions; ExtensionKey
  // order with src == dst == kNewNode degenerates to the (src label, dst
  // label, edge label) tuple order the seed's root map used.
  std::vector<KeyedEmbeds> runs = ScratchPool<KeyedEmbeds>::Acquire();
  auto scan_side = [&](const std::vector<const TemporalGraph*>& graphs,
                       bool positive) {
    for (std::size_t gi = 0; gi < graphs.size(); ++gi) {
      const TemporalGraph& g = *graphs[gi];
      const auto& edges = g.edges();
      std::vector<FlatExtension> flat = ScratchPool<FlatExtension>::Acquire();
      for (std::size_t p = 0; p < edges.size(); ++p) {
        const TemporalEdge& e = edges[p];
        TGM_CHECK(e.src != e.dst);  // self-loops unsupported by the miner
        FlatExtension& ext = flat.emplace_back();
        ext.key.src = kNewNode;
        ext.key.dst = kNewNode;
        ext.key.src_label = g.label(e.src);
        ext.key.dst_label = g.label(e.dst);
        ext.key.elabel = e.elabel;
        ext.seq = static_cast<std::int32_t>(flat.size() - 1);
        ext.emb.nodes = {e.src, e.dst};
        ext.emb.last = static_cast<EdgePos>(p);
      }
      std::sort(flat.begin(), flat.end(),
                [](const FlatExtension& a, const FlatExtension& b) {
                  if (a.key != b.key) return a.key < b.key;
                  return a.seq < b.seq;
                });
      std::size_t i = 0;
      while (i < flat.size()) {
        KeyedEmbeds run;
        run.key = flat[i].key;
        run.graph = static_cast<std::int32_t>(gi);
        run.positive = positive;
        run.embeds = ScratchPool<Embedding>::Acquire();
        std::size_t j = i;
        while (j < flat.size() && flat[j].key == run.key) {
          run.embeds.push_back(std::move(flat[j].emb));
          ++j;
        }
        runs.push_back(std::move(run));
        i = j;
      }
      ScratchPool<FlatExtension>::Release(std::move(flat));
    }
  };
  scan_side(pos_graphs_, true);
  scan_side(neg_graphs_, false);

  std::vector<ChildWork> work = BuildChildren(runs);
  ScratchPool<KeyedEmbeds>::Release(std::move(runs));

  // Root subtrees are mined in batches of stealable tasks — one task per
  // root, so a worker that finishes an easy subtree takes a pending one
  // instead of the batch joining on its slowest member. Every subtree in a
  // batch runs against the same read-only committed snapshot (registry,
  // top-k, visit count) on its own WorkerState, then the workers are
  // committed in ascending root-bucket order — so the search is a pure
  // function of (inputs, root_batch), independent of thread count, steal
  // order, and scheduling, and its ranked result does not depend on
  // root_batch either. With root_batch == 1 (the default) each snapshot
  // holds every earlier root and the search is exactly the serial DFS
  // dispatch.
  const std::size_t batch_size = ResolveRootBatch(work.size());
  for (std::size_t begin = 0; begin < work.size(); begin += batch_size) {
    // Budget check between batches (the first batch always runs, as the
    // serial dispatch always mined at least one root).
    if (begin > 0 && CommittedBudgetExhausted()) break;
    const std::size_t n = std::min(batch_size, work.size() - begin);

    std::vector<WorkerState> workers;
    workers.reserve(n);
    for (std::size_t i = 0; i < n; ++i) workers.push_back(MakeWorker(n));

    // One stealable task per root subtree; root 0 runs on this thread and
    // the join helps-steal pending siblings, so single-subtree batches
    // (n == 1) run entirely inline. Each task dedupes its own root buckets
    // (the cap hits land in its stats and commit in root order).
    auto mine_root = [&](std::size_t i) {
      WorkerState& ws = workers[i];
      ChildWork& w = work[begin + i];
      ws.stats.embedding_cap_hits += DedupeAndCap(w.buckets.pos);
      ws.stats.embedding_cap_hits += DedupeAndCap(w.buckets.neg);
      Pattern root = Pattern::SingleEdge(w.key.src_label, w.key.dst_label,
                                         w.key.elabel);
      Dfs(ws, root, w.buckets.pos, w.buckets.neg);
      ReleaseTable(w.buckets.pos);
      ReleaseTable(w.buckets.neg);
    };
    {
      TaskGroup batch_group(pool_.get());
      for (std::size_t i = 1; i < n; ++i) {
        batch_group.Run([&mine_root, i] { mine_root(i); });
      }
      mine_root(0);
      batch_group.Wait();
    }
    // The join above quiesces the scheduler, so the batch boundary is
    // where structural audits are cheap and race-free.
    TGM_VALIDATE_INVARIANTS(
        "Miner batch boundary",
        pool_ != nullptr ? pool_->CheckInvariants() : std::string());

    // Deterministic merge: ascending root-bucket index, regardless of
    // which worker (or steal schedule) finished first.
    for (WorkerState& ws : workers) CommitWorker(ws);
  }
  // A budget break can leave later roots unmined with populated buckets;
  // recycle them (released tables are empty, so the sweep is idempotent)
  // before pooling the work vector itself.
  for (ChildWork& w : work) {
    ReleaseTable(w.buckets.pos);
    ReleaseTable(w.buckets.neg);
  }
  work.clear();
  ScratchPool<ChildWork>::Release(std::move(work));

  MineResult result;
  result.top = top_;
  // The first-ranked pattern is the best eligible score of the search: a
  // pattern above every retained score always enters the list at the front.
  if (!top_.empty()) result.best_score = top_.front().score;
  stats_.elapsed_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  result.stats = stats_;
  return result;
}

}  // namespace tgm
