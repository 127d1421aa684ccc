#include "nontemporal/gspan.h"

#include <algorithm>
#include <chrono>

namespace tgm {

GspanMiner::GspanMiner(const GspanConfig& config,
                       std::vector<const StaticGraph*> positives,
                       std::vector<const StaticGraph*> negatives)
    : config_(config),
      pos_graphs_(std::move(positives)),
      neg_graphs_(std::move(negatives)),
      score_(config.score_kind, static_cast<std::int64_t>(pos_graphs_.size()),
             static_cast<std::int64_t>(neg_graphs_.size()), config.epsilon),
      best_score_(-std::numeric_limits<double>::infinity()) {
  TGM_CHECK(config_.max_edges >= 1);
  TGM_CHECK(!pos_graphs_.empty());
  TGM_CHECK(!neg_graphs_.empty());
}

GspanMiner::GspanMiner(const GspanConfig& config,
                       const std::vector<StaticGraph>& positives,
                       const std::vector<StaticGraph>& negatives)
    : GspanMiner(config,
                 [&positives] {
                   std::vector<const StaticGraph*> ptrs;
                   ptrs.reserve(positives.size());
                   for (const StaticGraph& g : positives) ptrs.push_back(&g);
                   return ptrs;
                 }(),
                 [&negatives] {
                   std::vector<const StaticGraph*> ptrs;
                   ptrs.reserve(negatives.size());
                   for (const StaticGraph& g : negatives) ptrs.push_back(&g);
                   return ptrs;
                 }()) {}

void GspanMiner::DedupeAndCap(SEmbeddingTable& table) {
  for (SGraphEmbeddings& ge : table) {
    std::sort(ge.embeds.begin(), ge.embeds.end());
    ge.embeds.erase(std::unique(ge.embeds.begin(), ge.embeds.end()),
                    ge.embeds.end());
    if (config_.max_embeddings_per_graph > 0 &&
        static_cast<std::int64_t>(ge.embeds.size()) >
            config_.max_embeddings_per_graph) {
      ge.embeds.resize(
          static_cast<std::size_t>(config_.max_embeddings_per_graph));
    }
  }
}

void GspanMiner::CollectExtensions(const DfsCode& code,
                                   const SEmbeddingTable& table,
                                   const std::vector<const StaticGraph*>&
                                       graphs,
                                   bool positive_side,
                                   std::map<EntryKey, ChildBuckets>& out)
    const {
  std::vector<std::int32_t> path = RightmostPath(code);
  std::int32_t rightmost = path.back();
  std::int32_t next_id = rightmost + 1;

  auto dir_edge_in_code = [&code](std::int32_t a, std::int32_t b,
                                  LabelId elabel) {
    for (const DfsCodeEntry& e : code) {
      std::int32_t s = e.along ? e.from : e.to;
      std::int32_t d = e.along ? e.to : e.from;
      if (s == a && d == b && e.elabel == elabel) return true;
    }
    return false;
  };

  for (const SGraphEmbeddings& ge : table) {
    const StaticGraph& g = *graphs[static_cast<std::size_t>(ge.graph)];
    for (const SEmbedding& emb : ge.embeds) {
      auto is_mapped = [&emb](NodeId data_node) {
        return std::find(emb.nodes.begin(), emb.nodes.end(), data_node) !=
               emb.nodes.end();
      };
      auto emit = [&](const DfsCodeEntry& entry, NodeId new_node) {
        ChildBuckets& bucket = out[EntryKey{entry}];
        SEmbeddingTable& side = positive_side ? bucket.pos : bucket.neg;
        if (side.empty() || side.back().graph != ge.graph) {
          side.push_back(SGraphEmbeddings{ge.graph, {}});
        }
        SEmbedding child = emb;
        if (new_node != kInvalidNode) child.nodes.push_back(new_node);
        side.back().embeds.push_back(std::move(child));
      };

      NodeId fr = emb.nodes[static_cast<std::size_t>(rightmost)];
      // Backward extensions from the rightmost vertex.
      for (std::int32_t v : path) {
        if (v == rightmost) continue;
        NodeId fv = emb.nodes[static_cast<std::size_t>(v)];
        for (std::int32_t ei : g.out_edges(fr)) {
          const StaticEdge& de = g.edge(static_cast<std::size_t>(ei));
          if (de.dst != fv) continue;
          if (dir_edge_in_code(rightmost, v, de.elabel)) continue;
          emit(DfsCodeEntry{rightmost, v, g.label(fr), g.label(fv), de.elabel,
                            true},
               kInvalidNode);
        }
        for (std::int32_t ei : g.in_edges(fr)) {
          const StaticEdge& de = g.edge(static_cast<std::size_t>(ei));
          if (de.src != fv) continue;
          if (dir_edge_in_code(v, rightmost, de.elabel)) continue;
          emit(DfsCodeEntry{rightmost, v, g.label(fr), g.label(fv), de.elabel,
                            false},
               kInvalidNode);
        }
      }
      // Forward extensions from rightmost-path nodes.
      for (std::int32_t u : path) {
        NodeId fu = emb.nodes[static_cast<std::size_t>(u)];
        for (std::int32_t ei : g.out_edges(fu)) {
          const StaticEdge& de = g.edge(static_cast<std::size_t>(ei));
          if (is_mapped(de.dst)) continue;
          emit(DfsCodeEntry{u, next_id, g.label(fu), g.label(de.dst),
                            de.elabel, true},
               de.dst);
        }
        for (std::int32_t ei : g.in_edges(fu)) {
          const StaticEdge& de = g.edge(static_cast<std::size_t>(ei));
          if (is_mapped(de.src)) continue;
          emit(DfsCodeEntry{u, next_id, g.label(fu), g.label(de.src),
                            de.elabel, false},
               de.src);
        }
      }
    }
  }
}

void GspanMiner::UpdateTop(const DfsCode& code, double freq_pos,
                           double freq_neg, double score,
                           std::int64_t support_pos,
                           std::int64_t support_neg) {
  if (support_pos == 0) return;
  // As in the temporal miner, the support floor also filters results:
  // minority-run patterns are noise, not behaviour signatures.
  if (freq_pos < config_.min_pos_freq) return;
  best_score_ = std::max(best_score_, score);
  if (static_cast<int>(top_.size()) >= config_.top_k &&
      score <= top_.back().score) {
    return;
  }
  StaticMinedPattern mined;
  mined.code = code;
  mined.graph = GraphFromCode(code);
  mined.freq_pos = freq_pos;
  mined.freq_neg = freq_neg;
  mined.score = score;
  mined.support_pos = support_pos;
  mined.support_neg = support_neg;
  auto it = std::upper_bound(
      top_.begin(), top_.end(), mined,
      [](const StaticMinedPattern& a, const StaticMinedPattern& b) {
        return a.score > b.score;
      });
  top_.insert(it, std::move(mined));
  if (static_cast<int>(top_.size()) > config_.top_k) top_.pop_back();
}

bool GspanMiner::BudgetExhausted() {
  if (config_.max_visited > 0 && visited_ >= config_.max_visited) return true;
  if (config_.max_millis > 0) {
    if ((visited_ & 63) == 0) {
      auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                         std::chrono::steady_clock::now() - start_time_)
                         .count();
      if (elapsed >= config_.max_millis) timed_out_ = true;
    }
    if (timed_out_) return true;
  }
  return false;
}

double GspanMiner::Dfs(const DfsCode& code, SEmbeddingTable pos_table,
                       SEmbeddingTable neg_table) {
  ++visited_;
  std::int64_t support_pos = static_cast<std::int64_t>(pos_table.size());
  std::int64_t support_neg = static_cast<std::int64_t>(neg_table.size());
  double freq_pos = static_cast<double>(support_pos) /
                    static_cast<double>(pos_graphs_.size());
  double freq_neg = static_cast<double>(support_neg) /
                    static_cast<double>(neg_graphs_.size());
  double own_score = score_(freq_pos, freq_neg);
  UpdateTop(code, freq_pos, freq_neg, own_score, support_pos, support_neg);

  if (static_cast<int>(code.size()) >= config_.max_edges) return own_score;
  if (BudgetExhausted()) return own_score;
  if (support_pos == 0) return own_score;
  if (config_.use_naive_bound && score_.UpperBound(freq_pos) < best_score_) {
    return own_score;
  }
  // Once the top-k list is full, a branch bounded by its k-th score cannot
  // enter it either (UpdateTop rejects ties), so cutting it leaves the
  // result unchanged.
  if (config_.use_naive_bound &&
      static_cast<int>(top_.size()) >= config_.top_k &&
      score_.UpperBound(freq_pos) <= top_.back().score) {
    return own_score;
  }
  if (freq_pos < config_.min_pos_freq) return own_score;

  std::map<EntryKey, ChildBuckets> extensions;
  CollectExtensions(code, pos_table, pos_graphs_, true, extensions);
  CollectExtensions(code, neg_table, neg_graphs_, false, extensions);
  pos_table.clear();
  pos_table.shrink_to_fit();
  neg_table.clear();
  neg_table.shrink_to_fit();

  struct ChildWork {
    DfsCodeEntry entry;
    ChildBuckets buckets;
    double score = 0.0;
  };
  std::vector<ChildWork> children;
  children.reserve(extensions.size());
  for (auto& [key, buckets] : extensions) {
    ChildWork work;
    work.entry = key.entry;
    work.score = score_(static_cast<double>(buckets.pos.size()) /
                            static_cast<double>(pos_graphs_.size()),
                        static_cast<double>(buckets.neg.size()) /
                            static_cast<double>(neg_graphs_.size()));
    work.buckets = std::move(buckets);
    children.push_back(std::move(work));
  }
  extensions.clear();
  if (config_.order_children_by_score) {
    std::stable_sort(children.begin(), children.end(),
                     [](const ChildWork& a, const ChildWork& b) {
                       return a.score > b.score;
                     });
  }

  double branch_best = own_score;
  for (ChildWork& child : children) {
    DfsCode child_code = code;
    child_code.push_back(child.entry);
    // Expand only minimal codes: every pattern is reached exactly once via
    // its canonical (minimal) DFS code, as in gSpan.
    if (!IsMinimalCode(child_code)) continue;
    DedupeAndCap(child.buckets.pos);
    DedupeAndCap(child.buckets.neg);
    branch_best = std::max(
        branch_best, Dfs(child_code, std::move(child.buckets.pos),
                         std::move(child.buckets.neg)));
    if (BudgetExhausted()) break;
  }
  return branch_best;
}

GspanResult GspanMiner::Mine() {
  start_time_ = std::chrono::steady_clock::now();
  auto start = start_time_;

  std::map<EntryKey, ChildBuckets> roots;
  auto scan_side = [&](const std::vector<const StaticGraph*>& graphs,
                       bool positive) {
    for (std::size_t gi = 0; gi < graphs.size(); ++gi) {
      const StaticGraph& g = *graphs[gi];
      for (const StaticEdge& e : g.edges()) {
        TGM_CHECK(e.src != e.dst);  // self-loops unsupported
        // Both orientations are offered; IsMinimalCode keeps exactly the
        // canonical one, so each one-edge pattern is expanded once.
        DfsCodeEntry fwd{0, 1, g.label(e.src), g.label(e.dst), e.elabel,
                         true};
        DfsCodeEntry rev{0, 1, g.label(e.dst), g.label(e.src), e.elabel,
                         false};
        for (const DfsCodeEntry& entry : {fwd, rev}) {
          ChildBuckets& bucket = roots[EntryKey{entry}];
          SEmbeddingTable& side = positive ? bucket.pos : bucket.neg;
          if (side.empty() ||
              side.back().graph != static_cast<std::int32_t>(gi)) {
            side.push_back(
                SGraphEmbeddings{static_cast<std::int32_t>(gi), {}});
          }
          side.back().embeds.push_back(
              entry.along ? SEmbedding{{e.src, e.dst}}
                          : SEmbedding{{e.dst, e.src}});
        }
      }
    }
  };
  scan_side(pos_graphs_, true);
  scan_side(neg_graphs_, false);

  struct RootWork {
    DfsCodeEntry entry;
    ChildBuckets buckets;
    double score = 0.0;
  };
  std::vector<RootWork> work;
  for (auto& [key, buckets] : roots) {
    RootWork w;
    w.entry = key.entry;
    w.score = score_(static_cast<double>(buckets.pos.size()) /
                         static_cast<double>(pos_graphs_.size()),
                     static_cast<double>(buckets.neg.size()) /
                         static_cast<double>(neg_graphs_.size()));
    w.buckets = std::move(buckets);
    work.push_back(std::move(w));
  }
  roots.clear();
  if (config_.order_children_by_score) {
    std::stable_sort(work.begin(), work.end(),
                     [](const RootWork& a, const RootWork& b) {
                       return a.score > b.score;
                     });
  }

  for (RootWork& w : work) {
    DfsCode code{w.entry};
    if (!IsMinimalCode(code)) continue;
    DedupeAndCap(w.buckets.pos);
    DedupeAndCap(w.buckets.neg);
    Dfs(code, std::move(w.buckets.pos), std::move(w.buckets.neg));
    if (BudgetExhausted()) break;
  }

  GspanResult result;
  result.top = top_;
  result.best_score = best_score_;
  result.patterns_visited = visited_;
  result.timed_out = timed_out_;
  result.elapsed_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return result;
}

}  // namespace tgm
