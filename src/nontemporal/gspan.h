#ifndef TGM_NONTEMPORAL_GSPAN_H_
#define TGM_NONTEMPORAL_GSPAN_H_

#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <tuple>
#include <vector>

#include "mining/score.h"
#include "nontemporal/dfs_code.h"
#include "nontemporal/static_graph.h"

namespace tgm {

/// Configuration for the discriminative non-temporal miner.
struct GspanConfig {
  ScoreKind score_kind = ScoreKind::kLogRatio;
  double epsilon = 1e-6;
  int max_edges = 6;
  int top_k = 32;
  bool use_naive_bound = true;
  double min_pos_freq = 0.0;
  bool order_children_by_score = true;
  std::int64_t max_embeddings_per_graph = 0;  // 0 = unlimited
  std::int64_t max_visited = 0;               // 0 = unlimited
  /// Wall-clock budget in milliseconds; 0 = unlimited.
  std::int64_t max_millis = 0;
};

/// A mined non-temporal pattern.
struct StaticMinedPattern {
  DfsCode code;
  StaticGraph graph;
  double freq_pos = 0.0;
  double freq_neg = 0.0;
  double score = -std::numeric_limits<double>::infinity();
  std::int64_t support_pos = 0;
  std::int64_t support_neg = 0;
};

struct GspanResult {
  std::vector<StaticMinedPattern> top;
  double best_score = -std::numeric_limits<double>::infinity();
  std::int64_t patterns_visited = 0;
  double elapsed_seconds = 0.0;
  bool timed_out = false;
};

/// Discriminative directed gSpan — the `Ntemp` baseline substrate.
///
/// The paper's Ntemp baseline "remove[s] all the temporal information in
/// the training data, appl[ies] existing algorithms [11] to mine
/// discriminative non-temporal graph patterns" (Section 6.1). We implement
/// the canonical-community equivalent from scratch: gSpan [31] DFS codes
/// extended to directed, edge-labeled simple graphs, rightmost-path
/// extension, minimality filtering for duplicate elimination, embedding
/// lists for support counting, and the same discriminative objective and
/// naive upper-bound pruning as the temporal miner.
class GspanMiner {
 public:
  GspanMiner(const GspanConfig& config,
             std::vector<const StaticGraph*> positives,
             std::vector<const StaticGraph*> negatives);
  GspanMiner(const GspanConfig& config,
             const std::vector<StaticGraph>& positives,
             const std::vector<StaticGraph>& negatives);

  GspanResult Mine();

 private:
  /// Embedding of the current code in one data graph: discovery id -> data
  /// node, injective.
  struct SEmbedding {
    std::vector<NodeId> nodes;
    friend bool operator==(const SEmbedding&, const SEmbedding&) = default;
    friend auto operator<=>(const SEmbedding& a, const SEmbedding& b) {
      return a.nodes <=> b.nodes;
    }
  };
  struct SGraphEmbeddings {
    std::int32_t graph = 0;
    std::vector<SEmbedding> embeds;
  };
  using SEmbeddingTable = std::vector<SGraphEmbeddings>;
  struct ChildBuckets {
    SEmbeddingTable pos;
    SEmbeddingTable neg;
  };
  struct EntryKey {
    DfsCodeEntry entry;
    // Bucketing order: plain lexicographic on fields (uniqueness only).
    friend bool operator<(const EntryKey& a, const EntryKey& b) {
      auto key = [](const DfsCodeEntry& e) {
        return std::make_tuple(e.from, e.to, e.along, e.from_label, e.elabel,
                               e.to_label);
      };
      return key(a.entry) < key(b.entry);
    }
  };

  double Dfs(const DfsCode& code, SEmbeddingTable pos_table,
             SEmbeddingTable neg_table);
  bool BudgetExhausted();
  void CollectExtensions(const DfsCode& code, const SEmbeddingTable& table,
                         const std::vector<const StaticGraph*>& graphs,
                         bool positive_side,
                         std::map<EntryKey, ChildBuckets>& out) const;
  void UpdateTop(const DfsCode& code, double freq_pos, double freq_neg,
                 double score, std::int64_t support_pos,
                 std::int64_t support_neg);
  void DedupeAndCap(SEmbeddingTable& table);

  GspanConfig config_;
  std::vector<const StaticGraph*> pos_graphs_;
  std::vector<const StaticGraph*> neg_graphs_;
  DiscriminativeScore score_;
  std::vector<StaticMinedPattern> top_;
  double best_score_;
  std::int64_t visited_ = 0;
  bool timed_out_ = false;
  std::chrono::steady_clock::time_point start_time_;
};

}  // namespace tgm

#endif  // TGM_NONTEMPORAL_GSPAN_H_
