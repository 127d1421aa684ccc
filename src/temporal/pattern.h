#ifndef TGM_TEMPORAL_PATTERN_H_
#define TGM_TEMPORAL_PATTERN_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "temporal/common.h"
#include "temporal/label_dict.h"
#include "temporal/temporal_graph.h"

namespace tgm {

/// One edge of a temporal graph pattern. The timestamp is implicit: edge i
/// of the pattern has the aligned timestamp i+1 (Section 2: pattern
/// timestamps run 1..|E| and only the total order is kept).
struct PatternEdge {
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  LabelId elabel = kNoEdgeLabel;

  friend bool operator==(const PatternEdge&, const PatternEdge&) = default;
};

/// A T-connected temporal graph pattern in canonical form.
///
/// Canonical form: nodes are numbered by first appearance when edges are
/// traversed in temporal order (for each edge the source is visited before
/// the destination). Consecutive growth (Section 3.1) preserves this
/// numbering — a node added by forward/backward growth always receives id
/// `node_count()`. Together with Lemma 1 (the match between two patterns is
/// unique) this makes the member vectors a canonical labeling for free:
///
///   p1 =t p2  <=>  p1.labels == p2.labels && p1.edges == p2.edges
///
/// so pattern equality and hashing are linear-time (Lemma 2), and the DFS
/// over pattern space needs no gSpan-style minimality checks (Theorem 1).
class Pattern {
 public:
  /// Empty pattern (the DFS root).
  Pattern() = default;

  /// A single-edge pattern between two distinct nodes. A self-loop seed
  /// needs FromTemporalGraph on a one-node graph instead.
  static Pattern SingleEdge(LabelId src_label, LabelId dst_label,
                            LabelId elabel = kNoEdgeLabel);

  std::size_t node_count() const { return node_labels_.size(); }
  std::size_t edge_count() const { return edges_.size(); }
  bool empty() const { return edges_.empty(); }

  LabelId label(NodeId v) const {
    TGM_DCHECK(v >= 0 && static_cast<std::size_t>(v) < node_labels_.size());
    return node_labels_[static_cast<std::size_t>(v)];
  }
  const std::vector<LabelId>& labels() const { return node_labels_; }
  const std::vector<PatternEdge>& edges() const { return edges_; }
  const PatternEdge& edge(std::size_t i) const {
    TGM_DCHECK(i < edges_.size());
    return edges_[i];
  }

  /// Forward growth (Section 3.2): new edge from existing node `src` to a
  /// new node labeled `dst_label`. Returns the grown pattern.
  Pattern GrowForward(NodeId src, LabelId dst_label,
                      LabelId elabel = kNoEdgeLabel) const;

  /// Backward growth: new edge from a new node labeled `src_label` to
  /// existing node `dst`.
  Pattern GrowBackward(LabelId src_label, NodeId dst,
                       LabelId elabel = kNoEdgeLabel) const;

  /// Inward growth: new edge between two existing nodes (multi-edges and
  /// self-loops allowed).
  Pattern GrowInward(NodeId src, NodeId dst,
                     LabelId elabel = kNoEdgeLabel) const;

  /// The pattern with the last edge removed (the unique consecutive-growth
  /// parent, Lemma 3). Must not be called on an empty pattern.
  Pattern Parent() const;

  /// Out-/in-degree counting multi-edges.
  std::int32_t out_degree(NodeId v) const;
  std::int32_t in_degree(NodeId v) const;

  /// True if this pattern satisfies the canonical-form invariants:
  /// first-appearance node numbering and T-connectivity.
  bool IsCanonical() const;

  /// Converts the pattern to an equivalent TemporalGraph with timestamps
  /// 1..|E| (used by data-graph matchers and tests).
  TemporalGraph ToTemporalGraph() const;

  /// Canonicalizes an arbitrary T-connected temporal graph into a Pattern:
  /// timestamps are re-aligned to 1..|E| and nodes renumbered by first
  /// appearance. Returns nullopt if `g` is not T-connected.
  static std::optional<Pattern> FromTemporalGraph(const TemporalGraph& g);

  std::size_t Hash() const;
  friend bool operator==(const Pattern&, const Pattern&) = default;

  std::string ToString(const LabelDict* dict = nullptr) const;

 private:
  std::vector<LabelId> node_labels_;
  std::vector<PatternEdge> edges_;
};

/// Hash functor so patterns can key unordered containers.
struct PatternHash {
  std::size_t operator()(const Pattern& p) const { return p.Hash(); }
};

}  // namespace tgm

#endif  // TGM_TEMPORAL_PATTERN_H_
