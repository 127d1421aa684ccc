#ifndef TGM_MINING_REGISTRY_H_
#define TGM_MINING_REGISTRY_H_

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <utility>
#include <vector>

#include "mining/miner_config.h"
#include "temporal/pattern.h"
#include "temporal/residual.h"

namespace tgm {

/// A fully explored (or pruned-with-inherited-bound) pattern recorded for
/// later pruning-opportunity discovery.
struct RegisteredPattern {
  Pattern pattern;
  std::int64_t pos_i_value = 0;
  std::int64_t neg_i_value = 0;
  std::int32_t node_count = 0;
  std::int32_t edge_count = 0;
  /// Bound on this pattern's branch at any size: every pattern in it that
  /// could enter the top-k scores at most the larger of this value and the
  /// k-th retained score when it was recorded (see Miner::Dfs).
  double branch_best = 0.0;
  /// True if no two of this pattern's negative embeddings share a cut;
  /// Proposition 2 can only use references where it holds (see
  /// Miner::TrySupergraphPrune).
  bool one_neg_embedding_per_cut = false;
  /// Materialized residual cut lists — stored only under
  /// ResidualEquivAlgo::kLinearScan, where the equivalence test is a
  /// linear scan over these vectors (the LinearScan ablation).
  std::vector<std::pair<std::int32_t, EdgePos>> pos_cuts;
  std::vector<std::pair<std::int32_t, EdgePos>> neg_cuts;
};

/// Store of discovered patterns.
///
/// Under kIValue, entries are bucketed by the positive residual I-value so
/// pruning candidates are found by one hash lookup and each candidate's
/// residual-set equivalence check is a constant-time integer comparison
/// (Lemma 6). Under kLinearScan every lookup walks all entries and each
/// equivalence check compares the materialized cut lists element-wise.
///
/// The miner's pruning passes gate millions of candidates on a few scalar
/// fields before doing any real work, so those fields are mirrored in a
/// flat array parallel to the entry store; the gate scan stays
/// cache-resident and the full entry (pattern, cut lists) is only touched
/// for candidates that survive.
class PatternRegistry {
 public:
  /// The gate fields of one registered pattern, stored contiguously.
  struct CandidateMeta {
    double branch_best = 0.0;
    std::int64_t neg_i_value = 0;
    std::int32_t node_count = 0;
    std::int32_t edge_count = 0;
  };

  explicit PatternRegistry(ResidualEquivAlgo algo) : algo_(algo) {}

  void Add(RegisteredPattern entry);

  /// Appends every entry of `other` (which must use the same algorithm)
  /// after this registry's entries, preserving `other`'s registration
  /// order, and folds its I-value buckets in with rebased indices. `other`
  /// is left empty. This is the merge step of parallel root-subtree
  /// mining: each subtree records its patterns in a thread-local registry,
  /// and the registries are absorbed into the shared committed registry in
  /// ascending root-bucket order, so the combined entry order — and hence
  /// every later candidate scan — is identical to a serial run that mined
  /// the subtrees in that order.
  void Absorb(PatternRegistry&& other);

  /// Invokes `fn(meta, entry)` for every candidate whose positive residual
  /// set *may* equal one with I-value `pos_i_value`; `fn` returns false to
  /// stop early. `equiv_tests` is incremented once per candidate
  /// comparison. Callbacks should gate on `meta` (flat, hot) and touch
  /// `entry` only past the gates.
  ///
  /// Statically dispatched: this runs once per visited pattern with a
  /// capturing lambda, and a std::function callback would heap-allocate and
  /// indirect-call in that loop.
  template <typename Fn>
  void ForEachPosCandidate(
      std::int64_t pos_i_value,
      const std::vector<std::pair<std::int32_t, EdgePos>>& pos_cuts,
      std::int64_t* equiv_tests, Fn&& fn) const {
    if (algo_ == ResidualEquivAlgo::kIValue) {
      auto it = by_pos_i_.find(pos_i_value);
      if (it == by_pos_i_.end()) return;
      for (std::size_t idx : it->second) {
        ++*equiv_tests;  // one O(1) integer comparison per candidate
        if (!fn(meta_[idx], entries_[idx])) return;
      }
      return;
    }
    // LinearScan: walk everything, compare materialized cut lists.
    for (std::size_t idx = 0; idx < entries_.size(); ++idx) {
      ++*equiv_tests;
      if (entries_[idx].pos_cuts != pos_cuts) continue;
      if (!fn(meta_[idx], entries_[idx])) return;
    }
  }

  std::size_t size() const { return entries_.size(); }
  ResidualEquivAlgo algo() const { return algo_; }

 private:
  ResidualEquivAlgo algo_;
  std::deque<RegisteredPattern> entries_;
  /// Gate fields of entries_[i], contiguous for the candidate scans.
  std::vector<CandidateMeta> meta_;
  std::unordered_map<std::int64_t, std::vector<std::size_t>> by_pos_i_;
};

}  // namespace tgm

#endif  // TGM_MINING_REGISTRY_H_
