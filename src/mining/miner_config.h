#ifndef TGM_MINING_MINER_CONFIG_H_
#define TGM_MINING_MINER_CONFIG_H_

#include <cstdint>
#include <string>

#include "matching/matcher.h"
#include "mining/score.h"

namespace tgm {

/// How residual graph set equivalence (Section 4.4) is decided.
enum class ResidualEquivAlgo {
  /// I-value integers (Lemma 6): constant-time comparison. TGMiner.
  kIValue,
  /// Materialized (graph, cut) lists compared element-wise — the
  /// LinearScan ablation baseline.
  kLinearScan,
};

/// Configuration of the mining engine. The six algorithms evaluated in
/// Figure 13 are all instances of this one engine (see the factory
/// functions below), so measured differences isolate each contribution.
struct MinerConfig {
  ScoreKind score_kind = ScoreKind::kLogRatio;
  double epsilon = 1e-6;

  /// Size of the largest patterns that are allowed to be explored
  /// (Figure 14's knob). Must be >= 1.
  int max_edges = 6;

  /// How many top-scoring patterns to retain in the result. Must be >= 1.
  /// Once the list is full, its k-th score is the one score cut of the
  /// naive bound and both structural prunes (see Miner).
  int top_k = 32;

  /// Naive upper-bound pruning (Section 4.1). All paper baselines use it.
  bool use_naive_bound = true;

  /// Subgraph pruning (Lemma 4).
  bool use_subgraph_pruning = true;

  /// Supergraph pruning (Proposition 2).
  bool use_supergraph_pruning = true;

  /// Temporal subgraph test algorithm used when discovering pruning
  /// opportunities.
  SubgraphTestAlgo subgraph_algo = SubgraphTestAlgo::kSequence;

  /// Residual graph set equivalence test algorithm.
  ResidualEquivAlgo residual_algo = ResidualEquivAlgo::kIValue;

  /// Optional minimum positive frequency. 0 disables the floor. Frequency
  /// is anti-monotone, so this is a sound additional prune; behaviour
  /// patterns of interest occur in (nearly) every positive run.
  double min_pos_freq = 0.0;

  /// Cap on stored embeddings per (pattern, data graph); 0 = unlimited.
  /// When hit, the embedding list is truncated deterministically and
  /// `MinerStats::embedding_cap_hits` is incremented (results may then be
  /// approximate; tests run uncapped).
  std::int64_t max_embeddings_per_graph = 0;

  /// Visit-order heuristic: explore higher-scoring candidates first so a
  /// good F* is found early (improves pruning; does not affect coverage).
  bool order_children_by_score = true;

  /// Threads for mining root subtrees concurrently. 1 = fully serial; 0 =
  /// all hardware threads. Threads take effect only with root_batch != 1:
  /// whole root subtrees then run as the indices of one fork-join pool
  /// call per batch (exec/fork_join.h), and with root_batch == 1 no
  /// thread is started at all. Ranked results and every MinerStats
  /// counter are bit-identical for every thread count and every run,
  /// because subtree inputs are fixed at batch start and commits happen in
  /// ascending root-bucket order.
  ///
  /// That holds provided the search runs to its natural end or a
  /// max_visited cap. A max_millis wall-clock cutoff truncates the search
  /// at a timing-dependent point, so timed-out runs may differ across
  /// thread counts (just as they may across repeated serial runs).
  int num_threads = 1;

  /// Number of root subtrees mined concurrently per batch. The root-level
  /// ChildWork buckets are independent subtrees of the pattern-space tree
  /// (Theorem 1), so they can be explored in parallel; each subtree in a
  /// batch runs the serial DFS on a pool thread with its own
  /// thread-local registry, top-k list, and stats, all seeded from a
  /// read-only snapshot of the state committed by earlier batches, and the
  /// per-subtree results are committed in ascending root-bucket order once
  /// the batch joins.
  ///
  /// 1 (default) is the fully serial search: each "batch" is one root
  /// whose snapshot contains every earlier root, which is precisely what
  /// the serial DFS dispatch sees, and num_threads is ignored. Values > 1
  /// trade pruning visibility for parallelism: subtrees in the same batch
  /// cannot see each other's registrations or top-k entries, so the search
  /// visits (somewhat) more patterns. The ranked result does not move: the
  /// one score cut only drops patterns that the same DFS with every prune
  /// off would not retain, so a completed search ranks the identical top-k
  /// (patterns, scores, order) for every root_batch. Only the MinerStats
  /// counters depend on it. For a fixed root_batch those counters are
  /// deterministic too: batch membership and snapshots depend only on root
  /// indices, never on timing, thread count, or which thread ran a root.
  ///
  /// 0 is the adaptive sentinel: batches are auto-sized from the
  /// root-bucket count and the resolved thread count (a few rounds, each
  /// with several roots per thread to level skew). Completed adaptive
  /// runs rank like every other root_batch; their counters are repeatable
  /// for a fixed (corpus, num_threads) pair. Truncated runs (max_visited or
  /// max_millis) stop at a batch-dependent point, so their ranked output
  /// is comparable only at a fixed root_batch.
  int root_batch = 1;

  /// Safety cap on visited patterns; 0 = unlimited.
  std::int64_t max_visited = 0;

  /// Wall-clock budget in milliseconds; 0 = unlimited. When exceeded the
  /// search stops and `MinerStats::timed_out` is set — the equivalent of
  /// the paper's two-day timeout that SupPrune hits on medium/large
  /// behaviours (Section 6.3).
  std::int64_t max_millis = 0;

  /// Presets reproducing the paper's six miners.
  static MinerConfig TGMiner();
  static MinerConfig SubPrune();    // subgraph pruning only
  static MinerConfig SupPrune();    // supergraph pruning only
  static MinerConfig PruneGI();     // all pruning, graph-index subtests
  static MinerConfig PruneVF2();    // all pruning, VF2 subtests
  static MinerConfig LinearScan();  // all pruning, linear residual tests

  /// Preset lookup by paper name (for benches); returns TGMiner for
  /// unknown names.
  static MinerConfig ByName(const std::string& name);
};

inline MinerConfig MinerConfig::TGMiner() { return MinerConfig{}; }

inline MinerConfig MinerConfig::SubPrune() {
  MinerConfig c;
  c.use_supergraph_pruning = false;
  return c;
}

inline MinerConfig MinerConfig::SupPrune() {
  MinerConfig c;
  c.use_subgraph_pruning = false;
  return c;
}

inline MinerConfig MinerConfig::PruneGI() {
  MinerConfig c;
  c.subgraph_algo = SubgraphTestAlgo::kGraphIndex;
  return c;
}

inline MinerConfig MinerConfig::PruneVF2() {
  MinerConfig c;
  c.subgraph_algo = SubgraphTestAlgo::kVf2;
  return c;
}

inline MinerConfig MinerConfig::LinearScan() {
  MinerConfig c;
  c.residual_algo = ResidualEquivAlgo::kLinearScan;
  return c;
}

inline MinerConfig MinerConfig::ByName(const std::string& name) {
  if (name == "SubPrune") return SubPrune();
  if (name == "SupPrune") return SupPrune();
  if (name == "PruneGI") return PruneGI();
  if (name == "PruneVF2") return PruneVF2();
  if (name == "LinearScan") return LinearScan();
  return TGMiner();
}

}  // namespace tgm

#endif  // TGM_MINING_MINER_CONFIG_H_
