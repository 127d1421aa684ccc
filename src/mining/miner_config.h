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

  /// How many top-scoring patterns to retain in the result.
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

  /// Stop exploring a branch once the retained top-k is full and the
  /// branch's upper bound cannot *exceed* the k-th best score (it could
  /// only add more ties). On cleanly separable data the log-ratio score
  /// has large tie plateaus of "perfect" patterns, and query formulation
  /// only needs top_k of them; this cuts those plateaus. Off by default to
  /// preserve the paper-exact search semantics measured in Figure 13.
  bool stop_at_top_k_ties = false;

  /// Order of pruning-condition evaluation. The paper evaluates the
  /// lemmas' structural conditions first — residual equivalence, then the
  /// temporal subgraph test, then the label condition — and gates the
  /// actual prune on the reference branch's best score last (Section 4.2;
  /// its reported overheads, 70M subgraph tests and 400M residual tests
  /// for sshd-login, only arise in this order). Setting this flag checks
  /// the cheap score gate first instead, skipping the expensive tests on
  /// unusable references — a practical speedup used by the accuracy
  /// pipeline, at the cost of no longer measuring the paper's overheads.
  bool check_reference_score_first = false;

  /// Threads for mining root subtrees concurrently. 1 = fully serial; 0 =
  /// all hardware threads. Threads take effect only with root_batch != 1:
  /// whole root subtrees then run as stealable tasks on a steal-capable
  /// scheduler (exec/work_stealing.h), and with root_batch == 1 no
  /// scheduler is created at all. Ranked results and every MinerStats
  /// counter are bit-identical for every thread count and steal schedule,
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
  /// batch runs the serial DFS on a scheduler thread with its own
  /// thread-local registry, top-k list, and stats, all seeded from a
  /// read-only snapshot of the state committed by earlier batches, and the
  /// per-subtree results are committed in ascending root-bucket order once
  /// the batch joins.
  ///
  /// 1 (default) is the fully serial search: each "batch" is one root
  /// whose snapshot contains every earlier root, which is precisely what
  /// the serial DFS dispatch sees, and num_threads is ignored. Values > 1
  /// trade pruning visibility for parallelism: subtrees in the same batch
  /// cannot see each other's registrations or best scores, so the search
  /// explores (somewhat) more patterns and its ranked tail may cut score
  /// ties differently than root_batch=1 — the maximum score is preserved
  /// either way (the pruning rules are sound under any registry subset,
  /// Theorem 2). For a fixed root_batch the search is deterministic: batch
  /// membership and snapshots depend only on root indices, never on
  /// timing, thread count, or steal order. Keep it an explicit constant
  /// when comparing runs across machines.
  ///
  /// 0 is the adaptive sentinel: batches are auto-sized from the
  /// root-bucket count and the resolved thread count (a few rounds,
  /// oversubscribed so steals level skew). Adaptive runs are repeatable
  /// for a fixed (corpus, num_threads) pair, but because the derived
  /// batch size changes with the thread count, results are comparable
  /// across thread counts only in best score, not in ranked tail —
  /// measure with explicit values, deploy with 0.
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
