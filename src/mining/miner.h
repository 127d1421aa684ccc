#ifndef TGM_MINING_MINER_H_
#define TGM_MINING_MINER_H_

#include <atomic>
#include <chrono>
#include <memory>
#include <vector>

#include "exec/fork_join.h"
#include "matching/matcher.h"
#include "mining/arena.h"
#include "mining/miner_config.h"
#include "mining/node_seq.h"
#include "mining/registry.h"
#include "mining/result.h"
#include "temporal/pattern.h"
#include "temporal/residual.h"
#include "temporal/temporal_graph.h"

namespace tgm {

/// One match of the current pattern inside a data graph, reduced to what
/// growth needs: the node map and the position of the last matched edge.
/// Matches that agree on both behave identically for every future growth
/// step and for residual computation, so they are deduplicated. The node
/// map lives inline (NodeSeq), so embeddings are flat objects the dedupe
/// sort can compare without chasing pointers.
struct Embedding {
  NodeSeq nodes;      // pattern node -> data node
  EdgePos last = -1;  // position of the matched max-timestamp edge

  friend bool operator==(const Embedding&, const Embedding&) = default;
  friend auto operator<=>(const Embedding& a, const Embedding& b) {
    if (auto cmp = a.nodes <=> b.nodes; cmp != 0) return cmp;
    return a.last <=> b.last;
  }
};

/// All embeddings of the current pattern in one data graph.
struct GraphEmbeddings {
  std::int32_t graph = 0;  // index into the side's graph vector
  std::vector<Embedding> embeds;
};

/// Embeddings across one side (positive or negative); only graphs with at
/// least one embedding appear, in ascending graph order, so the entry count
/// is the pattern's support on that side.
using EmbeddingTable = std::vector<GraphEmbeddings>;

/// The discriminative temporal graph pattern miner (TGMiner and its five
/// ablation baselines, selected via MinerConfig).
///
/// Search: depth-first consecutive growth (Section 3) — every child pattern
/// appends one edge with timestamp |E|+1, grown forward / backward / inward
/// from the parent, so the pattern space is a tree (Theorem 1: complete, no
/// repetition) and no canonical labeling is ever needed.
///
/// Growth is driven by embedding lists: for each data graph the miner keeps
/// every (node map, last position) match of the current pattern; child
/// candidates are exactly the data edges at later positions touching the
/// mapped nodes, bucketed by extension key.
///
/// Pruning: the naive score upper bound (Section 4.1) plus subgraph pruning
/// (Lemma 4) and supergraph pruning (Proposition 2) against the registry of
/// already-explored patterns, with residual-set equivalence via I-values
/// (Lemma 6) or linear scans, and temporal subgraph tests via the
/// configured matcher. All three share one score cut: once the top-k list
/// is full, a branch whose bound is at most the k-th retained score is
/// cut. No pattern of such a branch could enter the list, so a completed
/// search ranks exactly the top-k the same DFS keeps with every prune off.
///
/// Parallelism: root subtrees (`MinerConfig::root_batch != 1` with
/// `num_threads > 1`). The root buckets are independent subtrees of the
/// pattern-space tree, mined in batches on a ForkJoinPool — one index per
/// root, claimed by whichever thread is free, so a thread that finishes an
/// easy subtree takes the next one instead of the batch joining on a fixed
/// split. Each root runs the serial DFS on its own WorkerState —
/// thread-local PatternRegistry, top-k list, MinerStats, subgraph tester,
/// and scratch — seeded from a read-only snapshot of the registry and
/// top-k list committed by earlier batches. When the batch joins, worker
/// results are committed in ascending root-bucket order: registries are
/// absorbed, top-k insertions are replayed, and stats are summed. Batch
/// membership and snapshots depend only on root indices — never on which
/// thread ran a subtree or when — so ranked output and every counter are
/// bit-identical for any thread count and any run.
///
/// root_batch == 1 (the default) is the serial search: each root's
/// snapshot holds every earlier root, which is what the serial DFS
/// dispatch sees, and no thread is started. root_batch == 0 auto-sizes
/// batches from the root count and thread count (see
/// MinerConfig::root_batch). A completed search ranks the same top-k for
/// every root_batch; only the counters depend on it. A max_millis
/// wall-clock budget truncates either mode at a timing-dependent point, so
/// timed-out runs may differ across thread counts (see
/// MinerConfig::num_threads).
class Miner {
 public:
  /// The graph pointers must outlive the miner. Graphs must be finalized
  /// and free of self-loops.
  Miner(const MinerConfig& config,
        std::vector<const TemporalGraph*> positives,
        std::vector<const TemporalGraph*> negatives);

  /// Convenience constructor over owned graph vectors.
  Miner(const MinerConfig& config, const std::vector<TemporalGraph>& positives,
        const std::vector<TemporalGraph>& negatives);

  /// Runs the search and returns the retained top patterns plus stats.
  MineResult Mine();

 private:
  struct ExtensionKey {
    NodeId src = kNewNode;  // existing pattern node id, or kNewNode
    NodeId dst = kNewNode;
    LabelId src_label = kInvalidLabel;  // used when src == kNewNode
    LabelId dst_label = kInvalidLabel;  // used when dst == kNewNode
    LabelId elabel = kNoEdgeLabel;

    friend bool operator==(const ExtensionKey&,
                           const ExtensionKey&) = default;
    friend auto operator<=>(const ExtensionKey&,
                            const ExtensionKey&) = default;
  };
  struct ChildBuckets {
    EmbeddingTable pos;
    EmbeddingTable neg;
  };
  /// One candidate child embedding tagged with its extension key — an entry
  /// of the flat per-graph extension stream that sort-then-group turns into
  /// buckets (the seed used a std::map per graph here).
  struct FlatExtension {
    ExtensionKey key;
    Embedding emb;
    /// Position in the generation order; sorting by (key, seq) reproduces a
    /// stable sort without its per-call temporary buffer.
    std::int32_t seq = 0;
  };
  /// One (extension key, side, graph) run of child embeddings.
  /// BuildChildren groups the run list into per-key ChildBuckets laid out
  /// exactly as the seed's std::map produced them, keeping ranked results
  /// bit-identical.
  struct KeyedEmbeds {
    ExtensionKey key;
    std::int32_t graph = 0;
    bool positive = true;
    std::vector<Embedding> embeds;
  };
  /// One child (or root) pattern's extension key, support buckets, and
  /// one-step score, ready for the DFS dispatch loop.
  struct ChildWork {
    ExtensionKey key;
    ChildBuckets buckets;
    double score = 0.0;
  };

  /// Per-subtree mining state. The DFS and every helper below it operate
  /// exclusively on one WorkerState, so a root subtree is a pure function
  /// of (its root bucket, the committed snapshot it was seeded from) and
  /// can run on any pool thread without locks. The serial search is the
  /// degenerate case of one worker per batch whose snapshot holds all
  /// earlier roots.
  struct WorkerState {
    /// Counters for this subtree only; committed via MinerStats::MergeFrom
    /// in ascending root order.
    MinerStats stats;
    /// Patterns registered while mining this subtree. Candidate scans
    /// consult `committed` first, then this — the exact registration order
    /// a serial run would have produced.
    PatternRegistry local;
    /// Read-only snapshot of the registries committed by earlier batches.
    /// Mutated only between batches, on the dispatching thread.
    const PatternRegistry* committed = nullptr;
    /// Top-k list seeded from the committed top and updated like the
    /// serial list. Once full, its k-th score is the worker's one score
    /// cut (CannotEnterTop): every entry precedes the current pattern in
    /// the serial visit order, so a cut against it never drops a pattern
    /// of the exact top-k, whatever the batch.
    std::vector<MinedPattern> top;
    /// Every successful UpdateTop insertion, in insertion order — the
    /// replay log for the deterministic commit (an insertion that a later
    /// sibling commit invalidates is simply skipped during replay).
    std::vector<MinedPattern> inserts;
    /// Patterns visited by committed batches when this batch started; the
    /// max_visited budget cut is committed + own, which is exact for
    /// root_batch == 1 and index-deterministic (siblings excluded) above.
    std::int64_t committed_visited = 0;
    /// BudgetExhausted call counter; the wall clock is read every 64 calls.
    std::int64_t budget_calls = 0;
    /// Subgraph tester for the pruning passes. Testers memoize (SeqMatcher
    /// caches per-argument reps), so they are per-worker, never shared.
    TemporalSubgraphTester* tester = nullptr;
    std::unique_ptr<TemporalSubgraphTester> owned_tester;
    /// Reused mark buffer for TrySubgraphPrune's condition-(3) check.
    std::vector<char> mapped_scratch;

    explicit WorkerState(ResidualEquivAlgo algo) : local(algo) {}
  };

  /// Merges key-sorted runs into per-key ChildWork items (scored, and
  /// score-ordered when config_.order_children_by_score). Consumes `runs`.
  std::vector<ChildWork> BuildChildren(std::vector<KeyedEmbeds>& runs) const;

  /// Mixes an extension key into the hash used by CollectGraphExtensions'
  /// open-addressing run table.
  static std::uint64_t HashKey(const ExtensionKey& key);

  /// Returns one WorkerState seeded from the committed snapshot (all
  /// workers of a batch get identical seeds; which root a worker mines is
  /// decided by the dispatch loop). `batch_size` decides whether the
  /// worker may share the miner's memoizing tester (only single-subtree
  /// batches can: nothing else runs concurrently).
  WorkerState MakeWorker(std::size_t batch_size);

  /// Returns a bound on the subtree rooted at `pattern`: the best score
  /// seen in it, raised to the naive bound of every pattern cut at
  /// max_edges, so that together with the k-th retained score it bounds
  /// the subtree at any size (what Lemma 4 needs of a reference).
  /// Consumes both tables: embeddings are moved into child buckets and the
  /// spent buffers are recycled through the scratch arena.
  double Dfs(WorkerState& ws, const Pattern& pattern,
             EmbeddingTable& pos_table, EmbeddingTable& neg_table);

  /// True if a visit/time budget has been exhausted (sets ws stats flags).
  bool BudgetExhausted(WorkerState& ws);

  /// Invokes `fn` over pruning candidates from the committed snapshot
  /// first, then the worker-local registry — the combined sequence is the
  /// single-registry order of a serial run. `fn` returns false to stop.
  template <typename Fn>
  void ForEachCandidate(
      const WorkerState& ws, std::int64_t pos_i_value,
      const std::vector<std::pair<std::int32_t, EdgePos>>& pos_cuts,
      std::int64_t* equiv_tests, Fn&& fn) const {
    bool stopped = false;
    auto wrapped = [&](const PatternRegistry::CandidateMeta& meta,
                       const RegisteredPattern& entry) {
      if (!fn(meta, entry)) {
        stopped = true;
        return false;
      }
      return true;
    };
    ws.committed->ForEachPosCandidate(pos_i_value, pos_cuts, equiv_tests,
                                      wrapped);
    if (stopped) return;
    ws.local.ForEachPosCandidate(pos_i_value, pos_cuts, equiv_tests,
                                 wrapped);
  }

  /// Resolves config_.root_batch against the actual root-bucket count:
  /// >= 1 is taken as-is, 0 auto-sizes from the thread count (see
  /// MinerConfig::root_batch).
  std::size_t ResolveRootBatch(std::size_t root_count) const;

  /// Appends one side's key-grouped extension runs to `out`, graphs in
  /// ascending order. Run order within a graph is first-encounter (hash
  /// probe) order, NOT key order — consumers must group through
  /// BuildChildren, whose key sort establishes the deterministic order.
  void CollectExtensions(const EmbeddingTable& table,
                         const std::vector<const TemporalGraph*>& graphs,
                         bool positive_side,
                         std::vector<KeyedEmbeds>& out) const;

  /// One data graph's contribution to CollectExtensions: one run per
  /// distinct extension key, runs in first-encounter order, embeddings
  /// within a run in the serial visit order.
  void CollectGraphExtensions(const GraphEmbeddings& ge,
                              const TemporalGraph& g,
                              std::vector<KeyedEmbeds>& out) const;

  /// Records `pattern` in the worker-local registry; materializes the
  /// residual cut lists only when the registry's equivalence algorithm
  /// actually stores them (the kLinearScan ablation), instead of copying
  /// them unconditionally.
  void RegisterEntry(WorkerState& ws, const Pattern& pattern,
                     const ResidualSet& pos_res, const ResidualSet& neg_res,
                     bool one_neg_embedding_per_cut, double branch_best);

  /// Returns every embedding buffer in `table` to the scratch arena and
  /// empties the table.
  static void ReleaseTable(EmbeddingTable& table);

  ResidualSet BuildResidual(const EmbeddingTable& table,
                            const std::vector<const TemporalGraph*>& graphs)
      const;

  Pattern Grow(const Pattern& parent, const ExtensionKey& key) const;

  /// Subgraph pruning (Lemma 4): cuts `pattern` against a registered
  /// supergraph g1 whose recorded branch best cannot enter the top-k. The
  /// lemma maps every growth of `pattern` onto the same growth of g1, which
  /// needs every positive embedding of `pattern` to extend to one of g1
  /// with the same cut. Equal residual sets only say that the cuts agree:
  /// an embedding of g1 ending at a cut restricts to an embedding of
  /// `pattern` ending there (at the earliest cut it cannot end earlier, so
  /// the mapping sends last edge to last edge). The caller adds that no
  /// two embeddings of `pattern` share a cut, so the restriction is the
  /// only one there. Sets *inherited_bound to g1's branch best.
  bool TrySubgraphPrune(WorkerState& ws, const Pattern& pattern,
                        const ResidualSet& pos_res, double* inherited_bound);
  /// Supergraph pruning (Proposition 2): cuts `pattern` against a
  /// registered subgraph g1 on the same nodes whose recorded branch best
  /// cannot enter the top-k. Mirroring Lemma 4, every negative embedding
  /// of g1 must extend to one of `pattern` with the same cut: the residual
  /// sets agree on both sides, and no two negative embeddings of g1 share
  /// a cut. Sets *inherited_bound to g1's branch best.
  bool TrySupergraphPrune(WorkerState& ws, const Pattern& pattern,
                          const ResidualSet& pos_res,
                          const ResidualSet& neg_res,
                          double* inherited_bound);

  /// The one score cut of the search, shared by the top-k insertions, the
  /// naive bound F(x, 0) (Section 4.1), and the reference branch bests of
  /// Lemma 4 and Proposition 2: true once `top` is full and `bound`, an
  /// upper bound on every score in a branch, cannot exceed the k-th
  /// retained score. UpdateTop would reject every pattern of such a
  /// branch, because the k-th score only rises, so cutting it leaves the
  /// ranked top-k of a completed search unchanged.
  bool CannotEnterTop(const std::vector<MinedPattern>& top,
                      double bound) const;

  void UpdateTop(WorkerState& ws, const Pattern& pattern, double freq_pos,
                 double freq_neg, double score, std::int64_t support_pos,
                 std::int64_t support_neg);

  /// Inserts `mined` into `top` unless it cannot enter (CannotEnterTop),
  /// keeping descending score order with ties in insertion order, and
  /// trims the list to top_k. Used by UpdateTop on a worker's list and by
  /// the commit replay on the committed one, so both rank alike.
  void InsertTop(std::vector<MinedPattern>& top, MinedPattern mined) const;

  /// Folds one finished worker into the committed state. Must be called in
  /// ascending root-bucket order — that order is the determinism contract.
  void CommitWorker(WorkerState& ws);

  /// Budget check between batches, on the committed state only.
  bool CommittedBudgetExhausted();

  /// Sort-unique-truncates every per-graph embedding list in `table`;
  /// returns the number of cap hits (callers fold it into stats).
  std::int64_t DedupeAndCap(EmbeddingTable& table) const;

  MinerConfig config_;
  std::vector<const TemporalGraph*> pos_graphs_;
  std::vector<const TemporalGraph*> neg_graphs_;

  DiscriminativeScore score_;
  /// Tester lent to single-subtree batches so the serial search keeps one
  /// warm memo across roots; multi-subtree batches build per-worker ones.
  std::unique_ptr<TemporalSubgraphTester> tester_;

  /// Committed state: everything below reflects exactly the root subtrees
  /// committed so far, is read-only while a batch is in flight, and is
  /// advanced by CommitWorker in ascending root order between batches.
  PatternRegistry registry_;
  /// stats_.patterns_visited doubles as the committed visit count that
  /// seeds WorkerState::committed_visited and gates the max_visited
  /// budget between batches.
  MinerStats stats_;
  std::vector<MinedPattern> top_;
  /// Latched by whichever worker observes the max_millis cutoff first so
  /// sibling subtrees stop promptly (truncation points are
  /// timing-dependent either way; see MinerConfig::num_threads).
  ///
  /// All accesses are memory_order_relaxed, deliberately: the flag is a
  /// pure go/stop signal that carries no data — no reader dereferences
  /// anything "published" by the writer, so no acquire/release pairing is
  /// needed, and a worker reading a stale false merely visits a few more
  /// patterns before stopping (the cutoff is timing-dependent anyway).
  /// Every result a worker produced before stopping is ordered with the
  /// main thread by the end of the batch's ForkJoinPool::Run (the pool's
  /// mutex), not by this flag.
  std::atomic<bool> timed_out_{false};
  std::chrono::steady_clock::time_point start_time_;
  /// Threads for batch subtrees: num_threads - 1 workers when root_batch
  /// != 1, else none (the serial path starts no thread). Declared last so
  /// the workers start after, and are joined before, the state they use.
  ForkJoinPool pool_;
};

}  // namespace tgm

#endif  // TGM_MINING_MINER_H_
