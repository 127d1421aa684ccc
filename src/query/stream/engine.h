#ifndef TGM_QUERY_STREAM_ENGINE_H_
#define TGM_QUERY_STREAM_ENGINE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "base/mutex.h"
#include "exec/fork_join.h"
#include "query/stream/shard.h"

namespace tgm {

/// Per-query snapshot row of EngineStats.
struct EngineQueryStats {
  std::size_t query_index = 0;
  /// The shard owning this query's whole state (query_index % num_shards).
  std::size_t shard = 0;
  std::size_t live_partials = 0;
  std::size_t peak_partials = 0;  ///< high-water mark of live partials
  std::size_t index_buckets = 0;  ///< occupied entity buckets
  std::int64_t dropped_partials = 0;  ///< backpressure evictions/drops
  /// New partials not stored because a live partial with the same
  /// identity dominates them (see PartialTable).
  std::int64_t collapsed_partials = 0;
  std::int64_t alerts = 0;
  /// Events this query never probed: it had no live partials and the
  /// seed-dispatch bitmap proved its edge-0 labels cannot match the event
  /// (see SeedDispatchIndex).
  std::int64_t seed_skips = 0;
};

/// A point-in-time snapshot of engine health; take it between events (the
/// engine is externally synchronized, see StreamEngine).
struct EngineStats {
  std::vector<EngineQueryStats> queries;  ///< ascending query_index
  /// Events processed per shard (every shard sees every event).
  std::vector<std::int64_t> shard_events;
  std::int64_t out_of_order_events = 0;
  std::size_t live_partials = 0;
  std::int64_t dropped_partials = 0;
  std::int64_t collapsed_partials = 0;
  std::int64_t alerts = 0;
  std::int64_t seed_skips = 0;  ///< total over queries (seed dispatch)
};

/// The online surveillance engine (Section 1: behaviour queries "applied
/// on the real-time monitoring data for surveillance and policy compliance
/// checking"):
///
/// - Queries are compiled once (CompiledQueryPlan); per-event work touches
///   only the partials the event's entity ids can extend (PartialTable's
///   entity-keyed index).
/// - Events are buffered into batches of `batch_size` and dispatched as
///   `std::span` views into a double buffer (the batch being processed and
///   the batch being filled are distinct vectors, swapped per batch — no
///   per-shard copy, allocation-free steady state).
/// - Queries are partitioned round-robin across shards and every shard
///   sees every event through one ForkJoinPool index per shard, so the
///   canonical (event, query index, interval) alert stream, drop
///   counters, and per-query stats are identical for every shard count
///   and batch size. One query never spans shards: a single hot
///   watch caps at one core; scaling comes from query count.
/// - Backpressure: per-query partial caps evict closest-to-death-first
///   with per-query drop accounting (StreamLimits::max_partials); an
///   EngineStats snapshot exposes live partials, index occupancy, drops,
///   and per-shard event counts.
///
/// The engine is externally synchronized: one caller feeds OnEvent/Flush
/// (internally it fans work out to its own workers). Alerts surface on the
/// OnEvent call that completes a batch, and on Flush for a partial batch;
/// with batch_size = 1 (the default) every OnEvent is synchronous.
///
/// Concurrency contract (machine-checked on Clang, see base/annotations.h):
/// the caller thread is the *sequencer* — the batching buffers are
/// TGM_GUARDED_BY(sequencer_role_), claimed by each public entry point for
/// its duration. Shard-owned state carries each shard's own role
/// capability: the pool index running a shard claims its RoleGuard for the
/// batch, and the sequencer claims shard roles only while no batch is in
/// flight. A shard body reaching into sequencer state (or vice versa)
/// does not type-check.
class StreamEngine {
 public:
  struct Options {
    /// Maximum allowed match span; also the partial-match expiry horizon.
    Timestamp window = 0;
    /// Per-query live-partial high-water mark (oldest-first eviction).
    std::size_t max_partials_per_query = 100000;
    /// Worker shards; <= 0 means all hardware threads. 1 runs inline with
    /// no worker threads.
    int num_shards = 1;
    /// Events per fan-out batch (>= 1). Larger batches amortize the
    /// per-batch dispatch at the cost of alert latency.
    std::size_t batch_size = 1;
  };

  using AlertSink = std::function<void(const StreamAlert&)>;

  explicit StreamEngine(const Options& options);

  StreamEngine(const StreamEngine&) = delete;
  StreamEngine& operator=(const StreamEngine&) = delete;

  /// Registers a behaviour query; returns its index in alerts. Must not be
  /// called while events are buffered (register queries up front, or Flush
  /// first).
  std::size_t AddQuery(const Pattern& query);

  /// Same, with a per-query expiry window overriding Options::window
  /// (0 = unbounded). Lets one engine host behaviour queries with
  /// different lifetimes — e.g. a Session's live watches, where every
  /// BehaviorQuery artifact carries its own mined window.
  std::size_t AddQuery(const Pattern& query, Timestamp window);

  /// Same, with the query's timed-automata guards (TemporalConstraints).
  /// The caller is responsible for `constraints.ValidateFor(query)` (the
  /// api layer does); a trivial value is exactly the unconstrained
  /// overload.
  std::size_t AddQuery(const Pattern& query, Timestamp window,
                       const TemporalConstraints& constraints);

  /// Feeds one event. Timestamps must be non-decreasing: a decreasing
  /// `ts` is clamped to the newest timestamp seen (so window expiry stays
  /// monotonic instead of silently corrupting) and counted in
  /// `out_of_order_events`. Invokes `sink` for every alert of the batch
  /// this event completes.
  void OnEvent(const StreamEvent& event, const AlertSink& sink);

  /// Processes any buffered partial batch (call at end of stream, or
  /// before reading stats that must include all fed events).
  void Flush(const AlertSink& sink);

  std::size_t query_count() const {
    RoleGuard seq(sequencer_role_);
    return query_count_;
  }
  int num_shards() const { return num_shards_; }

  /// True while a partial batch is buffered (fed events not yet
  /// processed). AddQuery is only legal when this is false; callers that
  /// want a recoverable error instead of the TGM_CHECK can test this
  /// first (Session does).
  bool has_buffered_events() const {
    RoleGuard seq(sequencer_role_);
    return !batch_.empty();
  }

  /// Number of live partial matches (all queries).
  std::size_t PartialCount() const;
  std::int64_t dropped_partials() const;
  std::int64_t out_of_order_events() const {
    RoleGuard seq(sequencer_role_);
    return out_of_order_events_;
  }

  EngineStats Stats() const;

  /// Full-engine structural validator ("" = consistent, else the first
  /// violation): every shard table's PartialTable::CheckInvariants plus
  /// the broadcast identity (every shard processed the same event count).
  /// Run automatically at every batch boundary when built with
  /// -DTGMINER_CHECK_INVARIANTS=ON; callable any time between events.
  std::string CheckInvariants();

 private:
  void ProcessBatch(const AlertSink& sink) TGM_REQUIRES(sequencer_role_);
  /// CheckInvariants body; split out so the ProcessBatch tail (which
  /// already holds the sequencer role) can run it without re-acquiring.
  std::string CheckInvariantsInternal() TGM_REQUIRES(sequencer_role_);

  Options options_;
  StreamLimits limits_;
  int num_shards_ = 1;

  /// The sequencer capability: stands for "I am the externally
  /// synchronized caller thread". Every public entry point claims it with
  /// a RoleGuard for its duration; the pool's shard bodies never hold it,
  /// so code running on a worker cannot touch the guarded members below
  /// (it would not compile under Clang's analysis).
  ThreadRole sequencer_role_;

  std::size_t query_count_ TGM_GUARDED_BY(sequencer_role_) = 0;

  // Batching state.
  /// Filling side of the double buffer.
  std::vector<StreamEvent> batch_ TGM_GUARDED_BY(sequencer_role_);
  /// Processing side (span target).
  std::vector<StreamEvent> active_ TGM_GUARDED_BY(sequencer_role_);
  std::vector<ShardAlert> merged_ TGM_GUARDED_BY(sequencer_role_);
  bool any_event_ TGM_GUARDED_BY(sequencer_role_) = false;
  Timestamp last_ts_ TGM_GUARDED_BY(sequencer_role_) = 0;
  std::int64_t out_of_order_events_ TGM_GUARDED_BY(sequencer_role_) = 0;

  // Shard state. The containers themselves are structurally immutable
  // after the constructor (no guard needed to index them); the *elements*
  // are confined — each StreamShard's state by its own role capability,
  // each shard_alerts_ slot by the convention that only the worker running
  // that shard's batch writes it.
  std::vector<StreamShard> shards_;
  std::vector<std::vector<ShardAlert>> shard_alerts_;  // per-shard outbox
  /// num_shards - 1 workers (none with one shard: batches run inline).
  /// Declared last so the workers are joined before the shards die.
  ForkJoinPool pool_;
};

}  // namespace tgm

#endif  // TGM_QUERY_STREAM_ENGINE_H_
