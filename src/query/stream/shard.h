#ifndef TGM_QUERY_STREAM_SHARD_H_
#define TGM_QUERY_STREAM_SHARD_H_

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/mutex.h"
#include "query/stream/query_runtime.h"

namespace tgm {

/// An alert produced inside a shard, tagged with its batch position so the
/// engine can merge shard outputs into the canonical order. The member
/// order makes the defaulted comparison exactly the merge key
/// (event, query, interval).
struct ShardAlert {
  std::uint32_t event_index = 0;  ///< position of the event in its batch
  std::size_t query_index = 0;    ///< engine-global query index
  Interval interval;

  friend auto operator<=>(const ShardAlert&, const ShardAlert&) = default;
};

/// Label -> query seed-dispatch bitmaps: a query with no live partials can
/// only react to an event that seeds it, and seeding requires the event's
/// (edge label, source label) to be one of the plan's seed-dispatch keys
/// (the edge-0 labels, one pair per disjunctive label alternative — see
/// CompiledQueryPlan::SeedDispatchKeys, the shared source of truth with
/// SeedMatches). Per event the dispatcher looks up the two bitmap rows
/// once and tests the intersection bit per idle query — no expiry scan, no
/// index probe, no seed test. The decision is a pure per-query function of
/// the event, so skipping changes no alert or stat other than the
/// `seed_skips` counter itself.
///
/// Used over the *local* query slots of each StreamShard.
class SeedDispatchIndex {
 public:
  using Bitmap = std::vector<std::uint64_t>;
  /// The two bitmap rows of one event (null = no query seeds on that
  /// label, i.e. every idle query is skipped).
  struct Rows {
    const Bitmap* by_elabel = nullptr;
    const Bitmap* by_src_label = nullptr;
  };

  /// Clears and re-sizes for `query_count` queries; follow with Add per
  /// query.
  void Reset(std::size_t query_count) {
    words_ = (query_count + 63) / 64;
    by_elabel_.clear();
    by_src_label_.clear();
  }

  void Add(std::size_t query, const CompiledQueryPlan& plan) {
    auto set_bit = [&](std::unordered_map<LabelId, Bitmap>& map,
                       LabelId label) {
      Bitmap& bits = map[label];
      bits.resize(words_, 0);
      bits[query >> 6] |= std::uint64_t{1} << (query & 63);
    };
    // Derived from the plan's own dispatch keys — the same accept set as
    // SeedMatches — so label alternatives can never drift from the
    // predicate the dispatch is a necessary condition of.
    for (const auto& [elabel, src_label] : plan.SeedDispatchKeys()) {
      set_bit(by_elabel_, elabel);
      set_bit(by_src_label_, src_label);
    }
  }

  Rows Lookup(const StreamEvent& event) const {
    return Rows{RowFor(by_elabel_, event.elabel),
                RowFor(by_src_label_, event.src_label)};
  }

  /// Whether `query` could seed on the event the rows were looked up for.
  static bool Test(const Rows& rows, std::size_t query) {
    if (rows.by_elabel == nullptr || rows.by_src_label == nullptr) {
      return false;
    }
    const std::uint64_t bit = std::uint64_t{1} << (query & 63);
    return ((*rows.by_elabel)[query >> 6] & (*rows.by_src_label)[query >> 6] &
            bit) != 0;
  }

 private:
  static const Bitmap* RowFor(const std::unordered_map<LabelId, Bitmap>& map,
                              LabelId label) {
    auto it = map.find(label);
    return it == map.end() ? nullptr : &it->second;
  }

  std::unordered_map<LabelId, Bitmap> by_elabel_;
  std::unordered_map<LabelId, Bitmap> by_src_label_;
  std::size_t words_ = 0;
};

/// One worker shard of the round-robin stream engine: a disjoint subset of
/// the registered queries plus all of their live state. Every shard sees
/// the full event batch (events are broadcast; queries are partitioned),
/// so a query's state evolution is identical no matter how many shards the
/// engine runs — the root of the engine's shard-count determinism.
///
/// Idle queries are skipped per event via a SeedDispatchIndex over the
/// shard's local query slots; skips are counted per query
/// (`EngineQueryStats::seed_skips`). Deliberate trade: a skipped query
/// also skips its emitted-interval dedup pruning, so a query that goes
/// permanently idle retains its final window's worth of dedup entries —
/// a bounded, non-growing set; pruning it would require running Advance,
/// which is the cost the dispatch exists to avoid.
///
/// A shard is single-threaded by construction: the engine gives each
/// batch's ProcessBatch call to exactly one worker, and no state is shared
/// between shards. That confinement is a machine-checked contract: every
/// piece of shard state is TGM_GUARDED_BY(role()) and every accessor
/// requires the role, so any caller — the pool index that owns a batch,
/// or the engine reading stats between batches — must claim ownership
/// with a visible RoleGuard (base/mutex.h) for the code to compile under
/// Clang's thread-safety analysis.
class StreamShard {
 public:
  explicit StreamShard(const StreamLimits& limits) : limits_(limits) {}

  /// The shard's confinement capability; hold it (RoleGuard) to touch any
  /// shard state. Legitimate claimants: the worker running this shard's
  /// ProcessBatch, and the engine thread while no batch is in flight.
  const ThreadRole& role() const TGM_RETURN_CAPABILITY(role_) {
    return role_;
  }

  /// Registers a query under its engine-global index. Indexes must arrive
  /// in increasing order (the engine assigns round-robin). `window`
  /// overrides the shard-wide StreamLimits::window for this query;
  /// `constraints` are the query's timed-automata guards (a trivial value
  /// is the plain unconstrained query).
  void AddQuery(std::size_t global_index, const Pattern& query,
                Timestamp window, const TemporalConstraints& constraints)
      TGM_REQUIRES(role_) {
    StreamLimits limits = limits_;
    limits.window = window;
    queries_.emplace_back(global_index, query, constraints, limits);
    dispatch_dirty_ = true;
  }
  void AddQuery(std::size_t global_index, const Pattern& query,
                Timestamp window) TGM_REQUIRES(role_) {
    AddQuery(global_index, query, window, TemporalConstraints());
  }
  void AddQuery(std::size_t global_index, const Pattern& query)
      TGM_REQUIRES(role_) {
    AddQuery(global_index, query, limits_.window);
  }

  /// Feeds every event of `batch` (in order) to every query of this
  /// shard. `out` is replaced with the alerts, already sorted by
  /// (event_index, query_index, interval) because queries are advanced in
  /// ascending global order and each advance reports sorted intervals.
  void ProcessBatch(std::span<const StreamEvent> batch,
                    std::vector<ShardAlert>* out) TGM_REQUIRES(role_);

  const std::vector<QueryRuntime>& queries() const TGM_REQUIRES(role_) {
    return queries_;
  }
  std::int64_t events_processed() const TGM_REQUIRES(role_) {
    return events_processed_;
  }

  std::size_t PartialCount() const TGM_REQUIRES(role_) {
    std::size_t total = 0;
    for (const QueryRuntime& q : queries_) total += q.table().live();
    return total;
  }
  std::int64_t dropped_partials() const TGM_REQUIRES(role_) {
    std::int64_t total = 0;
    for (const QueryRuntime& q : queries_) total += q.dropped_partials();
    return total;
  }

  /// Structural validator: every query table's CheckInvariants, first
  /// violation reported with its query index ("" = all consistent).
  std::string CheckInvariants() const TGM_REQUIRES(role_) {
    for (const QueryRuntime& q : queries_) {
      if (std::string err = q.table().CheckInvariants(); !err.empty()) {
        return "query " + std::to_string(q.global_index()) + ": " + err;
      }
    }
    return std::string();
  }

 private:
  StreamLimits limits_;
  ThreadRole role_;
  std::vector<QueryRuntime> queries_ TGM_GUARDED_BY(role_);
  std::int64_t events_processed_ TGM_GUARDED_BY(role_) = 0;
  std::vector<Interval> scratch_ TGM_GUARDED_BY(role_);
  /// Seed-dispatch bitmaps over local query slots.
  SeedDispatchIndex seed_dispatch_ TGM_GUARDED_BY(role_);
  bool dispatch_dirty_ TGM_GUARDED_BY(role_) = false;
};

}  // namespace tgm

#endif  // TGM_QUERY_STREAM_SHARD_H_
