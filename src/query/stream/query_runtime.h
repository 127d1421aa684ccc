#ifndef TGM_QUERY_STREAM_QUERY_RUNTIME_H_
#define TGM_QUERY_STREAM_QUERY_RUNTIME_H_

#include <cstdint>
#include <set>
#include <span>
#include <vector>

#include "query/stream/compiled_plan.h"
#include "query/stream/event.h"
#include "query/stream/partial_table.h"
#include "temporal/constraints.h"

namespace tgm {

/// Sentinel for a query-node slot no entity is bound to yet.
inline constexpr std::int64_t kUnboundEntity = -1;

/// Per-query limits shared by every runtime of an engine.
struct StreamLimits {
  /// Maximum allowed match span; also the partial-match expiry horizon
  /// (0 = unbounded). A query deadline (TemporalConstraints) tightens this
  /// per query to min(window, deadline).
  Timestamp window = 0;
  /// High-water mark on live partials per query. When a new partial would
  /// exceed it, the live partial closest to death (earliest expiry, then
  /// smallest first_ts, then insertion order — exactly the oldest partial
  /// for an unconstrained query) is evicted to make room, and the query's
  /// drop counter increments.
  std::size_t max_partials = 100000;
  /// Disable to file every partial under the wildcard bucket — the legacy
  /// full-scan path, kept as the bench baseline.
  bool entity_index = true;
  /// When set (default), a constrained query's max-gap / since-seed guards
  /// tighten each partial's expiry below the window horizon, so provably
  /// dead partials leave the table early. Disabling falls back to
  /// window-only expiry — guards are still *checked* on extension, so the
  /// alert stream is identical either way; only peak live partials differ
  /// (the bench's comparison knob). No effect on unconstrained queries.
  bool guard_expiry = true;
};

/// --- Transition semantics ---------------------------------------------
///
/// What an event does to a partial, as free functions over a compiled
/// plan: QueryRuntime (below) calls them per partial, and they are the
/// seams any other executor of the same plans must reuse so the
/// match/guard/routing logic has a single definition.

/// Outcome of testing one live partial against one event.
enum class ExtendOutcome : std::uint8_t {
  kReject,    ///< Event cannot extend this partial.
  kComplete,  ///< Event matches the final edge — a full match.
  kExtend,    ///< Event matches; the partial grows by one edge.
};

/// Pure filter: can `event` match transition `next_edge` of `plan` given
/// the partial's binding and timestamps? Applies the label/self-loop
/// tests, the timed-automata guards (min/max gap, since-seed bounds),
/// bound-entity equality, label checks and injectivity for newly bound
/// entities, and the effective-window span check — in exactly that order.
/// `window` is the query's effective window (0 = unbounded). Seeds are
/// not handled here (see CompiledQueryPlan::SeedMatches).
ExtendOutcome MatchTransition(const CompiledQueryPlan& plan, Timestamp window,
                              const StreamEvent& event,
                              std::uint32_t next_edge,
                              std::span<const std::int64_t> binding,
                              Timestamp first_ts, Timestamp last_ts);

/// Writes the binding of the partial produced by matching `matched_edge`
/// with `event` on top of `base` (empty span = seed, all slots unbound).
/// `out` must have plan.node_count() entries.
void FillExtendedBinding(const CompiledQueryPlan& plan,
                         std::uint32_t matched_edge,
                         std::span<const std::int64_t> base,
                         const StreamEvent& event,
                         std::span<std::int64_t> out);

/// Where a partial waiting on `next_edge` files in a PartialTable: under
/// the concrete entity its next transition requires, or the wildcard
/// bucket when neither endpoint is bound.
struct PartialRoute {
  PartialTable::Role role = PartialTable::Role::kWildcard;
  std::int64_t key = 0;
};
PartialRoute RouteForNextEdge(const CompiledQueryPlan& plan,
                              std::uint32_t next_edge,
                              std::span<const std::int64_t> binding);

/// The stream time at which a partial waiting on `next_edge` with the
/// given timestamps becomes provably dead: the window horizon, tightened
/// (under `guard_expiry`, for constrained plans) by the next transition's
/// max_gap and the suffix-min seed horizon of the remaining transitions.
Timestamp ComputePartialExpiry(const CompiledQueryPlan& plan,
                               Timestamp window, bool guard_expiry,
                               std::uint32_t next_edge, Timestamp first_ts,
                               Timestamp last_ts);

/// One registered behaviour query's live state: compiled plan (with any
/// timed-automata guards baked in), the entity-indexed partial table, and
/// the emitted-interval dedup set.
///
/// `Advance` preserves the original scan-everything monitor semantics
/// exactly — expiry before extension, in-place extension with a pending
/// list (an extension is never re-extended by the event that created it),
/// strict injectivity, window check on the extended span, one alert per
/// distinct interval — while touching only the partials the event's
/// entities can extend. Constraint guards are enforced at the same point as the window
/// check (a guarded extension simply rejects), so a trivial
/// TemporalConstraints is bit-identical to the unconstrained path.
/// Completions are reported sorted by interval, which makes the per-event
/// alert order a pure function of the event history (the engine's
/// canonical (ts, query, interval) order).
class QueryRuntime {
 public:
  QueryRuntime(std::size_t global_index, const Pattern& query,
               const StreamLimits& limits)
      : QueryRuntime(global_index, query, TemporalConstraints(), limits) {}
  QueryRuntime(std::size_t global_index, const Pattern& query,
               const TemporalConstraints& constraints,
               const StreamLimits& limits)
      : global_index_(global_index),
        plan_(query, constraints),
        limits_(limits),
        window_(plan_.EffectiveWindow(limits.window)),
        table_(plan_.node_count(), limits.entity_index) {}

  std::size_t global_index() const { return global_index_; }
  const CompiledQueryPlan& plan() const { return plan_; }
  const PartialTable& table() const { return table_; }
  /// The span bound actually enforced: the engine window folded with the
  /// query's deadline (0 = unbounded).
  Timestamp effective_window() const { return window_; }
  std::int64_t dropped_partials() const { return dropped_partials_; }
  std::int64_t alerts() const { return alerts_; }
  std::int64_t seed_skips() const { return seed_skips_; }

  /// Records that the shard's seed dispatch skipped this (idle) query for
  /// one event (see StreamShard).
  void CountSeedSkip() { ++seed_skips_; }

  /// Feeds one event; appends every newly completed (distinct) match
  /// interval to `completions`, sorted ascending.
  void Advance(const StreamEvent& event, std::vector<Interval>* completions);

 private:
  static constexpr std::int64_t kUnbound = kUnboundEntity;

  void TryExtend(const StreamEvent& event, std::uint32_t slot,
                 std::vector<Interval>* completions);
  void TrySeed(const StreamEvent& event, std::vector<Interval>* completions);
  void Complete(Interval interval, std::vector<Interval>* completions);
  void QueuePending(std::span<const std::int64_t> base_binding,
                    const StreamEvent& event, std::uint32_t matched_edge,
                    Timestamp first_ts);
  void InsertPending();

  std::size_t global_index_;
  CompiledQueryPlan plan_;
  StreamLimits limits_;
  Timestamp window_;
  PartialTable table_;
  /// Dedup of emitted alert intervals, ordered by (begin, end): lookup and
  /// insert are one O(log) probe, window expiry erases the ordered front.
  std::set<Interval> emitted_;
  std::int64_t dropped_partials_ = 0;
  std::int64_t alerts_ = 0;
  std::int64_t seed_skips_ = 0;
  // Scratch reused across events (capacity persists, no steady-state
  // allocation).
  struct PendingMeta {
    std::uint32_t next_edge = 0;
    Timestamp first_ts = 0;
    Timestamp last_ts = 0;
  };
  std::vector<PendingMeta> pending_;
  std::vector<std::int64_t> pending_bindings_;  // pending_ x node_count
};

}  // namespace tgm

#endif  // TGM_QUERY_STREAM_QUERY_RUNTIME_H_
