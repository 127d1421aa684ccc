#ifndef TGM_QUERY_STREAM_PARTIAL_TABLE_H_
#define TGM_QUERY_STREAM_PARTIAL_TABLE_H_

#include <cstdint>
#include <limits>
#include <queue>
#include <span>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "temporal/common.h"

namespace tgm {

struct PartialTableTestPeer;

/// Storage for one query's live partial matches, organised for O(touched)
/// per-event work instead of O(live):
///
/// - **Slot arena.** Partial metadata lives in a flat slot vector and all
///   bindings in one `slots x node_count` array (every partial of a query
///   has the same binding width), so steady-state insert/remove recycles
///   slots and never allocates.
/// - **Entity-keyed index.** Each partial is filed under the concrete
///   entity its next unmatched edge requires: the bound source entity if
///   the transition's source slot is bound, else the bound destination
///   entity. Patterns are T-connected and a stored partial always waits on
///   edge >= 1, so one of the two is always bound. The index is one
///   role-agnostic entity -> bucket map, so an event probes exactly
///   `by_entity[event.src] ∪ by_entity[event.dst]`: the only partials that
///   can possibly extend, instead of a scan of all of them. When the event
///   is a self-loop (src == dst) the two probes name the *same* bucket;
///   ForEachExtendable dedups at the bucket level so no partial is ever
///   probed twice (a naive two-sided probe would double-extend every
///   partial in that bucket).
/// - **Expiry order.** A min-heap keyed by (expiry, first_ts, insertion
///   seq) drives both expiry (pop while `expiry < now`) and backpressure
///   eviction (pop the top), replacing the full compaction scan the old
///   monitor ran per event. The expiry timestamp is computed by the
///   caller per partial — the window horizon for a plain query, tightened
///   by the max-gap / since-seed guard deadlines for a constrained one
///   (see QueryRuntime), which is how dead constrained partials leave the
///   table long before the window would reclaim them. For an
///   unconstrained query every expiry is `first_ts + window` (or
///   kNeverExpires), so the heap order collapses to the historical
///   (first_ts, seq) age order and both expiry and eviction behave
///   bit-identically to the pre-constraint table. Partials are only ever
///   removed through this heap, so it needs no lazy deletion.
/// - **Duplicate collapse.** A partial's identity is (next edge, first_ts,
///   binding). On a *collapsing* next edge, one whose transition has no
///   max_gap, Insert drops a newcomer whose identity a live partial has:
///   events arrive in timestamp order, so the live one's `last_ts` is no
///   later; it passes every min_gap test the newcomer would, expires at
///   the same time, and yields the same children and completions. Equal
///   identities file under one key, so only the target bucket is scanned.
///
/// Bucket iteration order is insertion order (swap-removal perturbs it
/// deterministically), so every operation is a pure function of the event
/// history — the basis of the engine's cross-shard determinism.
class PartialTable {
 public:
  /// Expiry value of a partial nothing can ever expire.
  static constexpr Timestamp kNeverExpires =
      std::numeric_limits<Timestamp>::max();

  /// `collapsing[k]` marks next edge k as collapsing (edges past its end
  /// are not). Insert evicts to keep at most `max_live` partials.
  explicit PartialTable(
      std::size_t node_count, std::vector<bool> collapsing = {},
      std::size_t max_live = std::numeric_limits<std::size_t>::max())
      : node_count_(node_count),
        collapsing_(std::move(collapsing)),
        max_live_(max_live) {}

  std::size_t live() const { return live_; }
  /// High-water mark of live partials.
  std::size_t peak() const { return peak_; }
  /// Newcomers evicted for, or dropped at, the `max_live` cap.
  std::int64_t dropped() const { return dropped_; }
  /// Newcomers not stored because a live partial had their identity.
  std::int64_t collapsed() const { return collapsed_; }
  /// Occupied entity buckets.
  std::size_t bucket_count() const { return by_entity_.size(); }

  std::span<const std::int64_t> binding(std::uint32_t slot) const {
    return {bindings_.data() + slot * node_count_, node_count_};
  }
  std::uint32_t next_edge(std::uint32_t slot) const {
    return meta_[slot].next_edge;
  }
  Timestamp first_ts(std::uint32_t slot) const { return meta_[slot].first_ts; }
  /// Timestamp of the partial's most recently matched edge (the reference
  /// point of the next transition's gap guard).
  Timestamp last_ts(std::uint32_t slot) const { return meta_[slot].last_ts; }

  /// Invokes `fn(slot)` for every partial an event (src_entity,
  /// dst_entity) can possibly extend, in the deterministic probe order
  /// (src-entity bucket, then dst-entity bucket). The dst probe is
  /// skipped when both entities name the same bucket (self-loop events) —
  /// the probe-dedup that keeps a partial from being extended twice by
  /// one event. `fn` must not mutate the table (extensions are deferred
  /// by the callers).
  template <typename Fn>
  void ForEachExtendable(std::int64_t src_entity, std::int64_t dst_entity,
                         Fn&& fn) const {
    auto src_it = by_entity_.find(src_entity);
    if (src_it != by_entity_.end()) {
      for (std::uint32_t slot : src_it->second) fn(slot);
    }
    if (dst_entity != src_entity) {
      auto dst_it = by_entity_.find(dst_entity);
      if (dst_it != by_entity_.end()) {
        for (std::uint32_t slot : dst_it->second) fn(slot);
      }
    }
  }

  /// Files a new partial unless it collapses (counted in collapsed());
  /// `binding` must have node_count entries. `key` is the entity the
  /// *next* transition requires (see RouteForNextEdge). `expiry` is the
  /// stream time at which the partial becomes dead (kNeverExpires = only
  /// eviction can remove it). At the `max_live` cap it first evicts
  /// (EvictOldest); a zero cap drops the newcomer. Both count in dropped().
  void Insert(std::span<const std::int64_t> binding, std::uint32_t next_edge,
              Timestamp first_ts, Timestamp last_ts, Timestamp expiry,
              std::int64_t key);

  /// Removes every partial whose expiry precedes `now` (window expiry and
  /// guard-deadline expiry in one pass; a partial with expiry == now can
  /// still extend on an event at `now` and stays).
  void ExpireAt(Timestamp now);

  /// Removes the partial closest to death — smallest (expiry, first_ts,
  /// insertion seq); for unconstrained queries this is exactly the oldest
  /// partial. Requires live() > 0.
  void EvictOldest();

  /// Structural validator (base/invariants.h): returns "" when the
  /// representation is consistent, else a description of the first
  /// violated invariant. Checked relations: binding-arena and free-list
  /// bounds; live count == allocated − free == Σ bucket sizes; every
  /// bucket entry's meta (key, bucket_pos) points back at its
  /// bucket; no empty entity buckets; no two live partials on a collapsing
  /// edge share an identity; the age heap covers exactly the live slots.
  std::string CheckInvariants() const;

 private:
  friend struct PartialTableTestPeer;
  struct Meta {
    std::uint32_t next_edge = 0;
    Timestamp first_ts = 0;
    Timestamp last_ts = 0;
    std::int64_t key = 0;
    std::uint32_t bucket_pos = 0;
    std::uint64_t seq = 0;
  };
  // (expiry, first_ts, insertion seq, slot); first_ts keeps eviction
  // oldest-first within equal expiries (and therefore globally for
  // unconstrained queries, where expiry is first_ts plus a constant);
  // seq makes the order total and deterministic under ties.
  using AgeKey =
      std::tuple<Timestamp, Timestamp, std::uint64_t, std::uint32_t>;

  void Remove(std::uint32_t slot);
  bool Collapses(std::uint32_t next_edge) const {
    return next_edge < collapsing_.size() && collapsing_[next_edge];
  }

  std::size_t node_count_;
  std::vector<bool> collapsing_;
  std::size_t max_live_;
  std::vector<Meta> meta_;
  std::vector<std::int64_t> bindings_;  // slots x node_count_
  std::vector<std::uint32_t> free_slots_;
  /// Role-agnostic entity -> bucket index.
  std::unordered_map<std::int64_t, std::vector<std::uint32_t>> by_entity_;
  std::priority_queue<AgeKey, std::vector<AgeKey>, std::greater<AgeKey>>
      by_age_;
  std::size_t live_ = 0;
  std::size_t peak_ = 0;
  std::int64_t dropped_ = 0;
  std::int64_t collapsed_ = 0;
  std::uint64_t next_seq_ = 0;
};

}  // namespace tgm

#endif  // TGM_QUERY_STREAM_PARTIAL_TABLE_H_
