#include "query/stream/query_runtime.h"

#include <algorithm>

namespace tgm {

namespace {

/// first + horizon, saturating at PartialTable::kNeverExpires (both
/// non-negative).
Timestamp SaturatingExpiry(Timestamp base, Timestamp horizon) {
  if (base > PartialTable::kNeverExpires - horizon) {
    return PartialTable::kNeverExpires;
  }
  return base + horizon;
}

}  // namespace

ExtendOutcome MatchTransition(const CompiledQueryPlan& plan, Timestamp window,
                              const StreamEvent& event,
                              std::uint32_t next_edge,
                              std::span<const std::int64_t> binding,
                              Timestamp first_ts, Timestamp last_ts) {
  const PlanTransition& t = plan.transition(next_edge);
  if (!t.AcceptsLabel(event.elabel)) return ExtendOutcome::kReject;
  if (t.self_loop != (event.src_entity == event.dst_entity)) {
    return ExtendOutcome::kReject;
  }
  // Timed-automata guards. Stored partials always wait on edge >= 1, so
  // last_ts / first_ts are well-defined references; trivial guards (the
  // unconstrained case) accept everything here.
  const Timestamp gap = event.ts - last_ts;
  if (gap < t.min_gap) return ExtendOutcome::kReject;
  if (t.max_gap != kNoGapLimit && gap > t.max_gap) {
    return ExtendOutcome::kReject;
  }
  const Timestamp since_seed = event.ts - first_ts;
  if (since_seed < t.min_since_seed) return ExtendOutcome::kReject;
  if (t.max_since_seed != kNoGapLimit && since_seed > t.max_since_seed) {
    return ExtendOutcome::kReject;
  }

  const std::int64_t bound_src =
      t.src_bound ? binding[static_cast<std::size_t>(t.src)] : kUnboundEntity;
  const std::int64_t bound_dst =
      t.dst_bound ? binding[static_cast<std::size_t>(t.dst)] : kUnboundEntity;
  if (bound_src != kUnboundEntity && bound_src != event.src_entity) {
    return ExtendOutcome::kReject;
  }
  if (bound_dst != kUnboundEntity && bound_dst != event.dst_entity) {
    return ExtendOutcome::kReject;
  }
  // Canonical numbering makes the bound slots exactly [0, t.bound_nodes),
  // so injectivity only needs to scan that prefix.
  std::span<const std::int64_t> bound = binding.first(t.bound_nodes);
  if (bound_src == kUnboundEntity) {
    if (event.src_label != t.src_label) return ExtendOutcome::kReject;
    // Injectivity: the new entity must not already be bound elsewhere.
    if (std::find(bound.begin(), bound.end(), event.src_entity) !=
        bound.end()) {
      return ExtendOutcome::kReject;
    }
  }
  if (bound_dst == kUnboundEntity && !t.self_loop) {
    if (event.dst_label != t.dst_label) return ExtendOutcome::kReject;
    if (std::find(bound.begin(), bound.end(), event.dst_entity) !=
        bound.end()) {
      return ExtendOutcome::kReject;
    }
    if (bound_src == kUnboundEntity && event.src_entity == event.dst_entity) {
      return ExtendOutcome::kReject;
    }
  }

  if (window > 0 && since_seed > window) return ExtendOutcome::kReject;
  return next_edge + 1 == plan.edge_count() ? ExtendOutcome::kComplete
                                            : ExtendOutcome::kExtend;
}

void FillExtendedBinding(const CompiledQueryPlan& plan,
                         std::uint32_t matched_edge,
                         std::span<const std::int64_t> base,
                         const StreamEvent& event,
                         std::span<std::int64_t> out) {
  TGM_DCHECK(out.size() == plan.node_count());
  if (base.empty()) {
    std::fill(out.begin(), out.end(), kUnboundEntity);
  } else {
    std::copy(base.begin(), base.end(), out.begin());
  }
  const PlanTransition& t = plan.transition(matched_edge);
  out[static_cast<std::size_t>(t.src)] = event.src_entity;
  out[static_cast<std::size_t>(t.dst)] = event.dst_entity;
}

std::int64_t RouteForNextEdge(const CompiledQueryPlan& plan,
                              std::uint32_t next_edge,
                              std::span<const std::int64_t> binding) {
  const PlanTransition& t = plan.transition(next_edge);
  const std::int64_t src = binding[static_cast<std::size_t>(t.src)];
  if (src != kUnboundEntity) return src;
  const std::int64_t dst = binding[static_cast<std::size_t>(t.dst)];
  TGM_DCHECK(dst != kUnboundEntity);
  return dst;
}

std::vector<bool> CollapsingEdges(const CompiledQueryPlan& plan) {
  std::vector<bool> collapsing(plan.edge_count());
  for (std::size_t k = 0; k < collapsing.size(); ++k) {
    collapsing[k] = plan.transition(k).max_gap == kNoGapLimit;
  }
  return collapsing;
}

Timestamp ComputePartialExpiry(const CompiledQueryPlan& plan,
                               Timestamp window, std::uint32_t next_edge,
                               Timestamp first_ts, Timestamp last_ts) {
  Timestamp expiry = window > 0 ? SaturatingExpiry(first_ts, window)
                                : PartialTable::kNeverExpires;
  if (plan.constrained()) {
    const PlanTransition& t = plan.transition(next_edge);
    // The very next edge must land within max_gap of the last matched one
    // and within seed_horizon (the suffix-min of every remaining
    // transition's since-seed bound plus the deadline) of the seed.
    if (t.max_gap != kNoGapLimit) {
      expiry = std::min(expiry, SaturatingExpiry(last_ts, t.max_gap));
    }
    if (t.seed_horizon != kNoGapLimit) {
      expiry = std::min(expiry, SaturatingExpiry(first_ts, t.seed_horizon));
    }
  }
  return expiry;
}

void QueryRuntime::Advance(const StreamEvent& event,
                           std::vector<Interval>* completions) {
  const auto out_base =
      static_cast<std::vector<Interval>::difference_type>(completions->size());
  // Every partial carries its own expiry (window horizon, tightened by any
  // guard deadlines), so one heap pass handles both. For a pure-window
  // query expiry is first_ts + window, and `expiry < now` is exactly the
  // old `first_ts < now - window` cutoff.
  table_.ExpireAt(event.ts);
  if (window_ > 0) {
    // Emitted-interval dedup entries older than the effective window can
    // never be duplicated again; the set is ordered by begin, so they form
    // its prefix.
    while (!emitted_.empty() &&
           event.ts - emitted_.begin()->begin > window_) {
      emitted_.erase(emitted_.begin());
    }
  }

  // Existing partials first. Extensions land in the pending scratch, so
  // the table is never mutated mid-scan and nothing produced by this event
  // can be re-extended by it.
  table_.ForEachExtendable(
      event.src_entity, event.dst_entity,
      [&](std::uint32_t slot) { TryExtend(event, slot, completions); });
  // And a fresh partial starting at this event.
  TrySeed(event, completions);

  InsertPending();
  // Intervals are distinct (dedup above), so this order is total.
  std::sort(completions->begin() + out_base, completions->end());
}

void QueryRuntime::TryExtend(const StreamEvent& event, std::uint32_t slot,
                             std::vector<Interval>* completions) {
  const std::uint32_t k = table_.next_edge(slot);
  const Timestamp first = table_.first_ts(slot);
  const ExtendOutcome outcome =
      MatchTransition(plan_, window_, event, k, table_.binding(slot), first,
                      table_.last_ts(slot));
  if (outcome == ExtendOutcome::kReject) return;
  if (outcome == ExtendOutcome::kComplete) {
    Complete(Interval{first, event.ts}, completions);
    return;
  }
  QueuePending(table_.binding(slot), event, k, first);
}

void QueryRuntime::TrySeed(const StreamEvent& event,
                           std::vector<Interval>* completions) {
  if (!plan_.SeedMatches(event)) return;
  if (plan_.edge_count() == 1) {
    Complete(Interval{event.ts, event.ts}, completions);
    return;
  }
  QueuePending({}, event, 0, event.ts);
}

void QueryRuntime::Complete(Interval interval,
                            std::vector<Interval>* completions) {
  // One ordered probe both tests and records the interval.
  if (emitted_.insert(interval).second) {
    completions->push_back(interval);
    ++alerts_;
  }
}

void QueryRuntime::QueuePending(std::span<const std::int64_t> base_binding,
                                const StreamEvent& event,
                                std::uint32_t matched_edge,
                                Timestamp first_ts) {
  const std::size_t n = plan_.node_count();
  const std::size_t off = pending_bindings_.size();
  pending_bindings_.resize(off + n);
  FillExtendedBinding(
      plan_, matched_edge, base_binding, event,
      std::span<std::int64_t>{pending_bindings_.data() + off, n});
  pending_.push_back(PendingMeta{matched_edge + 1, first_ts, event.ts});
}

void QueryRuntime::InsertPending() {
  const std::size_t n = plan_.node_count();
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    std::span<const std::int64_t> binding{pending_bindings_.data() + i * n, n};
    // The table collapses duplicates, then applies backpressure.
    table_.Insert(binding, pending_[i].next_edge, pending_[i].first_ts,
                  pending_[i].last_ts,
                  ComputePartialExpiry(plan_, window_, pending_[i].next_edge,
                                       pending_[i].first_ts,
                                       pending_[i].last_ts),
                  RouteForNextEdge(plan_, pending_[i].next_edge, binding));
  }
  pending_.clear();
  pending_bindings_.clear();
}

}  // namespace tgm
