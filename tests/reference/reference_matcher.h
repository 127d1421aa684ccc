#ifndef TGM_TESTS_REFERENCE_REFERENCE_MATCHER_H_
#define TGM_TESTS_REFERENCE_REFERENCE_MATCHER_H_

// A brute-force behaviour-query matcher, written from the definitions and
// nothing else: Section 2 of the paper (a match is an order-preserving,
// injective, label-preserving embedding of the pattern's edges into the
// log's edges, whose span fits one behaviour lifetime) and the guard
// semantics spelled out in src/temporal/constraints.h. It keeps no index
// and shares no code with TemporalQuerySearcher or the stream engine, so
// the differential suite that compares them against it checks each of
// them against the definition rather than against one another.
//
// Cost is C(|log edges|, |pattern edges|) candidate checks: tiny inputs
// only.

#include <algorithm>
#include <set>
#include <vector>

#include "query/searcher.h"
#include "temporal/constraints.h"
#include "temporal/pattern.h"
#include "temporal/temporal_graph.h"

namespace tgm::reference {

/// Inclusive range test with kNoGapLimit as an absent upper bound.
inline bool Within(Timestamp value, Timestamp min, Timestamp max) {
  return value >= min && (max == kNoGapLimit || value <= max);
}

/// Whether the data edges at `positions` (strictly increasing, one per
/// pattern edge, in pattern-edge order) are a match of `query` under
/// `constraints` with span bound `window` (0 = unbounded).
inline bool IsMatch(const Pattern& query,
                    const TemporalConstraints& constraints, Timestamp window,
                    const TemporalGraph& log,
                    const std::vector<EdgePos>& positions) {
  // Node map: every pattern node goes to one data node of the same label.
  std::vector<NodeId> image(query.node_count(), kInvalidNode);
  for (std::size_t k = 0; k < query.edge_count(); ++k) {
    const PatternEdge& qe = query.edge(k);
    const TemporalEdge& de = log.edge(positions[k]);
    const std::vector<LabelId>& alts = constraints.guard(k).elabel_alts;
    if (de.elabel != qe.elabel &&
        std::find(alts.begin(), alts.end(), de.elabel) == alts.end()) {
      return false;
    }
    for (const auto& [q, d] : {std::pair{qe.src, de.src},
                               std::pair{qe.dst, de.dst}}) {
      if (log.label(d) != query.label(q)) return false;
      NodeId& slot = image[static_cast<std::size_t>(q)];
      if (slot != kInvalidNode && slot != d) return false;
      slot = d;
    }
  }
  // Injective: distinct pattern nodes map to distinct data nodes.
  std::vector<NodeId> sorted = image;
  std::sort(sorted.begin(), sorted.end());
  if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
    return false;
  }
  // Guards of every edge after the seed, then the span.
  const Timestamp seed_ts = log.edge(positions.front()).ts;
  for (std::size_t k = 1; k < query.edge_count(); ++k) {
    const TransitionGuard& g = constraints.guard(k);
    const Timestamp ts = log.edge(positions[k]).ts;
    if (!Within(ts - log.edge(positions[k - 1]).ts, g.min_gap, g.max_gap)) {
      return false;
    }
    if (!Within(ts - seed_ts, g.min_since_seed, g.max_since_seed)) {
      return false;
    }
  }
  const Timestamp span = log.edge(positions.back()).ts - seed_ts;
  if (window > 0 && span > window) return false;
  if (constraints.deadline() > 0 && span > constraints.deadline()) {
    return false;
  }
  return true;
}

/// The distinct intervals [first matched ts, last matched ts] of every
/// match, sorted ascending: tries every strictly increasing choice of
/// log-edge positions.
inline std::vector<Interval> MatchIntervals(
    const Pattern& query, const TemporalConstraints& constraints,
    Timestamp window, const TemporalGraph& log) {
  const std::size_t edges = query.edge_count();
  const auto log_edges = static_cast<EdgePos>(log.edge_count());
  std::set<Interval> intervals;
  if (edges == 0) return {};
  std::vector<EdgePos> positions(edges);
  // positions[k] runs over (positions[k - 1], log_edges), like the digits
  // of an odometer.
  auto choose = [&](auto&& self, std::size_t k, EdgePos from) -> void {
    if (k == edges) {
      if (IsMatch(query, constraints, window, log, positions)) {
        intervals.insert(Interval{log.edge(positions.front()).ts,
                                  log.edge(positions.back()).ts});
      }
      return;
    }
    for (EdgePos p = from; p < log_edges; ++p) {
      positions[k] = p;
      self(self, k + 1, p + 1);
    }
  };
  choose(choose, 0, 0);
  return std::vector<Interval>(intervals.begin(), intervals.end());
}

}  // namespace tgm::reference

#endif  // TGM_TESTS_REFERENCE_REFERENCE_MATCHER_H_
