#ifndef TGM_QUERY_STREAM_EVENT_H_
#define TGM_QUERY_STREAM_EVENT_H_

#include <cstdint>

#include "query/searcher.h"
#include "temporal/common.h"
#include "temporal/temporal_graph.h"

namespace tgm {

/// An event arriving on the live monitoring stream. Node identities are
/// the producer's (e.g. pid/inode-derived) stable entity ids; labels are
/// interned entity labels as in TemporalGraph.
struct StreamEvent {
  std::int64_t src_entity = 0;
  std::int64_t dst_entity = 0;
  LabelId src_label = kInvalidLabel;
  LabelId dst_label = kInvalidLabel;
  LabelId elabel = kNoEdgeLabel;
  Timestamp ts = 0;

  /// The stream view of one finalized-log edge (replaying a log as a live
  /// stream, as Session::Watch, the tests and the examples do).
  static StreamEvent FromEdge(const TemporalGraph& log,
                              const TemporalEdge& e) {
    return StreamEvent{e.src,           e.dst,    log.label(e.src),
                       log.label(e.dst), e.elabel, e.ts};
  }
};

/// An alert: a behaviour query completed inside the stream.
struct StreamAlert {
  std::size_t query_index = 0;
  Interval interval;

  friend bool operator==(const StreamAlert&, const StreamAlert&) = default;
};

}  // namespace tgm

#endif  // TGM_QUERY_STREAM_EVENT_H_
