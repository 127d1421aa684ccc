#ifndef TGM_TEMPORAL_IO_H_
#define TGM_TEMPORAL_IO_H_

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "api/status.h"
#include "temporal/label_dict.h"
#include "temporal/pattern.h"
#include "temporal/temporal_graph.h"

namespace tgm {

/// Line-based text serialization for temporal graphs, patterns, and (via
/// api/behavior_query.h) compiled behaviour-query artifacts, so mined
/// queries can be exported, versioned and re-loaded.
///
/// Graph format:
///   tgraph <num_nodes> <num_edges>
///   n <label-name>                  (one per node, in node-id order)
///   e <src> <dst> <ts> <elabel-name>
/// Pattern format is identical with header `tpattern` and no timestamps
/// (edge order is the line order). The behaviour-query artifact format
/// (`tquery` header, one provenance block plus an embedded `tpattern`
/// record per pattern) composes these records; see api/behavior_query.h.
///
/// Label names must not contain whitespace; the syslog generator's labels
/// satisfy this by construction.
///
/// The `Parse*` parsers return StatusOr with a line-numbered kDataLoss
/// diagnostic on malformed input ("line 4: edge references node 7 of 2").
/// They are strictly line-oriented (one record element per line, as every
/// writer in this tree emits) and reject zero-edge `tpattern` records (an
/// empty Pattern is something no consumer can execute).

/// Line-oriented cursor over an istream used by the text-format parsers:
/// hands out whitespace-trimmed non-empty lines and tracks 1-based line
/// numbers so errors can point at their source. Records never contain
/// blank lines, so skipping them makes concatenated artifacts and
/// trailing newlines harmless.
class LineCursor {
 public:
  explicit LineCursor(std::istream& is) : is_(is) {}

  /// Advances to the next non-blank line; returns false at end of stream.
  /// The line (with any trailing '\r' stripped) is stored in `*line`.
  bool Next(std::string* line);

  /// 1-based number of the line most recently returned by Next (0 before
  /// the first call).
  int line_number() const { return line_; }

  /// A kDataLoss status pointing at the current line.
  Status Error(std::string_view message) const;

 private:
  std::istream& is_;
  int line_ = 0;
};

/// Splits one record line into whitespace-separated tokens. Shared by the
/// tgraph/tpattern parsers here and the tquery parser composed on top of
/// them (api/behavior_query.cc), so the embedded and outer records always
/// tokenize identically.
void TokenizeRecordLine(const std::string& line,
                        std::vector<std::string_view>* out);

/// Strict full-token int64 parse (no trailing characters); returns false
/// on any malformation.
bool ParseInt64Token(std::string_view token, std::int64_t* out);

/// Writes `g` using names from `dict`.
void WriteTemporalGraph(std::ostream& os, const TemporalGraph& g,
                        const LabelDict& dict);

/// Parses a graph, interning labels into `dict`. The graph is returned
/// finalized. Malformed input — bad header, wrong tags, edges referencing
/// out-of-range node ids, negative timestamps, trailing tokens — yields a
/// line-numbered kDataLoss status.
StatusOr<TemporalGraph> ParseTemporalGraph(std::istream& is, LabelDict& dict);
StatusOr<TemporalGraph> ParseTemporalGraph(LineCursor& cursor,
                                           LabelDict& dict);

/// Writes a pattern using names from `dict`.
void WritePattern(std::ostream& os, const Pattern& p, const LabelDict& dict);

/// Parses a pattern, interning labels into `dict`; diagnostics as for
/// ParseTemporalGraph.
StatusOr<Pattern> ParsePattern(std::istream& is, LabelDict& dict);
StatusOr<Pattern> ParsePattern(LineCursor& cursor, LabelDict& dict);

/// Graphviz DOT rendering of a pattern: nodes carry their labels, edges
/// their temporal order (and edge label when present). Paste into `dot
/// -Tpng` to visualize mined behaviour queries like the paper's Figures
/// 1(c) and 10.
std::string PatternToDot(const Pattern& p, const LabelDict& dict,
                         std::string_view graph_name = "pattern");

/// DOT rendering of a (small) temporal graph with timestamps on edges.
std::string TemporalGraphToDot(const TemporalGraph& g, const LabelDict& dict,
                               std::string_view graph_name = "tgraph");

}  // namespace tgm

#endif  // TGM_TEMPORAL_IO_H_
