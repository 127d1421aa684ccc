#include "temporal/io.h"

#include <charconv>
#include <istream>
#include <limits>
#include <optional>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace tgm {

bool LineCursor::Next(std::string* line) {
  while (std::getline(is_, *line)) {
    ++line_;
    if (!line->empty() && line->back() == '\r') line->pop_back();
    if (line->find_first_not_of(" \t") != std::string::npos) return true;
  }
  return false;
}

Status LineCursor::Error(std::string_view message) const {
  // line_ is 0 until Next() first returns a line (e.g. an empty stream);
  // "line 0" would point at a nonexistent line.
  std::string out =
      line_ == 0 ? "at start of input: " : "line " + std::to_string(line_) + ": ";
  out += message;
  return Status::DataLoss(std::move(out));
}

void TokenizeRecordLine(const std::string& line,
                        std::vector<std::string_view>* out) {
  out->clear();
  std::string_view sv(line);
  std::size_t pos = 0;
  while (pos < sv.size()) {
    std::size_t start = sv.find_first_not_of(" \t", pos);
    if (start == std::string_view::npos) break;
    std::size_t end = sv.find_first_of(" \t", start);
    if (end == std::string_view::npos) end = sv.size();
    out->push_back(sv.substr(start, end - start));
    pos = end;
  }
}

bool ParseInt64Token(std::string_view token, std::int64_t* out) {
  const char* begin = token.data();
  const char* end = begin + token.size();
  auto [ptr, ec] = std::from_chars(begin, end, *out);
  return ec == std::errc() && ptr == end;
}

namespace {

/// Shared reader for the tgraph/tpattern record shape. `with_ts` selects
/// the 5-token timestamped edge line of tgraph over the 4-token tpattern
/// one (pattern edge order is the line order).
StatusOr<TemporalGraph> ParseRecord(LineCursor& cursor, LabelDict& dict,
                                    std::string_view header, bool with_ts) {
  std::string line;
  std::vector<std::string_view> tokens;
  if (!cursor.Next(&line)) {
    return cursor.Error(std::string("expected '") + std::string(header) +
                        "' header, got end of input");
  }
  TokenizeRecordLine(line, &tokens);
  std::int64_t num_nodes = 0;
  std::int64_t num_edges = 0;
  if (tokens.size() != 3 || tokens[0] != header ||
      !ParseInt64Token(tokens[1], &num_nodes) ||
      !ParseInt64Token(tokens[2], &num_edges) || num_nodes < 0 || num_edges < 0) {
    return cursor.Error(std::string("expected '") + std::string(header) +
                        " <num_nodes> <num_edges>', got '" + line + "'");
  }
  if (num_nodes > std::numeric_limits<NodeId>::max()) {
    return cursor.Error("node count " + std::to_string(num_nodes) +
                        " exceeds the NodeId range");
  }

  TemporalGraph g;
  for (std::int64_t i = 0; i < num_nodes; ++i) {
    if (!cursor.Next(&line)) {
      return cursor.Error("expected " + std::to_string(num_nodes) +
                          " node lines, got end of input after " +
                          std::to_string(i));
    }
    TokenizeRecordLine(line, &tokens);
    if (tokens.size() != 2 || tokens[0] != "n") {
      return cursor.Error("expected 'n <label-name>', got '" + line + "'");
    }
    g.AddNode(dict.Intern(tokens[1]));
  }

  const std::size_t edge_tokens = with_ts ? 5u : 4u;
  for (std::int64_t i = 0; i < num_edges; ++i) {
    if (!cursor.Next(&line)) {
      return cursor.Error("expected " + std::to_string(num_edges) +
                          " edge lines, got end of input after " +
                          std::to_string(i));
    }
    TokenizeRecordLine(line, &tokens);
    std::int64_t src = 0;
    std::int64_t dst = 0;
    std::int64_t ts = with_ts ? 0 : i + 1;
    bool shape_ok = tokens.size() == edge_tokens && tokens[0] == "e" &&
                    ParseInt64Token(tokens[1], &src) && ParseInt64Token(tokens[2], &dst);
    if (shape_ok && with_ts) shape_ok = ParseInt64Token(tokens[3], &ts);
    if (!shape_ok) {
      return cursor.Error(
          std::string("expected 'e <src> <dst> ") +
          (with_ts ? "<ts> " : "") + "<elabel-name>', got '" + line + "'");
    }
    if (src < 0 || src >= num_nodes) {
      return cursor.Error("edge source " + std::to_string(src) +
                          " out of range for " + std::to_string(num_nodes) +
                          " nodes");
    }
    if (dst < 0 || dst >= num_nodes) {
      return cursor.Error("edge destination " + std::to_string(dst) +
                          " out of range for " + std::to_string(num_nodes) +
                          " nodes");
    }
    if (ts < 0) {
      return cursor.Error("negative timestamp " + std::to_string(ts));
    }
    g.AddEdge(static_cast<NodeId>(src), static_cast<NodeId>(dst),
              static_cast<Timestamp>(ts), dict.Intern(tokens.back()));
  }
  return g;
}

}  // namespace

void WriteTemporalGraph(std::ostream& os, const TemporalGraph& g,
                        const LabelDict& dict) {
  os << "tgraph " << g.node_count() << " " << g.edge_count() << "\n";
  for (std::size_t v = 0; v < g.node_count(); ++v) {
    os << "n " << dict.Name(g.label(static_cast<NodeId>(v))) << "\n";
  }
  for (const TemporalEdge& e : g.edges()) {
    os << "e " << e.src << " " << e.dst << " " << e.ts << " "
       << dict.Name(e.elabel) << "\n";
  }
}

StatusOr<TemporalGraph> ParseTemporalGraph(LineCursor& cursor,
                                           LabelDict& dict) {
  TGM_ASSIGN_OR_RETURN(TemporalGraph g,
                       ParseRecord(cursor, dict, "tgraph", /*with_ts=*/true));
  g.Finalize(TiePolicy::kBreakByInsertionOrder);
  return g;
}

StatusOr<TemporalGraph> ParseTemporalGraph(std::istream& is, LabelDict& dict) {
  LineCursor cursor(is);
  return ParseTemporalGraph(cursor, dict);
}

void WritePattern(std::ostream& os, const Pattern& p, const LabelDict& dict) {
  os << "tpattern " << p.node_count() << " " << p.edge_count() << "\n";
  for (std::size_t v = 0; v < p.node_count(); ++v) {
    os << "n " << dict.Name(p.label(static_cast<NodeId>(v))) << "\n";
  }
  for (const PatternEdge& e : p.edges()) {
    os << "e " << e.src << " " << e.dst << " " << dict.Name(e.elabel)
       << "\n";
  }
}

StatusOr<Pattern> ParsePattern(LineCursor& cursor, LabelDict& dict) {
  TGM_ASSIGN_OR_RETURN(TemporalGraph g,
                       ParseRecord(cursor, dict, "tpattern", /*with_ts=*/false));
  if (g.edge_count() == 0) {
    return cursor.Error("a pattern must have at least one edge");
  }
  g.Finalize(TiePolicy::kRequireStrict);
  std::optional<Pattern> p = Pattern::FromTemporalGraph(g);
  if (!p.has_value()) {
    return cursor.Error("pattern is not T-connected");
  }
  return *std::move(p);
}

StatusOr<Pattern> ParsePattern(std::istream& is, LabelDict& dict) {
  LineCursor cursor(is);
  return ParsePattern(cursor, dict);
}

namespace {

// DOT string literals need escaped quotes and backslashes.
std::string DotEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

std::string PatternToDot(const Pattern& p, const LabelDict& dict,
                         std::string_view graph_name) {
  std::ostringstream os;
  os << "digraph \"" << graph_name << "\" {\n";
  os << "  rankdir=LR;\n  node [shape=box, fontsize=10];\n";
  for (std::size_t v = 0; v < p.node_count(); ++v) {
    os << "  n" << v << " [label=\""
       << DotEscape(dict.Name(p.label(static_cast<NodeId>(v)))) << "\"];\n";
  }
  for (std::size_t i = 0; i < p.edge_count(); ++i) {
    const PatternEdge& e = p.edge(i);
    os << "  n" << e.src << " -> n" << e.dst << " [label=\"" << (i + 1);
    if (e.elabel != kNoEdgeLabel) {
      os << ": " << DotEscape(dict.Name(e.elabel));
    }
    os << "\"];\n";
  }
  os << "}\n";
  return os.str();
}

std::string TemporalGraphToDot(const TemporalGraph& g, const LabelDict& dict,
                               std::string_view graph_name) {
  std::ostringstream os;
  os << "digraph \"" << graph_name << "\" {\n";
  os << "  rankdir=LR;\n  node [shape=box, fontsize=10];\n";
  for (std::size_t v = 0; v < g.node_count(); ++v) {
    os << "  n" << v << " [label=\""
       << DotEscape(dict.Name(g.label(static_cast<NodeId>(v)))) << "\"];\n";
  }
  for (const TemporalEdge& e : g.edges()) {
    os << "  n" << e.src << " -> n" << e.dst << " [label=\"t=" << e.ts;
    if (e.elabel != kNoEdgeLabel) {
      os << " " << DotEscape(dict.Name(e.elabel));
    }
    os << "\"];\n";
  }
  os << "}\n";
  return os.str();
}

}  // namespace tgm
