#include "api/session.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <utility>

#include "mining/miner.h"
#include "query/stream/event.h"

namespace tgm::api {

namespace {

bool HasWhitespace(std::string_view s) {
  return s.find_first_of(" \t\r\n") != std::string_view::npos;
}

Status ValidateCorpusName(std::string_view name) {
  if (name.empty()) {
    return Status::InvalidArgument("corpus name must not be empty");
  }
  if (HasWhitespace(name)) {
    return Status::InvalidArgument(
        "corpus name must not contain whitespace: '" + std::string(name) +
        "'");
  }
  return Status::Ok();
}

Status ValidateLabelToken(std::string_view label, std::string_view context,
                          const char* what) {
  if (label.empty()) {
    return Status::InvalidArgument(std::string(context) + ": empty " + what);
  }
  if (HasWhitespace(label)) {
    return Status::InvalidArgument(
        std::string(context) + ": " + what + " '" + std::string(label) +
        "' contains whitespace (labels must be single tokens; they "
        "round-trip through the text formats)");
  }
  return Status::Ok();
}

/// Every label of `g` must already be interned in `dict`.
Status ValidateGraphLabels(const TemporalGraph& g, const LabelDict& dict) {
  const LabelId limit = static_cast<LabelId>(dict.size());
  for (std::size_t v = 0; v < g.node_count(); ++v) {
    LabelId l = g.label(static_cast<NodeId>(v));
    if (l < 0 || l >= limit) {
      return Status::InvalidArgument(
          "graph node " + std::to_string(v) + " carries label id " +
          std::to_string(l) + ", outside this session's dictionary (size " +
          std::to_string(dict.size()) + ")");
    }
  }
  for (const TemporalEdge& e : g.edges()) {
    if (e.elabel < 0 || e.elabel >= limit) {
      return Status::InvalidArgument(
          "graph edge carries label id " + std::to_string(e.elabel) +
          ", outside this session's dictionary (size " +
          std::to_string(dict.size()) + ")");
    }
  }
  return Status::Ok();
}

}  // namespace

Session::Session(const SessionOptions& options)
    : options_(options),
      owned_dict_(std::make_unique<LabelDict>()),
      dict_(owned_dict_.get()) {
  // Reserve id 0 so kNoEdgeLabel never collides with a real label (the
  // same convention SyslogWorld establishes for its dictionary).
  LabelId reserved = dict_->Intern("<none>");
  TGM_CHECK(reserved == kNoEdgeLabel);
}

Session::Session(LabelDict* dict, const SessionOptions& options)
    : options_(options), dict_(dict) {
  TGM_CHECK(dict_ != nullptr);
  if (dict_->size() == 0) {
    dict_->Intern("<none>");
  } else {
    // A real label at id 0 would alias kNoEdgeLabel: every unlabeled
    // edge would silently match it. Fail fast on dictionaries built
    // without the reservation (SyslogWorld and owned dicts follow it).
    TGM_CHECK(dict_->Name(kNoEdgeLabel) == "<none>");
  }
}

Session::CorpusData& Session::CorpusFor(std::string_view name) {
  auto it = corpora_.find(name);
  if (it == corpora_.end()) {
    it = corpora_.emplace(std::string(name), CorpusData{}).first;
  }
  return it->second;
}

StatusOr<const Session::CorpusData*> Session::FindCorpus(
    std::string_view name) const {
  auto it = corpora_.find(name);
  if (it == corpora_.end()) {
    std::string message = "unknown corpus '" + std::string(name) + "'";
    if (corpora_.empty()) {
      message += " (no corpora ingested yet)";
    } else {
      message += "; have:";
      for (const auto& [corpus_name, data] : corpora_) {
        message += " '" + corpus_name + "'";
      }
    }
    return Status::NotFound(std::move(message));
  }
  return &it->second;
}

StatusOr<std::size_t> Session::Ingest(std::string_view corpus,
                                      std::span<const EventRecord> events) {
  TGM_RETURN_IF_ERROR(ValidateCorpusName(corpus));
  if (events.empty()) {
    return Status::InvalidArgument("cannot ingest an empty event stream as "
                                   "a graph of corpus '" +
                                   std::string(corpus) + "'");
  }

  TemporalGraph g;
  // Entity id -> (node id, label id); labels must stay consistent.
  std::unordered_map<std::int64_t, std::pair<NodeId, LabelId>> nodes;
  auto map_entity = [&](std::int64_t entity, const std::string& label,
                        std::size_t event_index,
                        NodeId* out) -> Status {
    LabelId interned = dict_->Intern(label);
    auto [it, inserted] = nodes.try_emplace(entity, kInvalidNode, interned);
    if (inserted) {
      it->second.first = g.AddNode(interned);
    } else if (it->second.second != interned) {
      return Status::InvalidArgument(
          "event " + std::to_string(event_index) + ": entity " +
          std::to_string(entity) + " relabeled from '" +
          dict_->Name(it->second.second) + "' to '" + label +
          "' within one graph");
    }
    *out = it->second.first;
    return Status::Ok();
  };

  for (std::size_t i = 0; i < events.size(); ++i) {
    const EventRecord& rec = events[i];
    if (rec.ts < 0) {
      return Status::InvalidArgument("event " + std::to_string(i) +
                                     ": negative timestamp " +
                                     std::to_string(rec.ts));
    }
    // Self-loop events are representable (and matched live by the
    // compiled plans), so log corpora may contain them; only mining
    // forbids them, enforced per-run in ResolveTrainingSubset.
    const std::string context = "event " + std::to_string(i);
    TGM_RETURN_IF_ERROR(
        ValidateLabelToken(rec.src_label, context, "source label"));
    TGM_RETURN_IF_ERROR(
        ValidateLabelToken(rec.dst_label, context, "destination label"));
    if (!rec.edge_label.empty()) {
      TGM_RETURN_IF_ERROR(
          ValidateLabelToken(rec.edge_label, context, "edge label"));
    }
    NodeId src = kInvalidNode;
    NodeId dst = kInvalidNode;
    TGM_RETURN_IF_ERROR(map_entity(rec.src_entity, rec.src_label, i, &src));
    TGM_RETURN_IF_ERROR(map_entity(rec.dst_entity, rec.dst_label, i, &dst));
    LabelId elabel =
        rec.edge_label.empty() ? kNoEdgeLabel : dict_->Intern(rec.edge_label);
    g.AddEdge(src, dst, rec.ts, elabel);
  }
  g.Finalize(TiePolicy::kBreakByInsertionOrder);

  CorpusData& data = CorpusFor(corpus);
  data.owned.push_back(std::move(g));
  data.graphs.push_back(&data.owned.back());
  return data.graphs.size() - 1;
}

StatusOr<std::size_t> Session::IngestGraph(std::string_view corpus,
                                           TemporalGraph graph) {
  TGM_RETURN_IF_ERROR(ValidateCorpusName(corpus));
  TGM_RETURN_IF_ERROR(ValidateGraphLabels(graph, *dict_));
  if (!graph.finalized()) graph.Finalize(TiePolicy::kBreakByInsertionOrder);
  CorpusData& data = CorpusFor(corpus);
  data.owned.push_back(std::move(graph));
  data.graphs.push_back(&data.owned.back());
  return data.graphs.size() - 1;
}

Status Session::AttachCorpus(std::string_view corpus,
                             std::span<const TemporalGraph> graphs) {
  TGM_RETURN_IF_ERROR(ValidateCorpusName(corpus));
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    if (!graphs[i].finalized()) {
      return Status::InvalidArgument(
          "attached graph " + std::to_string(i) + " of corpus '" +
          std::string(corpus) + "' is not finalized");
    }
    // Same screen as IngestGraph: a graph interned against a different
    // dictionary would silently mis-match every query.
    TGM_RETURN_IF_ERROR(ValidateGraphLabels(graphs[i], *dict_));
  }
  CorpusData& data = CorpusFor(corpus);
  for (const TemporalGraph& g : graphs) data.graphs.push_back(&g);
  return Status::Ok();
}

StatusOr<std::span<const TemporalGraph* const>> Session::Corpus(
    std::string_view name) const {
  TGM_ASSIGN_OR_RETURN(const CorpusData* data, FindCorpus(name));
  return std::span<const TemporalGraph* const>(data->graphs);
}

std::vector<std::string> Session::CorpusNames() const {
  std::vector<std::string> names;
  names.reserve(corpora_.size());
  for (const auto& [name, data] : corpora_) names.push_back(name);
  return names;
}

StatusOr<Session::TrainingSubset> Session::ResolveTrainingSubset(
    const MineSpec& spec) const {
  // Negated-positive form so NaN (every comparison false) is rejected
  // rather than flowing into the ceil/cast of TrainingFractionCount (UB).
  if (!(spec.fraction > 0.0 && spec.fraction <= 1.0)) {
    return Status::InvalidArgument("fraction must be in (0, 1], got " +
                                   std::to_string(spec.fraction));
  }
  TGM_ASSIGN_OR_RETURN(const CorpusData* pos, FindCorpus(spec.positives));
  TGM_ASSIGN_OR_RETURN(const CorpusData* neg, FindCorpus(spec.negatives));
  if (pos->graphs.empty() || neg->graphs.empty()) {
    return Status::FailedPrecondition(
        "mining needs non-empty corpora; '" + spec.positives + "' has " +
        std::to_string(pos->graphs.size()) + " graphs, '" + spec.negatives +
        "' has " + std::to_string(neg->graphs.size()));
  }

  TrainingSubset subset;
  std::size_t pos_count =
      TrainingFractionCount(pos->graphs.size(), spec.fraction);
  std::size_t neg_count =
      TrainingFractionCount(neg->graphs.size(), spec.fraction);
  subset.positives.assign(
      pos->graphs.begin(),
      pos->graphs.begin() + static_cast<std::ptrdiff_t>(pos_count));
  subset.negatives.assign(
      neg->graphs.begin(),
      neg->graphs.begin() + static_cast<std::ptrdiff_t>(neg_count));

  // The miner TGM_CHECK-aborts on self-loop edges. Ingest rejects them up
  // front, but IngestGraph/AttachCorpus corpora arrive pre-built, so the
  // precondition must be re-checked here as a Status, not a crash.
  auto check_self_loops =
      [](const std::vector<const TemporalGraph*>& graphs,
         const std::string& corpus) -> Status {
    for (std::size_t i = 0; i < graphs.size(); ++i) {
      for (const TemporalEdge& e : graphs[i]->edges()) {
        if (e.src == e.dst) {
          return Status::FailedPrecondition(
              "graph " + std::to_string(i) + " of corpus '" + corpus +
              "' has a self-loop on node " + std::to_string(e.src) +
              "; mining requires self-loop-free graphs");
        }
      }
    }
    return Status::Ok();
  };
  TGM_RETURN_IF_ERROR(check_self_loops(subset.positives, spec.positives));
  TGM_RETURN_IF_ERROR(check_self_loops(subset.negatives, spec.negatives));
  return subset;
}

MineResult Session::RunMiner(const MinerConfig& config,
                             const TrainingSubset& subset) {
  // The subset vectors hold non-owning pointers; copying them into the
  // miner is cheap and lets callers keep the subset for provenance.
  Miner miner(config, subset.positives, subset.negatives);
  return miner.Mine();
}

StatusOr<MineResult> Session::MineRaw(const MineSpec& spec) const {
  TGM_ASSIGN_OR_RETURN(MinerConfig config,
                       MinerConfigBuilder(spec.config).Build());
  TGM_ASSIGN_OR_RETURN(TrainingSubset subset, ResolveTrainingSubset(spec));
  return RunMiner(config, subset);
}

StatusOr<BehaviorQuery> Session::Mine(const MineSpec& spec) const {
  if (spec.top_patterns < 1) {
    return Status::InvalidArgument("top_patterns must be >= 1, got " +
                                   std::to_string(spec.top_patterns));
  }
  if (spec.window < 0) {
    return Status::InvalidArgument("window must be >= 0, got " +
                                   std::to_string(spec.window));
  }
  if (spec.window == 0 && !(spec.window_slack > 0.0)) {  // NaN-safe
    return Status::InvalidArgument("window_slack must be positive to derive "
                                   "a window from the training data");
  }
  // Resolve the training subset once; the same graphs drive the mining
  // run, the window derivation, and the provenance counts, so the
  // artifact always describes exactly the run that produced it.
  TGM_ASSIGN_OR_RETURN(MinerConfig config,
                       MinerConfigBuilder(spec.config).Build());
  TGM_ASSIGN_OR_RETURN(TrainingSubset subset, ResolveTrainingSubset(spec));
  MineResult result = RunMiner(config, subset);

  std::vector<MinedPattern> selected;
  if (spec.interest != nullptr) {
    selected = SelectTopQueries(result.top, *spec.interest,
                                spec.top_patterns);
  } else {
    selected = result.top;
    if (selected.size() > static_cast<std::size_t>(spec.top_patterns)) {
      selected.resize(static_cast<std::size_t>(spec.top_patterns));
    }
  }

  if (selected.empty()) {
    // An empty artifact would fail Validate() on every downstream call;
    // surface the real cause here instead.
    return Status::FailedPrecondition(
        "mining found no discriminative patterns for '" + spec.positives +
        "' vs '" + spec.negatives + "' (visited " +
        std::to_string(result.stats.patterns_visited) +
        " patterns); relax the config (min_pos_freq, budgets) or provide "
        "more training runs");
  }

  Timestamp window = spec.window;
  if (window == 0) {
    Timestamp longest = 0;
    for (const TemporalGraph* g : subset.positives) {
      longest = std::max(longest, g->Span());
    }
    window = static_cast<Timestamp>(
        std::llround(static_cast<double>(longest) * spec.window_slack));
    if (window == 0) {
      // Window 0 means *unbounded* to Search/Watch — the opposite of the
      // tight lifetime bound this derivation promises. Zero-span training
      // graphs (or a tiny slack) cannot derive a meaningful horizon.
      return Status::FailedPrecondition(
          "derived search window is 0 (longest positive lifetime " +
          std::to_string(longest) + ", slack " +
          std::to_string(spec.window_slack) +
          "); set spec.window explicitly or increase window_slack");
    }
  }

  QueryProvenance prov;
  prov.patterns_visited = result.stats.patterns_visited;
  prov.patterns_expanded = result.stats.patterns_expanded;
  prov.truncated = result.stats.truncated();
  prov.elapsed_seconds = result.stats.elapsed_seconds;
  prov.positive_graphs = static_cast<std::int64_t>(subset.positives.size());
  prov.negative_graphs = static_cast<std::int64_t>(subset.negatives.size());
  prov.positives = spec.positives;
  prov.negatives = spec.negatives;

  return BehaviorQuery(std::move(selected), window, std::move(prov));
}

StatusOr<std::vector<Interval>> Session::Search(
    const BehaviorQuery& query, std::string_view log_corpus) const {
  TGM_RETURN_IF_ERROR(query.Validate());
  TGM_ASSIGN_OR_RETURN(const CorpusData* corpus, FindCorpus(log_corpus));

  TemporalQuerySearcher::Options options;
  options.window = query.window();
  options.max_matches = options_.search_match_cap;
  TemporalQuerySearcher searcher(options);
  std::vector<Pattern> patterns;
  patterns.reserve(query.size());
  for (const MinedPattern& m : query.patterns()) {
    patterns.push_back(m.pattern);
  }

  std::vector<Interval> intervals;
  for (const TemporalGraph* g : corpus->graphs) {
    std::vector<Interval> hits =
        searcher.SearchAll(patterns, query.constraints(), *g);
    intervals.insert(intervals.end(), hits.begin(), hits.end());
  }
  std::sort(intervals.begin(), intervals.end());
  intervals.erase(std::unique(intervals.begin(), intervals.end()),
                  intervals.end());
  return intervals;
}

StatusOr<std::vector<Interval>> Session::Watch(
    const BehaviorQuery& query, std::string_view log_corpus,
    const WatchOptions& options) const {
  TGM_RETURN_IF_ERROR(query.Validate());
  TGM_ASSIGN_OR_RETURN(const CorpusData* corpus, FindCorpus(log_corpus));

  StreamEngine::Options engine_options;
  engine_options.window = query.window();
  engine_options.num_shards =
      options.shards != 0 ? options.shards : options_.watch_shards;
  engine_options.batch_size = options.batch_size != 0
                                  ? options.batch_size
                                  : options_.watch_batch_size;
  engine_options.max_partials_per_query = options.max_partials != 0
                                              ? options.max_partials
                                              : options_.watch_max_partials;

  std::vector<Interval> intervals;
  auto sink = [&intervals](const StreamAlert& alert) {
    intervals.push_back(alert.interval);
  };
  // One engine per log graph: each graph is an independent stream (their
  // timestamp ranges may overlap), exactly how Search treats them.
  for (const TemporalGraph* g : corpus->graphs) {
    StreamEngine engine(engine_options);
    for (std::size_t i = 0; i < query.size(); ++i) {
      engine.AddQuery(query.patterns()[i].pattern, query.window(),
                      query.constraints(i));
    }
    for (const TemporalEdge& e : g->edges()) {
      engine.OnEvent(StreamEvent::FromEdge(*g, e), sink);
    }
    engine.Flush(sink);
  }
  std::sort(intervals.begin(), intervals.end());
  intervals.erase(std::unique(intervals.begin(), intervals.end()),
                  intervals.end());
  return intervals;
}

StreamEngine::AlertSink Session::EngineSink(const WatchSink& sink) {
  // One shared translation from engine alerts (global query index) to
  // watch alerts (watch id + pattern ordinal); Feed and FlushWatches must
  // never diverge on this mapping.
  return [this, &sink](const StreamAlert& alert) {
    const auto& [watch, ordinal] = engine_index_map_[alert.query_index];
    sink(WatchAlert{watch, ordinal, alert.interval});
  };
}

Status Session::EnsureEngine() {
  if (engine_) return Status::Ok();
  StreamEngine::Options engine_options;
  // Expiry horizons are per-watch (each registered query carries its
  // artifact's window); the engine-level default is never used.
  engine_options.window = 0;
  engine_options.num_shards = options_.watch_shards;
  engine_options.batch_size = options_.watch_batch_size;
  engine_options.max_partials_per_query = options_.watch_max_partials;
  engine_ = std::make_unique<StreamEngine>(engine_options);
  return Status::Ok();
}

StatusOr<WatchId> Session::Watch(const BehaviorQuery& query) {
  TGM_RETURN_IF_ERROR(query.Validate());
  TGM_RETURN_IF_ERROR(EnsureEngine());
  if (engine_->has_buffered_events()) {
    return Status::FailedPrecondition(
        "cannot register a watch while events are buffered; call "
        "FlushWatches first");
  }
  WatchId id = watches_.size();
  WatchEntry entry;
  entry.first_engine_index = engine_index_map_.size();
  entry.pattern_count = query.size();
  for (std::size_t ordinal = 0; ordinal < query.size(); ++ordinal) {
    std::size_t engine_index =
        engine_->AddQuery(query.patterns()[ordinal].pattern, query.window(),
                          query.constraints(ordinal));
    TGM_CHECK(engine_index == engine_index_map_.size());
    engine_index_map_.emplace_back(id, ordinal);
  }
  watches_.push_back(entry);
  return id;
}

Status Session::Feed(const StreamEvent& event, const WatchSink& sink) {
  if (!engine_ || watches_.empty()) {
    return Status::FailedPrecondition(
        "no live watches registered; call Watch(query) first");
  }
  if (event.ts < 0) {
    return Status::InvalidArgument("event timestamp is negative (" +
                                   std::to_string(event.ts) + ")");
  }
  engine_->OnEvent(event, EngineSink(sink));
  return Status::Ok();
}

Status Session::Feed(const EventRecord& record, const WatchSink& sink) {
  // Same label screening as Ingest (the single-token invariant protects
  // the dictionary every text format and future save depends on).
  // Self-loop events are fine here (the compiled plans dispatch on them);
  // only mining forbids them.
  TGM_RETURN_IF_ERROR(
      ValidateLabelToken(record.src_label, "live event", "source label"));
  TGM_RETURN_IF_ERROR(
      ValidateLabelToken(record.dst_label, "live event", "destination label"));
  if (!record.edge_label.empty()) {
    TGM_RETURN_IF_ERROR(
        ValidateLabelToken(record.edge_label, "live event", "edge label"));
  }
  StreamEvent event;
  event.src_entity = record.src_entity;
  event.dst_entity = record.dst_entity;
  // A label never seen by this session cannot occur in any mined pattern,
  // but interning keeps ids stable if a future query uses it.
  event.src_label = dict_->Intern(record.src_label);
  event.dst_label = dict_->Intern(record.dst_label);
  event.elabel = record.edge_label.empty() ? kNoEdgeLabel
                                           : dict_->Intern(record.edge_label);
  event.ts = record.ts;
  return Feed(event, sink);
}

Status Session::FlushWatches(const WatchSink& sink) {
  if (!engine_) return Status::Ok();
  engine_->Flush(EngineSink(sink));
  return Status::Ok();
}

EngineStats Session::WatchStats() const {
  if (!engine_) return EngineStats{};
  return engine_->Stats();
}

Status Session::SaveQuery(const BehaviorQuery& query, std::ostream& os) const {
  TGM_RETURN_IF_ERROR(query.Validate());
  const LabelId limit = static_cast<LabelId>(dict_->size());
  for (const MinedPattern& m : query.patterns()) {
    const Pattern& p = m.pattern;
    for (std::size_t v = 0; v < p.node_count(); ++v) {
      LabelId l = p.label(static_cast<NodeId>(v));
      if (l < 0 || l >= limit) {
        return Status::InvalidArgument(
            "pattern node label id " + std::to_string(l) +
            " is outside this session's dictionary");
      }
    }
    for (const PatternEdge& e : p.edges()) {
      if (e.elabel < 0 || e.elabel >= limit) {
        return Status::InvalidArgument(
            "pattern edge label id " + std::to_string(e.elabel) +
            " is outside this session's dictionary");
      }
    }
  }
  // Constraint label alternatives are saved by name, so they must resolve
  // through this dictionary too.
  for (const TemporalConstraints& c : query.constraints()) {
    for (const TransitionGuard& g : c.guards()) {
      for (LabelId alt : g.elabel_alts) {
        if (alt < 0 || alt >= limit) {
          return Status::InvalidArgument(
              "constraint alternative edge-label id " + std::to_string(alt) +
              " is outside this session's dictionary");
        }
      }
    }
  }
  query.Save(os, *dict_);
  return Status::Ok();
}

StatusOr<BehaviorQuery> Session::LoadQuery(std::istream& is) {
  return BehaviorQuery::Load(is, *dict_);
}

}  // namespace tgm::api
