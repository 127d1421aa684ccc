#ifndef TGM_API_SESSION_H_
#define TGM_API_SESSION_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "api/behavior_query.h"
#include "api/builders.h"
#include "api/event_record.h"
#include "api/status.h"
#include "mining/miner_config.h"
#include "mining/result.h"
#include "query/interest.h"
#include "query/searcher.h"
#include "query/stream/engine.h"
#include "temporal/label_dict.h"
#include "temporal/temporal_graph.h"

namespace tgm::api {

/// The training-amount rounding rule shared by Session::Mine and the
/// Pipeline facade (the Figure 12/15 knob): ceil(fraction * n), clamped
/// to [1, n]. One definition, so Mine-vs-Pipeline parity cannot drift.
inline std::size_t TrainingFractionCount(std::size_t n, double fraction) {
  if (n == 0) return 0;  // clamp's lo > hi would be UB
  std::size_t count = static_cast<std::size_t>(
      std::ceil(fraction * static_cast<double>(n)));
  return std::clamp<std::size_t>(count, 1, n);
}

/// What to mine: two named corpora plus the knobs of one discovery run.
struct MineSpec {
  /// Corpus holding the target behaviour's closed-environment runs.
  std::string positives;
  /// Corpus holding the background / contrast runs.
  std::string negatives;
  /// Miner knobs; build through MinerConfigBuilder for validation.
  MinerConfig config = MinerConfig::TGMiner();
  /// How many top-ranked patterns form the behaviour query.
  int top_patterns = 5;
  /// Optional domain-knowledge ranking (Appendix M) breaking score ties;
  /// null ranks by score alone. Not owned; must outlive the Mine call.
  const InterestModel* interest = nullptr;
  /// Fraction of each corpus used for training (the Figure 12/15 knob);
  /// always at least one graph per side.
  double fraction = 1.0;
  /// Explicit search window for the resulting query. 0 derives it as
  /// `window_slack` times the longest positive-graph lifetime ("no longer
  /// than the longest observed lifetime", §6.1).
  Timestamp window = 0;
  double window_slack = 1.25;
};

/// Per-call overrides of the online engine used by a Watch replay; zero /
/// unset fields fall back to the SessionOptions defaults.
struct WatchOptions {
  int shards = 0;
  std::size_t batch_size = 0;
  std::size_t max_partials = 0;
};

/// Handle of one live-watched behaviour query.
using WatchId = std::size_t;

/// An alert of the live surveillance engine: pattern `pattern` of watch
/// `watch` completed inside `interval`.
struct WatchAlert {
  WatchId watch = 0;
  std::size_t pattern = 0;
  Interval interval;

  friend bool operator==(const WatchAlert&, const WatchAlert&) = default;
};

using WatchSink = std::function<void(const WatchAlert&)>;

/// The library's stable front door: one analysis context owning the label
/// dictionary, the ingested graph corpora, and (lazily) the online
/// surveillance engine.
///
/// The serving workflow (paper Fig. 2, decoupled from the training
/// simulator):
///
///   Session s;
///   s.Ingest("runs", events_of_one_run);        // any audit-log source
///   s.Ingest("background", background_events);  // ...
///   auto query = s.Mine({.positives = "runs", .negatives = "background"});
///   s.SaveQuery(*query, file);                  // durable artifact
///   auto hits = s.Search(*query, "last-week");  // offline (Searcher)
///   auto id = s.Watch(*query);                  // online (StreamEngine)
///   s.Feed(live_event, on_alert);               // alerts as they fire
///
/// Corpora are named, append-only collections of finalized temporal
/// graphs. They can be *ingested* (built from generic EventRecord
/// streams, owned by the session) or *attached* (non-owning views over
/// graphs owned elsewhere — the bundled syslog simulator plugs in this
/// way through Pipeline, making it just one data source among any).
///
/// BehaviorQuery is the unit of exchange: `Mine` produces the artifact,
/// `Search` (offline) and `Watch` (online) execute it, and
/// `SaveQuery`/`LoadQuery` persist it across sessions — Load re-interns
/// labels into this session's dictionary, so artifacts move freely
/// between processes with different interning orders. An analyst can
/// sharpen a mined artifact with timed-automata guards
/// (QueryConstraintsBuilder -> BehaviorQuery::set_constraints); both
/// execution paths enforce the guards identically and they persist with
/// the artifact (tquery version 2). Search and a Watch
/// replay of the same log return identical intervals for any shard
/// count (pinned by tests/api_session_test.cc), provided Search's match
/// cap (SessionOptions::search_match_cap) is not hit — a capped Search
/// truncates, a replay never does; raise the cap when exact offline /
/// online parity matters on very dense logs.
///
/// Error model: recoverable failures (unknown corpus, malformed input,
/// invalid options) return Status/StatusOr; TGM_CHECK stays reserved for
/// library bugs. Not thread-safe; one caller per session.
class Session {
 public:
  /// A session owning its dictionary (label id 0 reserved as "<none>" so
  /// kNoEdgeLabel never collides with a real label).
  Session() : Session(SessionOptions{}) {}
  explicit Session(const SessionOptions& options);
  /// A session sharing an externally owned dictionary (e.g. a
  /// SyslogWorld's); `dict` must outlive the session. If the dictionary
  /// is empty, id 0 is reserved as "<none>"; a non-empty dictionary must
  /// already follow that reservation (checked — a real label at id 0
  /// would silently alias kNoEdgeLabel in every match).
  explicit Session(LabelDict* dict, const SessionOptions& options = {});

  LabelDict& dict() { return *dict_; }
  const LabelDict& dict() const { return *dict_; }
  const SessionOptions& options() const { return options_; }

  // --- ingestion --------------------------------------------------------

  /// Builds one temporal graph from an event stream and appends it to
  /// `corpus` (created on first use). Entity ids map to dense node ids in
  /// first-appearance order; labels are interned. Rejects negative
  /// timestamps, whitespace in labels, and entities whose label changes
  /// mid-graph. Self-loop events are accepted (log corpora may contain
  /// them; Search/Watch handle them) — but mining a corpus containing
  /// one fails, checked per Mine run. Returns the graph's index within
  /// the corpus.
  [[nodiscard]] StatusOr<std::size_t> Ingest(std::string_view corpus,
                               std::span<const EventRecord> events);

  /// Appends an already-built graph (finalized, or finalizable) to
  /// `corpus`; the session takes ownership.
  [[nodiscard]] StatusOr<std::size_t> IngestGraph(std::string_view corpus,
                                    TemporalGraph graph);

  /// Registers a non-owning view over externally owned graphs as (part
  /// of) `corpus`. The graphs must be finalized, must use this session's
  /// dictionary, and must outlive the session. This is how bulk
  /// simulator/test data plugs in without copies.
  [[nodiscard]] Status AttachCorpus(std::string_view corpus,
                      std::span<const TemporalGraph> graphs);

  /// The graphs of a corpus (ingested and attached, in registration
  /// order), or kNotFound. The span views session-internal storage: any
  /// later ingest/attach into the *same* corpus invalidates it (the
  /// graphs themselves stay put; re-call Corpus after growing one).
  [[nodiscard]] StatusOr<std::span<const TemporalGraph* const>> Corpus(
      std::string_view name) const;
  /// Registered corpus names, sorted.
  std::vector<std::string> CorpusNames() const;

  // --- discovery --------------------------------------------------------

  /// Runs discriminative mining over the spec's corpora and compiles the
  /// top-ranked patterns into a BehaviorQuery artifact (window stamped,
  /// provenance filled).
  [[nodiscard]] StatusOr<BehaviorQuery> Mine(const MineSpec& spec) const;

  /// The raw mining result (full retained top list plus search stats) for
  /// callers that post-process rankings themselves (benches, Pipeline).
  [[nodiscard]] StatusOr<MineResult> MineRaw(const MineSpec& spec) const;

  // --- execution: the one offline/online entry-point pair ---------------

  /// Offline: searches the query over every graph of `log_corpus` and
  /// returns the union of distinct match intervals, sorted ascending.
  [[nodiscard]] StatusOr<std::vector<Interval>> Search(const BehaviorQuery& query,
                                         std::string_view log_corpus) const;

  /// Online replay: registers the query with a fresh stream engine and
  /// replays `log_corpus` as a live event stream; returns the distinct
  /// alert intervals, sorted ascending — identical to Search over the
  /// same corpus for every shard count and batch size.
  [[nodiscard]] StatusOr<std::vector<Interval>> Watch(const BehaviorQuery& query,
                                        std::string_view log_corpus,
                                        const WatchOptions& options = {})
      const;

  /// Online, live: registers the query with the session's lazily started
  /// stream engine (SessionOptions decide shards/batching/backpressure;
  /// the query's own window decides expiry). Returns the watch handle
  /// alerts carry. Watches must be registered while no events are
  /// buffered (before the first Feed, or right after FlushWatches with
  /// batch_size 1).
  [[nodiscard]] StatusOr<WatchId> Watch(const BehaviorQuery& query);

  /// Feeds one live event to every watched query. `record` labels are
  /// interned on the fly; alerts of the batch this event completes are
  /// delivered to `sink` in canonical (event, watch, pattern, interval)
  /// order.
  [[nodiscard]] Status Feed(const EventRecord& record, const WatchSink& sink);
  /// Same, for producers that already intern labels (replaying graph
  /// edges via StreamEvent::FromEdge).
  [[nodiscard]] Status Feed(const StreamEvent& event, const WatchSink& sink);

  /// Delivers any buffered partial batch (end of stream, or before stats
  /// that must include all fed events).
  [[nodiscard]] Status FlushWatches(const WatchSink& sink);

  /// Live-engine health snapshot (empty stats before the first Watch).
  EngineStats WatchStats() const;
  std::size_t watch_count() const { return watches_.size(); }

  // --- persistence ------------------------------------------------------

  /// Persists a validated query artifact (`tquery` text format).
  [[nodiscard]] Status SaveQuery(const BehaviorQuery& query, std::ostream& os) const;
  /// Reloads an artifact, re-interning its labels into this session's
  /// dictionary.
  [[nodiscard]] StatusOr<BehaviorQuery> LoadQuery(std::istream& is);

 private:
  struct CorpusData {
    /// Ingested graphs (deque: stable addresses under append).
    std::deque<TemporalGraph> owned;
    /// Ingested + attached, in registration order.
    std::vector<const TemporalGraph*> graphs;
  };
  struct WatchEntry {
    std::size_t first_engine_index = 0;
    std::size_t pattern_count = 0;
  };
  /// The training graphs one MineSpec actually selects — resolved once
  /// and shared by MineRaw (the mining run) and Mine (window derivation,
  /// provenance), so the artifact can never describe a different subset
  /// than the miner consumed.
  struct TrainingSubset {
    std::vector<const TemporalGraph*> positives;
    std::vector<const TemporalGraph*> negatives;
  };
  [[nodiscard]] StatusOr<TrainingSubset> ResolveTrainingSubset(const MineSpec& spec) const;
  /// Runs one mining pass over an already-resolved subset (shared by
  /// MineRaw and Mine so neither resolves twice).
  static MineResult RunMiner(const MinerConfig& config,
                             const TrainingSubset& subset);

  [[nodiscard]] StatusOr<const CorpusData*> FindCorpus(std::string_view name) const;
  CorpusData& CorpusFor(std::string_view name);
  [[nodiscard]] Status EnsureEngine();
  /// Adapts a WatchSink to the engine's StreamAlert sink (query index ->
  /// (watch, pattern ordinal)). `sink` must outlive the returned functor's
  /// use (it is consumed within one OnEvent/Flush call).
  StreamEngine::AlertSink EngineSink(const WatchSink& sink);

  SessionOptions options_;
  std::unique_ptr<LabelDict> owned_dict_;
  LabelDict* dict_;  // owned_dict_.get() or external
  std::map<std::string, CorpusData, std::less<>> corpora_;

  // Live surveillance state (lazily created by the first live Watch).
  std::unique_ptr<StreamEngine> engine_;
  std::vector<WatchEntry> watches_;
  /// watch id + pattern ordinal per engine query index.
  std::vector<std::pair<WatchId, std::size_t>> engine_index_map_;
};

}  // namespace tgm::api

#endif  // TGM_API_SESSION_H_
