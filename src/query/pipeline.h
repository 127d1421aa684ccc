#ifndef TGM_QUERY_PIPELINE_H_
#define TGM_QUERY_PIPELINE_H_

#include <optional>
#include <vector>

#include "api/session.h"
#include "mining/miner.h"
#include "nontemporal/gspan.h"
#include "query/evaluator.h"
#include "query/interest.h"
#include "query/nodeset.h"
#include "query/static_search.h"
#include "syslog/dataset.h"

namespace tgm {

/// End-to-end configuration of the behaviour-query-formulation pipeline
/// (Figure 2): closed-environment collection -> discriminative mining ->
/// domain-knowledge ranking -> query search over the test log ->
/// precision/recall evaluation.
struct PipelineConfig {
  DatasetConfig dataset;
  /// Behaviour query size: the size of the largest patterns the miners are
  /// allowed to explore (Section 6.2 fixes this to 6).
  int query_size = 6;
  /// Number of top-ranked patterns used to build the behaviour query.
  int top_patterns = 5;
  /// NodeSet baseline keyword count.
  int nodeset_k = 6;
  /// Search window = longest observed training lifetime * window_slack.
  double window_slack = 1.25;
  std::int64_t search_match_cap = 200000;
  /// Base miner configuration; max_edges is overridden per run. It is the
  /// TGMiner preset with a 64-pattern list and a support floor of 0.75 — a
  /// behaviour signature occurs in most runs of the behaviour. The miner's
  /// top-k score cut stops the search on tie plateaus once the list is
  /// full, so query formulation gets the top patterns without mining the
  /// whole plateau.
  MinerConfig miner = [] {
    MinerConfig c = MinerConfig::TGMiner();
    c.min_pos_freq = 0.75;
    c.max_embeddings_per_graph = 2000;
    c.top_k = 64;
    return c;
  }();
  GspanConfig gspan = [] {
    GspanConfig c;
    c.min_pos_freq = 0.75;
    c.max_embeddings_per_graph = 2000;
    c.top_k = 64;
    return c;
  }();
};

/// Owns the simulated world, training data and test log, and runs the
/// three approaches of Table 2 (TGMiner, Ntemp, NodeSet) end to end.
///
/// Back-compat facade: since the api/ front door landed, the temporal
/// stages (MineTemporal, SearchTemporal) are thin wrappers over an
/// embedded `api::Session` — the syslog simulator is just one Session
/// data source, its training corpora and test log attached under the
/// names below. New code should use `session()` (or a standalone
/// Session) directly; this class keeps the original
/// constructor-and-stages API for the paper-replication benches and
/// tests, plus the non-temporal baselines (Ntemp, NodeSet) that exist
/// only for Table 2.
class Pipeline {
 public:
  explicit Pipeline(const PipelineConfig& config)
      : config_(config),
        session_(&world_.dict(), [&config] {
          api::SessionOptions options;
          options.search_match_cap = config.search_match_cap;
          return options;
        }()) {}

  /// Not copyable or movable: the embedded session holds pointers into
  /// this object's own members (world_'s dictionary, the training_ /
  /// test_log_ corpus views), which a move would leave dangling in the
  /// moved-to instance. Heap-allocate (or wrap in unique_ptr) to hand a
  /// Pipeline around.
  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;

  /// Generates training and test data and attaches it to the session;
  /// idempotent.
  void Prepare();

  const PipelineConfig& config() const { return config_; }
  SyslogWorld& world() { return world_; }
  const TrainingData& training() const { return training_; }
  const TestLog& test_log() const { return test_log_; }
  const InterestModel& interest() const { return *interest_; }

  /// The underlying api::Session: the simulator's corpora are attached as
  /// PositivesCorpus(i) / kBackgroundCorpus / kTestLogCorpus after
  /// Prepare(). Use it to Mine/Search/Watch/persist BehaviorQuery
  /// artifacts over the simulated world directly.
  api::Session& session() { return session_; }
  const api::Session& session() const { return session_; }

  static constexpr std::string_view kBackgroundCorpus = "train/background";
  static constexpr std::string_view kTestLogCorpus = "test/log";
  static std::string PositivesCorpus(int behavior_idx) {
    return "train/positives/" + std::to_string(behavior_idx);
  }

  /// Positive/negative graph pointer views, truncated to the first
  /// ceil(fraction * n) graphs (the Figure 12/15 training-amount knob).
  std::vector<const TemporalGraph*> Positives(int behavior_idx,
                                              double fraction = 1.0) const;
  std::vector<const TemporalGraph*> Negatives(double fraction = 1.0) const;

  /// Search window for a behaviour (longest observed lifetime * slack).
  Timestamp WindowFor(int behavior_idx) const;

  // --- composable stages -------------------------------------------------

  MineResult MineTemporal(int behavior_idx, const MinerConfig& miner_config,
                          double fraction = 1.0) const;
  std::vector<MinedPattern> TemporalQueries(const MineResult& result) const;
  std::vector<Interval> SearchTemporal(
      int behavior_idx, const std::vector<MinedPattern>& queries) const;

  GspanResult MineStatic(int behavior_idx, double fraction = 1.0);
  std::vector<Interval> SearchStatic(
      int behavior_idx, const std::vector<StaticMinedPattern>& queries) const;

  NodeSetQuery MineNodeSet(int behavior_idx, double fraction = 1.0) const;
  std::vector<Interval> SearchNodeSet(int behavior_idx,
                                      const NodeSetQuery& query) const;

  AccuracyResult Evaluate(int behavior_idx,
                          const std::vector<Interval>& matches) const;

  // --- end-to-end runs (Table 2 cells) -------------------------------------

  AccuracyResult RunTGMiner(int behavior_idx, int query_size = -1,
                            double fraction = 1.0) const;
  AccuracyResult RunNtemp(int behavior_idx, double fraction = 1.0);
  AccuracyResult RunNodeSet(int behavior_idx, double fraction = 1.0) const;

 private:
  const std::vector<StaticGraph>& StaticPositives(int behavior_idx);
  const std::vector<StaticGraph>& StaticNegatives();

  PipelineConfig config_;
  SyslogWorld world_;
  TrainingData training_;
  TestLog test_log_;
  /// Shares world_'s dictionary and holds non-owning corpus views over
  /// training_/test_log_ (attached in Prepare). Declared after them so
  /// the session — and with it the dangling-able views — is destroyed
  /// first; construction order is irrelevant (the constructor only needs
  /// world_.dict()).
  api::Session session_;
  std::optional<InterestModel> interest_;
  std::vector<std::vector<StaticGraph>> static_pos_cache_;
  std::vector<StaticGraph> static_neg_cache_;
  bool prepared_ = false;
};

}  // namespace tgm

#endif  // TGM_QUERY_PIPELINE_H_
