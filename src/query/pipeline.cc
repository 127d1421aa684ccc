#include "query/pipeline.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <string>

namespace tgm {

namespace {

// The one shared definition of the Figure 12/15 training-amount rounding
// (api/session.h), so Pipeline subsampling and Session::Mine cannot drift.
using api::TrainingFractionCount;

// The facade keeps the historical crash-on-misuse contract, but the api
// Status carries the actual diagnosis — print it before dying instead of
// losing it to a bare TGM_CHECK expression.
void CheckOk(const Status& status, const char* where) {
  if (!status.ok()) {
    std::fprintf(stderr, "%s: %s\n", where, status.ToString().c_str());
  }
  TGM_CHECK(status.ok());
}

template <typename T>
T UnwrapOrDie(StatusOr<T> value, const char* where) {
  CheckOk(value.status(), where);
  return *std::move(value);
}

}  // namespace

void Pipeline::Prepare() {
  if (prepared_) return;
  training_ = BuildTrainingData(world_, config_.dataset);
  test_log_ = BuildTestLog(world_, config_.dataset);
  std::vector<const std::vector<TemporalGraph>*> sets;
  for (const auto& positives : training_.positives) sets.push_back(&positives);
  sets.push_back(&training_.background);
  interest_.emplace(sets, world_.dict());
  static_pos_cache_.resize(training_.positives.size());
  // The simulator is just one Session data source: attach its corpora
  // (non-owning views; training_/test_log_ are members, so they outlive
  // the session) and run every temporal stage through the api/ layer.
  for (std::size_t i = 0; i < training_.positives.size(); ++i) {
    CheckOk(session_.AttachCorpus(PositivesCorpus(static_cast<int>(i)),
                                  training_.positives[i]),
            "Pipeline::Prepare");
  }
  CheckOk(session_.AttachCorpus(kBackgroundCorpus, training_.background),
          "Pipeline::Prepare");
  CheckOk(session_.AttachCorpus(
              kTestLogCorpus,
              std::span<const TemporalGraph>(&test_log_.graph, 1)),
          "Pipeline::Prepare");
  prepared_ = true;
}

std::vector<const TemporalGraph*> Pipeline::Positives(int behavior_idx,
                                                      double fraction) const {
  TGM_CHECK(prepared_);
  const auto& graphs =
      training_.positives[static_cast<std::size_t>(behavior_idx)];
  std::size_t count = TrainingFractionCount(graphs.size(), fraction);
  std::vector<const TemporalGraph*> ptrs;
  ptrs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) ptrs.push_back(&graphs[i]);
  return ptrs;
}

std::vector<const TemporalGraph*> Pipeline::Negatives(double fraction) const {
  TGM_CHECK(prepared_);
  std::size_t count =
      TrainingFractionCount(training_.background.size(), fraction);
  std::vector<const TemporalGraph*> ptrs;
  ptrs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    ptrs.push_back(&training_.background[i]);
  }
  return ptrs;
}

Timestamp Pipeline::WindowFor(int behavior_idx) const {
  TGM_CHECK(prepared_);
  Timestamp duration =
      training_.max_duration[static_cast<std::size_t>(behavior_idx)];
  return static_cast<Timestamp>(
      std::llround(static_cast<double>(duration) * config_.window_slack));
}

MineResult Pipeline::MineTemporal(int behavior_idx,
                                  const MinerConfig& miner_config,
                                  double fraction) const {
  TGM_CHECK(prepared_);
  api::MineSpec spec;
  spec.positives = PositivesCorpus(behavior_idx);
  spec.negatives = std::string(kBackgroundCorpus);
  spec.config = miner_config;
  // The legacy stage clamped out-of-range fractions (<= 0 meant "one
  // graph", > 1 meant "everything", as Positives/Negatives still do);
  // the api validates instead, so translate before delegating.
  double clamped = fraction > 1.0 ? 1.0 : fraction;
  if (!(clamped > 0.0)) clamped = std::numeric_limits<double>::min();  // NaN too
  spec.fraction = clamped;
  return UnwrapOrDie(session_.MineRaw(spec), "Pipeline::MineTemporal");
}

std::vector<MinedPattern> Pipeline::TemporalQueries(
    const MineResult& result) const {
  return SelectTopQueries(result.top, *interest_, config_.top_patterns);
}

std::vector<Interval> Pipeline::SearchTemporal(
    int behavior_idx, const std::vector<MinedPattern>& queries) const {
  TGM_CHECK(prepared_);
  if (queries.empty()) return {};
  api::BehaviorQuery query(queries, WindowFor(behavior_idx));
  return UnwrapOrDie(session_.Search(query, kTestLogCorpus),
                     "Pipeline::SearchTemporal");
}

const std::vector<StaticGraph>& Pipeline::StaticPositives(int behavior_idx) {
  auto& cache = static_pos_cache_[static_cast<std::size_t>(behavior_idx)];
  if (cache.empty()) {
    for (const TemporalGraph& g :
         training_.positives[static_cast<std::size_t>(behavior_idx)]) {
      cache.push_back(StaticGraph::Collapse(g));
    }
  }
  return cache;
}

const std::vector<StaticGraph>& Pipeline::StaticNegatives() {
  if (static_neg_cache_.empty()) {
    for (const TemporalGraph& g : training_.background) {
      static_neg_cache_.push_back(StaticGraph::Collapse(g));
    }
  }
  return static_neg_cache_;
}

GspanResult Pipeline::MineStatic(int behavior_idx, double fraction) {
  TGM_CHECK(prepared_);
  const auto& pos = StaticPositives(behavior_idx);
  const auto& neg = StaticNegatives();
  std::size_t pos_count = TrainingFractionCount(pos.size(), fraction);
  std::size_t neg_count = TrainingFractionCount(neg.size(), fraction);
  std::vector<const StaticGraph*> pos_ptrs;
  for (std::size_t i = 0; i < pos_count; ++i) pos_ptrs.push_back(&pos[i]);
  std::vector<const StaticGraph*> neg_ptrs;
  for (std::size_t i = 0; i < neg_count; ++i) neg_ptrs.push_back(&neg[i]);
  GspanConfig cfg = config_.gspan;
  cfg.max_edges = config_.query_size;
  if (cfg.max_millis == 0) cfg.max_millis = config_.miner.max_millis;
  GspanMiner miner(cfg, std::move(pos_ptrs), std::move(neg_ptrs));
  return miner.Mine();
}

std::vector<Interval> Pipeline::SearchStatic(
    int behavior_idx, const std::vector<StaticMinedPattern>& queries) const {
  StaticQuerySearcher::Options options;
  options.window = WindowFor(behavior_idx);
  options.max_matches = config_.search_match_cap;
  StaticQuerySearcher searcher(options);
  std::vector<StaticGraph> patterns;
  patterns.reserve(queries.size());
  for (const StaticMinedPattern& q : queries) patterns.push_back(q.graph);
  return searcher.SearchAll(patterns, test_log_.graph);
}

NodeSetQuery Pipeline::MineNodeSet(int behavior_idx, double fraction) const {
  return NodeSetQuery::Mine(Positives(behavior_idx, fraction),
                            Negatives(fraction), config_.nodeset_k,
                            config_.miner.score_kind, config_.miner.epsilon,
                            config_.miner.min_pos_freq);
}

std::vector<Interval> Pipeline::SearchNodeSet(int behavior_idx,
                                              const NodeSetQuery& query)
    const {
  NodeSetSearcher::Options options;
  options.window = WindowFor(behavior_idx);
  options.max_matches = config_.search_match_cap;
  NodeSetSearcher searcher(options);
  return searcher.Search(query, test_log_.graph);
}

AccuracyResult Pipeline::Evaluate(int behavior_idx,
                                  const std::vector<Interval>& matches)
    const {
  return EvaluateAccuracy(
      matches, test_log_.truth,
      AllBehaviors()[static_cast<std::size_t>(behavior_idx)]);
}

AccuracyResult Pipeline::RunTGMiner(int behavior_idx, int query_size,
                                    double fraction) const {
  MinerConfig cfg = config_.miner;
  cfg.max_edges = query_size > 0 ? query_size : config_.query_size;
  MineResult result = MineTemporal(behavior_idx, cfg, fraction);
  std::vector<MinedPattern> queries = TemporalQueries(result);
  std::vector<Interval> matches = SearchTemporal(behavior_idx, queries);
  return Evaluate(behavior_idx, matches);
}

AccuracyResult Pipeline::RunNtemp(int behavior_idx, double fraction) {
  GspanResult result = MineStatic(behavior_idx, fraction);
  std::vector<StaticMinedPattern> queries = result.top;
  if (static_cast<int>(queries.size()) > config_.top_patterns) {
    queries.resize(static_cast<std::size_t>(config_.top_patterns));
  }
  std::vector<Interval> matches = SearchStatic(behavior_idx, queries);
  return Evaluate(behavior_idx, matches);
}

AccuracyResult Pipeline::RunNodeSet(int behavior_idx, double fraction) const {
  NodeSetQuery query = MineNodeSet(behavior_idx, fraction);
  std::vector<Interval> matches = SearchNodeSet(behavior_idx, query);
  return Evaluate(behavior_idx, matches);
}

}  // namespace tgm
