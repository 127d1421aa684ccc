// Cybersecurity behaviour hunt — the paper's Example 1 end to end, on the
// tgm::api front door.
//
// A security analyst wants to find every sshd login in a week of syscall
// logs without hand-writing a query over low-level entities. The
// workflow:
//  1. run sshd-login repeatedly in a closed environment (the bundled
//     simulator — just one Session data source),
//  2. Session::Mine its most discriminative temporal patterns against
//     background, ranked with the domain-knowledge interest score,
//  3. persist the BehaviorQuery artifact,
//  4. in a *fresh analyst session*, reload the artifact, ingest the 7-day
//     monitoring log as generic event records, and Session::Search it —
//     every identified login with its time interval, scored against
//     ground truth,
//  5. sharpen the query with timed-automata max-gap guards
//     (QueryConstraintsBuilder) and show the guard eliminating a decoy —
//     the same syscalls as a real login, stretched by one implausibly
//     long pause — that window-only matching cannot reject.

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <vector>

#include "api/builders.h"
#include "query/pipeline.h"

int main() {
  using namespace tgm;

  PipelineConfig config;
  config.dataset.runs_per_behavior = 12;
  config.dataset.background_graphs = 60;
  config.dataset.test_instances = 60;
  config.dataset.seed = 7;
  config.query_size = 6;
  // A visit budget, not a wall-clock one, so the output does not depend
  // on machine load. The complete search visits 156,435 patterns and ranks
  // the same top five as its first 20,000, at about a third of the time.
  config.miner.max_visited = 20000;

  Pipeline pipeline(config);
  std::printf("collecting closed-environment syscall logs...\n");
  pipeline.Prepare();

  int sshd_idx = 0;
  while (AllBehaviors()[static_cast<std::size_t>(sshd_idx)] !=
         BehaviorKind::kSshdLogin) {
    ++sshd_idx;
  }

  std::printf("mining discriminative temporal patterns for sshd-login...\n");
  api::MineSpec spec;
  spec.positives = Pipeline::PositivesCorpus(sshd_idx);
  spec.negatives = std::string(Pipeline::kBackgroundCorpus);
  spec.config = pipeline.config().miner;
  spec.config.max_edges = config.query_size;
  spec.interest = &pipeline.interest();
  spec.window = pipeline.WindowFor(sshd_idx);
  StatusOr<api::BehaviorQuery> mined = pipeline.session().Mine(spec);
  if (!mined.ok()) {
    std::printf("mining failed: %s\n", mined.status().ToString().c_str());
    return 1;
  }
  std::printf("  explored %lld patterns in %.2fs\n",
              static_cast<long long>(mined->provenance().patterns_visited),
              mined->provenance().elapsed_seconds);
  std::printf("behavior query built from %zu top-ranked patterns:\n",
              mined->size());
  for (const MinedPattern& q : mined->patterns()) {
    std::printf("  %s\n", q.pattern.ToString(&pipeline.world().dict()).c_str());
  }

  // Persist the artifact; any future session can run it.
  std::stringstream artifact;
  if (Status saved = pipeline.session().SaveQuery(*mined, artifact);
      !saved.ok()) {
    std::printf("save failed: %s\n", saved.ToString().c_str());
    return 1;
  }
  std::printf("persisted the query as a %zu-byte tquery artifact\n",
              artifact.str().size());

  // The analyst's session: fresh dictionary, fresh corpora. The weekly
  // monitoring log arrives as generic event records (entity ids +
  // labels), as from any real audit source.
  api::Session analyst;
  StatusOr<api::BehaviorQuery> query = analyst.LoadQuery(artifact);
  if (!query.ok()) {
    std::printf("load failed: %s\n", query.status().ToString().c_str());
    return 1;
  }

  const TemporalGraph& log = pipeline.test_log().graph;
  const LabelDict& dict = pipeline.world().dict();
  std::vector<api::EventRecord> week;
  week.reserve(log.edge_count());
  Timestamp last_ts = 0;
  for (const TemporalEdge& e : log.edges()) {
    week.push_back(api::EventRecord{
        e.src, e.dst, dict.Name(log.label(e.src)), dict.Name(log.label(e.dst)),
        e.elabel == kNoEdgeLabel ? "" : dict.Name(e.elabel), e.ts});
    last_ts = std::max(last_ts, e.ts);
  }
  if (auto ingested = analyst.Ingest("seven-day-log", week); !ingested.ok()) {
    std::printf("ingest failed: %s\n",
                ingested.status().ToString().c_str());
    return 1;
  }
  std::printf("searching the 7-day monitoring log (%zu events)...\n",
              week.size());
  StatusOr<std::vector<Interval>> matches =
      analyst.Search(*query, "seven-day-log");
  if (!matches.ok()) {
    std::printf("search failed: %s\n", matches.status().ToString().c_str());
    return 1;
  }
  AccuracyResult accuracy = pipeline.Evaluate(sshd_idx, *matches);

  std::printf("identified %lld sshd-login instances "
              "(precision %.1f%%, recall %.1f%%)\n",
              static_cast<long long>(accuracy.identified),
              100 * accuracy.precision(), 100 * accuracy.recall());
  std::size_t shown = 0;
  for (const Interval& m : *matches) {
    if (shown++ >= 5) {
      std::printf("  ... and %zu more\n", matches->size() - 5);
      break;
    }
    std::printf("  login activity in [%lld, %lld]\n",
                static_cast<long long>(m.begin),
                static_cast<long long>(m.end));
  }

  // --- sharpening the hunt with timed-automata gap guards ---------------
  // An evasion attempt: replay the query's top pattern event by event with
  // fresh entities, but stretch the pause after the seed edge to nearly
  // the whole search window. The span still fits the window, so the
  // window-only query flags it; a real login's events come in a burst, so
  // a max-gap guard between consecutive edges rejects the stretched chain
  // without losing a single true match.
  std::size_t top = mined->size();
  for (std::size_t i = 0; i < mined->size(); ++i) {
    if (mined->patterns()[i].pattern.edge_count() >= 2) {
      top = i;
      break;
    }
  }
  if (top == mined->size()) {
    std::printf("no multi-edge pattern mined; cannot demo gap guards\n");
    return 1;
  }
  const Pattern& shape = mined->patterns()[top].pattern;
  const Timestamp window = mined->window();
  const Timestamp hops = static_cast<Timestamp>(shape.edge_count()) - 1;
  // One slow hop of (window - hops) then 1-tick hops: total span
  // window - 1, inside the window but with a pause no real login shows.
  const Timestamp slow_gap = window - hops;
  const Timestamp max_gap = slow_gap - 1;
  const Timestamp decoy_start = last_ts + window + 1;
  const std::int64_t decoy_entity_base = 10'000'000;
  std::vector<api::EventRecord> decoy;
  Timestamp ts = decoy_start;
  for (std::size_t k = 0; k < shape.edge_count(); ++k) {
    const PatternEdge& e = shape.edge(k);
    if (k == 1) ts += slow_gap;
    else if (k > 1) ts += 1;
    decoy.push_back(api::EventRecord{
        decoy_entity_base + e.src, decoy_entity_base + e.dst,
        dict.Name(shape.label(e.src)), dict.Name(shape.label(e.dst)),
        e.elabel == kNoEdgeLabel ? "" : dict.Name(e.elabel), ts});
  }
  std::vector<api::EventRecord> week_with_decoy = week;
  week_with_decoy.insert(week_with_decoy.end(), decoy.begin(), decoy.end());
  if (auto ingested = analyst.Ingest("seven-day-log+decoy", week_with_decoy);
      !ingested.ok()) {
    std::printf("decoy ingest failed: %s\n",
                ingested.status().ToString().c_str());
    return 1;
  }

  api::BehaviorQuery plain({query->patterns()[top]}, window);
  api::QueryConstraintsBuilder guards(shape.edge_count());
  for (std::size_t k = 1; k < shape.edge_count(); ++k) {
    guards.MaxGap(k, max_gap);
  }
  StatusOr<TemporalConstraints> built =
      guards.Build(query->patterns()[top].pattern);
  if (!built.ok()) {
    std::printf("constraint build failed: %s\n",
                built.status().ToString().c_str());
    return 1;
  }
  api::BehaviorQuery sharpened = plain;
  sharpened.set_constraints(0, *built);

  // Guards persist with the artifact (tquery version 2): reload before
  // searching so the smoke run covers the constrained round-trip too.
  std::stringstream sharpened_artifact;
  if (Status saved = analyst.SaveQuery(sharpened, sharpened_artifact);
      !saved.ok()) {
    std::printf("constrained save failed: %s\n", saved.ToString().c_str());
    return 1;
  }
  if (sharpened_artifact.str().rfind("tquery 2 ", 0) != 0) {
    std::printf("constrained artifact is not tquery version 2\n");
    return 1;
  }
  StatusOr<api::BehaviorQuery> resharpened =
      analyst.LoadQuery(sharpened_artifact);
  if (!resharpened.ok()) {
    std::printf("constrained reload failed: %s\n",
                resharpened.status().ToString().c_str());
    return 1;
  }

  StatusOr<std::vector<Interval>> plain_hits =
      analyst.Search(plain, "seven-day-log+decoy");
  StatusOr<std::vector<Interval>> sharp_hits =
      analyst.Search(*resharpened, "seven-day-log+decoy");
  if (!plain_hits.ok() || !sharp_hits.ok()) {
    std::printf("constrained search failed\n");
    return 1;
  }
  auto hits_decoy = [&](const std::vector<Interval>& hits) {
    return std::any_of(hits.begin(), hits.end(), [&](const Interval& m) {
      return m.end >= decoy_start;
    });
  };
  bool plain_fooled = hits_decoy(*plain_hits);
  bool sharp_fooled = hits_decoy(*sharp_hits);
  bool sharp_subset = std::all_of(
      sharp_hits->begin(), sharp_hits->end(), [&](const Interval& m) {
        return std::find(plain_hits->begin(), plain_hits->end(), m) !=
               plain_hits->end();
      });
  std::printf("decoy chain planted at t=%lld with a %lld-tick pause "
              "(window %lld)\n",
              static_cast<long long>(decoy_start),
              static_cast<long long>(slow_gap),
              static_cast<long long>(window));
  std::printf("  window-only query:   %zu matches, decoy %s\n",
              plain_hits->size(), plain_fooled ? "FLAGGED" : "missed");
  std::printf("  max-gap(%lld) query: %zu matches, decoy %s\n",
              static_cast<long long>(max_gap), sharp_hits->size(),
              sharp_fooled ? "flagged" : "REJECTED");
  bool guards_work = plain_fooled && !sharp_fooled && sharp_subset &&
                     !sharp_hits->empty();
  if (!guards_work) {
    std::printf("gap-guard demo failed (plain_fooled=%d sharp_fooled=%d "
                "subset=%d sharp_matches=%zu)\n",
                plain_fooled, sharp_fooled, sharp_subset,
                sharp_hits->size());
  }

  return accuracy.identified > 0 && guards_work ? 0 : 1;
}
