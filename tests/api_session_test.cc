// The tgm::api front door: Status/StatusOr, Session ingestion (generic
// EventRecord streams), corpus management, Mine -> BehaviorQuery, the
// Search/Watch entry-point pair (offline/online interval parity across
// shard counts, including through a persisted-and-reloaded artifact), the
// live Watch/Feed surface, and the fluent config builders.

#include "api/session.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <vector>

#include "api/builders.h"
#include "query/stream/event.h"

namespace tgm {
namespace {

using api::BehaviorQuery;
using api::EventRecord;
using api::MineSpec;
using api::Session;

// One run of the quickstart scenario: login -> read -> send (positive
// order) vs login -> send -> read (benign order). Distinct entity ids per
// run keep log graphs clean.
std::vector<EventRecord> MakeRun(bool exfiltrating, Timestamp base,
                             std::int64_t entity_base = 0) {
  std::int64_t sshd = entity_base + 1;
  std::int64_t bash = entity_base + 2;
  std::int64_t secrets = entity_base + 3;
  std::int64_t remote = entity_base + 4;
  std::vector<EventRecord> events;
  events.push_back({sshd, bash, "proc:sshd", "proc:bash", "op:fork",
                    base + 10});
  if (exfiltrating) {
    events.push_back({secrets, bash, "file:secrets", "proc:bash", "op:read",
                      base + 20});
    events.push_back({bash, remote, "proc:bash", "sock:remote", "op:send",
                      base + 30});
  } else {
    events.push_back({bash, remote, "proc:bash", "sock:remote", "op:send",
                      base + 20});
    events.push_back({secrets, bash, "file:secrets", "proc:bash", "op:read",
                      base + 30});
  }
  return events;
}

// A session with 5 positive and 5 negative runs ingested.
Session TrainedSession() {
  Session session;
  for (int run = 0; run < 5; ++run) {
    TGM_CHECK(session.Ingest("positives", MakeRun(true, 100 * run)).ok());
    TGM_CHECK(session.Ingest("negatives", MakeRun(false, 100 * run)).ok());
  }
  return session;
}

MineSpec BasicSpec() {
  MineSpec spec;
  spec.positives = "positives";
  spec.negatives = "negatives";
  spec.config.max_edges = 3;
  return spec;
}

// A mixed log: positive runs at the given bases, benign runs between
// them, disjoint entities per run.
std::vector<EventRecord> MixedLog(const std::vector<Timestamp>& hits) {
  std::vector<EventRecord> log;
  std::int64_t entity_base = 0;
  Timestamp last = 0;
  for (Timestamp base : hits) {
    auto pos = MakeRun(true, base, entity_base);
    auto neg = MakeRun(false, base + 50, entity_base + 10);
    log.insert(log.end(), pos.begin(), pos.end());
    log.insert(log.end(), neg.begin(), neg.end());
    entity_base += 20;
    last = base;
  }
  std::sort(log.begin(), log.end(),
            [](const EventRecord& a, const EventRecord& b) {
              return a.ts < b.ts;
            });
  (void)last;
  return log;
}

TEST(StatusTest, CodesMessagesAndStatusOr) {
  Status ok = Status::Ok();
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.ToString(), "ok");

  Status bad = Status::InvalidArgument("nope");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(bad.ToString(), "invalid-argument: nope");

  StatusOr<int> value = 42;
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, 42);
  EXPECT_TRUE(value.status().ok());

  StatusOr<int> error = Status::NotFound("gone");
  ASSERT_FALSE(error.ok());
  EXPECT_EQ(error.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(error.status().message(), "gone");
}

TEST(SessionTest, IngestBuildsFinalizedGraphsAndInternedLabels) {
  Session session;
  StatusOr<std::size_t> first = session.Ingest("runs", MakeRun(true, 0));
  StatusOr<std::size_t> second = session.Ingest("runs", MakeRun(false, 0));
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*first, 0u);
  EXPECT_EQ(*second, 1u);

  auto corpus = session.Corpus("runs");
  ASSERT_TRUE(corpus.ok());
  ASSERT_EQ(corpus->size(), 2u);
  const TemporalGraph& g = *(*corpus)[0];
  EXPECT_TRUE(g.finalized());
  EXPECT_EQ(g.node_count(), 4u);
  EXPECT_EQ(g.edge_count(), 3u);
  EXPECT_NE(session.dict().Lookup("proc:sshd"), kInvalidLabel);
  EXPECT_NE(session.dict().Lookup("op:read"), kInvalidLabel);
  // Label id 0 is reserved so kNoEdgeLabel never names a real label.
  EXPECT_EQ(session.dict().Name(kNoEdgeLabel), "<none>");
  EXPECT_EQ(session.CorpusNames(), std::vector<std::string>{"runs"});
}

TEST(SessionTest, IngestValidatesRecords) {
  Session session;
  EXPECT_EQ(session.Ingest("", MakeRun(true, 0)).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(session.Ingest("has space", MakeRun(true, 0)).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(session.Ingest("runs", {}).status().code(),
            StatusCode::kInvalidArgument);

  // Negative timestamp.
  std::vector<EventRecord> bad_ts = {{1, 2, "a", "b", "", -5}};
  EXPECT_EQ(session.Ingest("runs", bad_ts).status().code(),
            StatusCode::kInvalidArgument);

  // Whitespace in a label would break the line-based text formats.
  std::vector<EventRecord> spacey = {{1, 2, "a label", "b", "", 5}};
  EXPECT_EQ(session.Ingest("runs", spacey).status().code(),
            StatusCode::kInvalidArgument);

  // Entity relabeled mid-graph.
  std::vector<EventRecord> relabel = {{1, 2, "a", "b", "", 5},
                                      {1, 3, "c", "d", "", 6}};
  Status relabel_status = session.Ingest("runs", relabel).status();
  EXPECT_EQ(relabel_status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(relabel_status.message().find("relabeled"), std::string::npos);

  // Nothing half-ingested.
  EXPECT_EQ(session.Corpus("runs").status().code(), StatusCode::kNotFound);
}

TEST(SessionTest, UnknownCorpusIsNotFoundWithInventory) {
  Session session = TrainedSession();
  StatusOr<MineResult> missing = session.MineRaw([] {
    MineSpec spec;
    spec.positives = "no-such-corpus";
    spec.negatives = "negatives";
    return spec;
  }());
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  // The message lists what exists, so typos are debuggable.
  EXPECT_NE(missing.status().message().find("positives"), std::string::npos);
}

TEST(SessionTest, MineProducesRankedProvenancedArtifact) {
  Session session = TrainedSession();
  StatusOr<BehaviorQuery> mined = session.Mine(BasicSpec());
  ASSERT_TRUE(mined.ok());
  ASSERT_FALSE(mined->empty());
  // Patterns arrive ranked by descending score.
  for (std::size_t i = 1; i < mined->size(); ++i) {
    EXPECT_GE(mined->patterns()[i - 1].score, mined->patterns()[i].score);
  }
  EXPECT_GT(mined->patterns()[0].score, 0.0);
  EXPECT_EQ(mined->patterns()[0].freq_pos, 1.0);
  // Window derived from the longest positive span (20) * slack 1.25.
  EXPECT_EQ(mined->window(), 25);
  EXPECT_EQ(mined->provenance().positive_graphs, 5);
  EXPECT_EQ(mined->provenance().negative_graphs, 5);
  EXPECT_EQ(mined->provenance().positives, "positives");
  EXPECT_GT(mined->provenance().patterns_visited, 0);
  EXPECT_FALSE(mined->provenance().truncated);
}

TEST(SessionTest, MineValidatesSpec) {
  Session session = TrainedSession();
  MineSpec spec = BasicSpec();
  spec.fraction = 0.0;
  EXPECT_EQ(session.Mine(spec).status().code(),
            StatusCode::kInvalidArgument);
  spec = BasicSpec();
  spec.top_patterns = 0;
  EXPECT_EQ(session.Mine(spec).status().code(),
            StatusCode::kInvalidArgument);
  spec = BasicSpec();
  spec.config.max_edges = 0;  // caught by the builder validation
  EXPECT_EQ(session.Mine(spec).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SessionTest, MineFractionSubsamplesTraining) {
  Session session = TrainedSession();
  MineSpec spec = BasicSpec();
  spec.fraction = 0.4;  // ceil(0.4 * 5) = 2 graphs per side
  StatusOr<BehaviorQuery> mined = session.Mine(spec);
  ASSERT_TRUE(mined.ok());
  EXPECT_EQ(mined->provenance().positive_graphs, 2);
  EXPECT_EQ(mined->provenance().negative_graphs, 2);
}

// The acceptance pin: Search and Watch (1/2/4 shards) return identical
// intervals for the same persisted-and-reloaded BehaviorQuery.
TEST(SessionTest, SearchAndWatchAgreeAcrossShardsOnReloadedQuery) {
  Session session = TrainedSession();
  StatusOr<BehaviorQuery> mined = session.Mine(BasicSpec());
  ASSERT_TRUE(mined.ok());

  // Persist the artifact...
  std::stringstream artifact;
  ASSERT_TRUE(session.SaveQuery(*mined, artifact).ok());

  // ...and reload it in a fresh session whose dictionary interns in a
  // different order (decoys first), so every label id differs.
  Session analyst;
  analyst.dict().Intern("decoy:a");
  analyst.dict().Intern("decoy:b");
  ASSERT_TRUE(
      analyst.Ingest("log", MixedLog({1000, 2000, 3000, 4000})).ok());
  StatusOr<BehaviorQuery> reloaded = analyst.LoadQuery(artifact);
  ASSERT_TRUE(reloaded.ok());

  StatusOr<std::vector<Interval>> offline =
      analyst.Search(*reloaded, "log");
  ASSERT_TRUE(offline.ok());
  ASSERT_FALSE(offline->empty());

  for (int shards : {1, 2, 4}) {
    api::WatchOptions options;
    options.shards = shards;
    StatusOr<std::vector<Interval>> online =
        analyst.Watch(*reloaded, "log", options);
    ASSERT_TRUE(online.ok());
    EXPECT_EQ(*online, *offline) << "shards=" << shards;
    options.batch_size = 32;
    StatusOr<std::vector<Interval>> batched =
        analyst.Watch(*reloaded, "log", options);
    ASSERT_TRUE(batched.ok());
    EXPECT_EQ(*batched, *offline) << "shards=" << shards << " batch=32";
  }

  // The reloaded artifact also behaves exactly like the in-memory one:
  // the mining session searching the same log (its own interning) agrees.
  ASSERT_TRUE(
      session.Ingest("log", MixedLog({1000, 2000, 3000, 4000})).ok());
  StatusOr<std::vector<Interval>> original = session.Search(*mined, "log");
  ASSERT_TRUE(original.ok());
  EXPECT_EQ(*original, *offline);
}

// The constrained acceptance pin: a query sharpened with timed-automata
// guards keeps the Search/Watch interval parity across 1/2/4 shards and
// batch sizes, including through a persisted-and-reloaded (version-2)
// tquery artifact in a session with a different interning order.
TEST(SessionTest, ConstrainedSearchAndWatchAgreeAcrossShardsOnReload) {
  Session session = TrainedSession();
  StatusOr<BehaviorQuery> mined = session.Mine(BasicSpec());
  ASSERT_TRUE(mined.ok());
  ASSERT_FALSE(mined->empty());

  // Sharpen every pattern: per-transition max gap 15 (true runs step by
  // 10) plus the mined window as an explicit deadline.
  for (std::size_t i = 0; i < mined->size(); ++i) {
    const Pattern& p = mined->patterns()[i].pattern;
    api::QueryConstraintsBuilder builder(p.edge_count());
    for (std::size_t k = 1; k < p.edge_count(); ++k) builder.MaxGap(k, 15);
    builder.Deadline(mined->window());
    StatusOr<TemporalConstraints> built = builder.Build(p);
    ASSERT_TRUE(built.ok()) << built.status().message();
    mined->set_constraints(i, *std::move(built));
  }
  ASSERT_TRUE(mined->constrained());
  ASSERT_TRUE(mined->Validate().ok());

  std::stringstream artifact;
  ASSERT_TRUE(session.SaveQuery(*mined, artifact).ok());
  EXPECT_EQ(artifact.str().rfind("tquery 2 ", 0), 0u);  // version bumped

  Session analyst;
  analyst.dict().Intern("decoy:a");  // shift every label id
  ASSERT_TRUE(
      analyst.Ingest("log", MixedLog({1000, 2000, 3000, 4000})).ok());
  StatusOr<BehaviorQuery> reloaded = analyst.LoadQuery(artifact);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  ASSERT_TRUE(reloaded->constrained());

  StatusOr<std::vector<Interval>> offline = analyst.Search(*reloaded, "log");
  ASSERT_TRUE(offline.ok());
  ASSERT_FALSE(offline->empty());  // guards must not kill the true matches

  for (int shards : {1, 2, 4}) {
    for (std::size_t batch : {std::size_t{1}, std::size_t{32}}) {
      api::WatchOptions options;
      options.shards = shards;
      options.batch_size = batch;
      StatusOr<std::vector<Interval>> online =
          analyst.Watch(*reloaded, "log", options);
      ASSERT_TRUE(online.ok());
      EXPECT_EQ(*online, *offline) << "shards=" << shards
                                   << " batch=" << batch;
    }
  }

  // The reloaded constrained artifact behaves exactly like the in-memory
  // one in the mining session (its own interning order).
  ASSERT_TRUE(
      session.Ingest("log", MixedLog({1000, 2000, 3000, 4000})).ok());
  StatusOr<std::vector<Interval>> original = session.Search(*mined, "log");
  ASSERT_TRUE(original.ok());
  EXPECT_EQ(*original, *offline);
}

// The degenerate-case parity pin (api half): infinite gaps and
// single-alternative labels are the unconstrained query, bit for bit,
// offline and online.
TEST(SessionTest, TrivialConstraintsMatchUnconstrainedEndToEnd) {
  Session session = TrainedSession();
  StatusOr<BehaviorQuery> plain = session.Mine(BasicSpec());
  ASSERT_TRUE(plain.ok());

  BehaviorQuery degenerate = *plain;
  for (std::size_t i = 0; i < degenerate.size(); ++i) {
    const Pattern& p = degenerate.patterns()[i].pattern;
    TemporalConstraints c(p.edge_count());
    for (std::size_t k = 0; k < p.edge_count(); ++k) {
      c.mutable_guard(k).min_gap = 0;
      c.mutable_guard(k).max_gap = kNoGapLimit;
      // The single alternative is the pattern's own edge label.
      c.mutable_guard(k).elabel_alts = {p.edge(k).elabel};
    }
    degenerate.set_constraints(i, std::move(c));
  }
  ASSERT_TRUE(degenerate.Validate().ok());

  ASSERT_TRUE(session.Ingest("log", MixedLog({500, 1500, 2500})).ok());
  StatusOr<std::vector<Interval>> want = session.Search(*plain, "log");
  StatusOr<std::vector<Interval>> got = session.Search(degenerate, "log");
  ASSERT_TRUE(want.ok());
  ASSERT_TRUE(got.ok());
  ASSERT_FALSE(want->empty());
  EXPECT_EQ(*got, *want);

  for (int shards : {1, 2, 4}) {
    api::WatchOptions options;
    options.shards = shards;
    StatusOr<std::vector<Interval>> watched_plain =
        session.Watch(*plain, "log", options);
    StatusOr<std::vector<Interval>> watched_degenerate =
        session.Watch(degenerate, "log", options);
    ASSERT_TRUE(watched_plain.ok());
    ASSERT_TRUE(watched_degenerate.ok());
    EXPECT_EQ(*watched_plain, *want) << "shards=" << shards;
    EXPECT_EQ(*watched_degenerate, *want) << "shards=" << shards;
  }
}

TEST(SessionTest, LiveWatchFeedMatchesOfflineSearch) {
  Session session = TrainedSession();
  StatusOr<BehaviorQuery> mined = session.Mine(BasicSpec());
  ASSERT_TRUE(mined.ok());

  std::vector<EventRecord> log = MixedLog({1000, 2000, 3000});
  ASSERT_TRUE(session.Ingest("log", log).ok());
  StatusOr<std::vector<Interval>> offline = session.Search(*mined, "log");
  ASSERT_TRUE(offline.ok());
  ASSERT_FALSE(offline->empty());

  StatusOr<api::WatchId> watch = session.Watch(*mined);
  ASSERT_TRUE(watch.ok());
  EXPECT_EQ(*watch, 0u);

  std::vector<Interval> live;
  auto sink = [&](const api::WatchAlert& alert) {
    EXPECT_EQ(alert.watch, 0u);
    EXPECT_LT(alert.pattern, mined->size());
    live.push_back(alert.interval);
  };
  for (const EventRecord& record : log) {
    ASSERT_TRUE(session.Feed(record, sink).ok());
  }
  ASSERT_TRUE(session.FlushWatches(sink).ok());
  std::sort(live.begin(), live.end());
  live.erase(std::unique(live.begin(), live.end()), live.end());
  EXPECT_EQ(live, *offline);

  EngineStats stats = session.WatchStats();
  EXPECT_GT(stats.alerts, 0);
  EXPECT_EQ(stats.dropped_partials, 0);
}

TEST(SessionTest, WatchAndFeedValidateCallOrder) {
  Session session = TrainedSession();
  // Feeding with no watches registered is a sequencing error.
  EXPECT_EQ(session
                .Feed(EventRecord{1, 2, "a", "b", "", 5},
                      [](const api::WatchAlert&) {})
                .code(),
            StatusCode::kFailedPrecondition);

  // Watching an empty artifact is invalid.
  EXPECT_EQ(session.Watch(BehaviorQuery{}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SessionTest, AttachCorpusRequiresFinalizedGraphs) {
  Session session;
  std::vector<TemporalGraph> graphs(1);
  graphs[0].AddNode(session.dict().Intern("a"));
  EXPECT_EQ(session.AttachCorpus("ext", graphs).code(),
            StatusCode::kInvalidArgument);
  graphs[0].Finalize();
  EXPECT_TRUE(session.AttachCorpus("ext", graphs).ok());
  auto corpus = session.Corpus("ext");
  ASSERT_TRUE(corpus.ok());
  EXPECT_EQ((*corpus)[0], &graphs[0]);  // non-owning view, no copy
}

TEST(SessionTest, SelfLoopsIngestableButNotMinable) {
  // Log corpora may contain self-loop events (Search/Watch handle them);
  // only mining forbids them, and it must fail with a status — not crash
  // in the miner — whichever ingestion path built the corpus.
  Session session;
  std::vector<EventRecord> with_loop = {{1, 2, "a", "b", "", 5},
                                        {2, 2, "b", "b", "", 6}};
  ASSERT_TRUE(session.Ingest("pos", with_loop).ok());  // ingestion is fine
  ASSERT_TRUE(session.Ingest("neg", MakeRun(false, 0)).ok());

  MineSpec spec;
  spec.positives = "pos";
  spec.negatives = "neg";
  Status status = session.Mine(spec).status();
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(status.message().find("self-loop"), std::string::npos);

  // Same for a pre-built graph via IngestGraph.
  TemporalGraph loop;
  NodeId v = loop.AddNode(session.dict().Intern("a"));
  NodeId w = loop.AddNode(session.dict().Intern("b"));
  loop.AddEdge(v, w, 1);
  loop.AddEdge(w, w, 2);  // self-loop
  ASSERT_TRUE(session.IngestGraph("pos2", std::move(loop)).ok());
  spec.positives = "pos2";
  EXPECT_EQ(session.Mine(spec).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(SessionTest, MineSurfacesEmptyResultAsStatus) {
  // A config no pattern can satisfy must yield a diagnostic status, not
  // an OK-but-unexecutable empty artifact: two positive runs over
  // disjoint label alphabets mean no pattern reaches min_pos_freq 1.0.
  Session session;
  std::vector<EventRecord> p1 = {{1, 2, "x1", "x2", "", 1}};
  std::vector<EventRecord> p2 = {{1, 2, "y1", "y2", "", 1}};
  ASSERT_TRUE(session.Ingest("pos", p1).ok());
  ASSERT_TRUE(session.Ingest("pos", p2).ok());
  ASSERT_TRUE(session.Ingest("neg", MakeRun(false, 0)).ok());

  MineSpec spec;
  spec.positives = "pos";
  spec.negatives = "neg";
  spec.config.min_pos_freq = 1.0;
  Status status = session.Mine(spec).status();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(status.message().find("no discriminative patterns"),
            std::string::npos);
}

TEST(SessionTest, AdaptiveRootBatchMinesTheSerialBestScore) {
  // Session runs every config through MinerConfigBuilder::Build(), which
  // accepts root_batch = 0 (adaptive subtree batches); the batched search
  // keeps the serial search's best score.
  Session session = TrainedSession();
  StatusOr<MineResult> serial = session.MineRaw(BasicSpec());
  ASSERT_TRUE(serial.ok());
  MineSpec spec = BasicSpec();
  spec.config.num_threads = 2;
  spec.config.root_batch = 0;
  StatusOr<MineResult> adaptive = session.MineRaw(spec);
  ASSERT_TRUE(adaptive.ok());
  EXPECT_EQ(adaptive->best_score, serial->best_score);
  ASSERT_FALSE(adaptive->top.empty());
  EXPECT_EQ(adaptive->top[0].score, serial->top[0].score);
}

TEST(BuildersTest, MinerConfigBuilderValidates) {
  StatusOr<MinerConfig> ok = api::MinerConfigBuilder("SubPrune")
                                 .MaxEdges(4)
                                 .TopK(8)
                                 .MinPosFreq(0.5)
                                 .Threads(2)
                                 .RootBatch(4)
                                 .Build();
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->max_edges, 4);
  EXPECT_EQ(ok->top_k, 8);
  EXPECT_FALSE(ok->use_supergraph_pruning);  // the SubPrune preset

  EXPECT_FALSE(api::MinerConfigBuilder().MaxEdges(0).Build().ok());
  EXPECT_FALSE(api::MinerConfigBuilder().TopK(0).Build().ok());
  EXPECT_FALSE(api::MinerConfigBuilder().MinPosFreq(1.5).Build().ok());
  EXPECT_FALSE(api::MinerConfigBuilder().Threads(-1).Build().ok());
  EXPECT_TRUE(api::MinerConfigBuilder().RootBatch(0).Build().ok());
  EXPECT_FALSE(api::MinerConfigBuilder().RootBatch(-1).Build().ok());
  EXPECT_FALSE(api::MinerConfigBuilder().MaxMillis(-1).Build().ok());
}

TEST(BuildersTest, SessionOptionsBuilderValidates) {
  StatusOr<api::SessionOptions> ok = api::SessionOptionsBuilder()
                                         .WatchShards(4)
                                         .WatchBatchSize(64)
                                         .SearchMatchCap(1000)
                                         .Build();
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->watch_shards, 4);
  EXPECT_EQ(ok->watch_batch_size, 64u);

  EXPECT_FALSE(api::SessionOptionsBuilder().SearchMatchCap(0).Build().ok());
  EXPECT_FALSE(api::SessionOptionsBuilder().WatchBatchSize(0).Build().ok());
}

}  // namespace
}  // namespace tgm
