// Live surveillance — the intro's "the formulated behavior queries can
// also be applied on the real-time monitoring data for surveillance and
// policy compliance checking", on the tgm::api front door.
//
// We mine a BehaviorQuery for scp-download offline, register it with the
// session's live stream engine (Session::Watch), then replay the 7-day
// monitoring log as a live event stream (Session::Feed). Alerts fire the
// moment a query completes — no offline search pass, bounded memory —
// and the same artifact replayed through Session::Watch over the log
// corpus with 2 shards produces identical intervals.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "query/pipeline.h"
#include "query/stream/event.h"

int main() {
  using namespace tgm;

  PipelineConfig config;
  config.dataset.runs_per_behavior = 12;
  config.dataset.background_graphs = 60;
  config.dataset.test_instances = 60;
  config.dataset.seed = 21;
  config.query_size = 6;
  Pipeline pipeline(config);
  std::printf("preparing training data and mining scp-download queries...\n");
  pipeline.Prepare();

  int scp_idx = 0;
  while (AllBehaviors()[static_cast<std::size_t>(scp_idx)] !=
         BehaviorKind::kScpDownload) {
    ++scp_idx;
  }
  api::MineSpec spec;
  spec.positives = Pipeline::PositivesCorpus(scp_idx);
  spec.negatives = std::string(Pipeline::kBackgroundCorpus);
  spec.config = pipeline.config().miner;
  spec.config.max_edges = config.query_size;
  spec.interest = &pipeline.interest();
  spec.window = pipeline.WindowFor(scp_idx);
  api::Session& session = pipeline.session();
  StatusOr<api::BehaviorQuery> mined = session.Mine(spec);
  if (!mined.ok()) {
    std::printf("mining failed: %s\n", mined.status().ToString().c_str());
    return 1;
  }

  // Go live: one Watch registers every pattern of the artifact with the
  // session's stream engine (lazily started; uncapped by default so the
  // replay can be scored against the offline stages).
  StatusOr<api::WatchId> watch = session.Watch(*mined);
  if (!watch.ok()) {
    std::printf("watch failed: %s\n", watch.status().ToString().c_str());
    return 1;
  }
  std::printf("watching %zu behaviour-query patterns (watch #%zu)\n",
              mined->size(), *watch);

  // Replay the log as a live stream, sampling the engine periodically: by
  // end of replay the window has expired everything, so only in-stream
  // snapshots show the entity index populated (behaviour activity is
  // bursty — keep the busiest sample).
  const TemporalGraph& log = pipeline.test_log().graph;
  std::vector<Interval> alert_intervals;
  std::int64_t alerts = 0;
  std::size_t event_count = 0;
  std::size_t busy_live = 0;
  std::size_t busy_buckets = 0;
  auto on_alert = [&](const api::WatchAlert& alert) {
    ++alerts;
    alert_intervals.push_back(alert.interval);
    if (alerts <= 5) {
      std::printf("  ALERT: scp-download activity in [%lld, %lld] "
                  "(watch %zu, pattern %zu)\n",
                  static_cast<long long>(alert.interval.begin),
                  static_cast<long long>(alert.interval.end), alert.watch,
                  alert.pattern);
    }
  };
  for (const TemporalEdge& e : log.edges()) {
    if (++event_count % 256 == 0) {
      EngineStats sample = session.WatchStats();
      if (sample.live_partials > busy_live) {
        busy_live = sample.live_partials;
        busy_buckets = 0;
        for (const EngineQueryStats& q : sample.queries) {
          busy_buckets += q.index_buckets;
        }
      }
    }
    if (Status fed = session.Feed(StreamEvent::FromEdge(log, e), on_alert);
        !fed.ok()) {
      std::printf("feed failed: %s\n", fed.ToString().c_str());
      return 1;
    }
  }
  if (Status flushed = session.FlushWatches(on_alert); !flushed.ok()) {
    std::printf("flush failed: %s\n", flushed.ToString().c_str());
    return 1;
  }
  if (alerts > 5) {
    std::printf("  ... and %lld more alerts\n",
                static_cast<long long>(alerts - 5));
  }

  // Score the live alerts against ground truth like the offline pipeline.
  std::sort(alert_intervals.begin(), alert_intervals.end());
  alert_intervals.erase(
      std::unique(alert_intervals.begin(), alert_intervals.end()),
      alert_intervals.end());
  AccuracyResult accuracy = pipeline.Evaluate(scp_idx, alert_intervals);
  EngineStats stats = session.WatchStats();
  std::printf("stream results: %lld alert intervals, precision %.1f%%, "
              "recall %.1f%% (live partial matches at end: %zu)\n",
              static_cast<long long>(accuracy.identified),
              100 * accuracy.precision(), 100 * accuracy.recall(),
              stats.live_partials);

  // The engine's stats snapshots show the entity index, backpressure and
  // seed dispatch at work.
  std::size_t peak = 0;
  for (const EngineQueryStats& q : stats.queries) peak += q.peak_partials;
  std::printf("engine stats: busiest sample %zu live partials in %zu "
              "entity buckets; peak partials %zu, dropped %lld, seed-skipped "
              "%lld query probes, out-of-order events %lld\n",
              busy_live, busy_buckets, peak,
              static_cast<long long>(stats.dropped_partials),
              static_cast<long long>(stats.seed_skips),
              static_cast<long long>(stats.out_of_order_events));

  // The same artifact drives the engine sharded: a Watch replay over the
  // attached log corpus partitions the patterns across worker shards and
  // returns identical intervals for any shard count.
  api::WatchOptions replay;
  replay.shards = 2;
  replay.batch_size = 64;
  StatusOr<std::vector<Interval>> sharded =
      session.Watch(*mined, Pipeline::kTestLogCorpus, replay);
  if (!sharded.ok()) {
    std::printf("replay failed: %s\n", sharded.status().ToString().c_str());
    return 1;
  }
  std::printf("2-shard engine replay: %zu distinct intervals (%s)\n",
              sharded->size(),
              *sharded == alert_intervals ? "identical to the live watch"
                                          : "MISMATCH");
  return alerts > 0 && *sharded == alert_intervals ? 0 : 1;
}
