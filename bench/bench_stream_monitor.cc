// Stream-engine throughput: events/sec of the online surveillance engine
// (src/query/stream/) as a function of registered query count, matching
// path (entity-keyed partial index vs. the legacy full-scan wildcard
// path), and shard count (round-robin query partitioning).
//
// Shape to reproduce: the entity index must beat the full scan on the
// many-queries workload — the scan path touches every live partial of
// every query per event, the index only the partials the event's entities
// can extend. Shard rows split the same workload across worker shards
// (events/sec needs a multicore host to show wall-clock scaling; on a
// 1-core host the rows pin the broadcast/merge overhead instead). Every
// row runs at the same batch size, so the 1-shard row is the shard rows'
// baseline, and every hardware thread spins for ~1.5 s before the first
// shard row: after an idle spell a shared host can run the first second
// or so of a thread burst on about one core. The hot-query row replays a
// hub-skewed stream against a single query — the workload query
// partitioning cannot spread (one query = one shard).
//
// Flags: --queries=Q (largest query-count step), --events=N, --window=W,
// --shards=S (extra shard counts, plumbed like --threads), --max_gap=G
// (adds a constrained comparison: every query's transitions get a max-gap
// guard of G, run once with guard-driven per-partial expiry and once with
// window-only expiry — identical alerts required, peak live partials is
// the measurement), --seed, --json_out=FILE. Alert totals are
// cross-checked across all configurations of a step: every path and shard
// count must agree.

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <new>
#include <random>
#include <thread>

#include "bench_common.h"
#include "exec/fork_join.h"
#include "query/stream/engine.h"
#include "temporal/constraints.h"

/// Heap-allocation counter behind the steady-state dispatch assertion:
/// the double-buffered span dispatch must not allocate (or copy batches)
/// once vector capacities are warm. Replacing global operator new is
/// per-binary instrumentation — counts every allocation in the process.
static std::atomic<std::int64_t> g_heap_allocs{0};

void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace tgm;

/// Random canonical query over `num_labels` node labels (the bench-local
/// twin of tests/test_util.h's RandomPattern — bench binaries do not see
/// the tests/ include dir).
Pattern RandomQuery(std::mt19937_64& rng, int num_edges, int num_labels) {
  std::uniform_int_distribution<LabelId> label(0, num_labels - 1);
  Pattern p = Pattern::SingleEdge(label(rng), label(rng));
  while (static_cast<int>(p.edge_count()) < num_edges) {
    std::uniform_int_distribution<NodeId> node(
        0, static_cast<NodeId>(p.node_count()) - 1);
    int choice = static_cast<int>(rng() % 3);
    if (choice == 0) {
      p = p.GrowForward(node(rng), label(rng));
    } else if (choice == 1) {
      p = p.GrowBackward(label(rng), node(rng));
    } else {
      NodeId u = node(rng);
      NodeId v = node(rng);
      if (u == v) continue;
      p = p.GrowInward(u, v);
    }
  }
  return p;
}

/// Events per dispatch batch for every engine this bench builds.
constexpr std::size_t kBatchSize = 32;

/// Spins every hardware thread for `seconds`, so thread rows that follow
/// run on warm cores.
void WarmAllThreads(double seconds) {
  const auto until = std::chrono::steady_clock::now() +
                     std::chrono::duration<double>(seconds);
  std::vector<std::thread> spinners;
  for (int t = ResolveNumThreads(0); t > 0; --t) {
    spinners.emplace_back([until] {
      while (std::chrono::steady_clock::now() < until) {
      }
    });
  }
  for (std::thread& t : spinners) t.join();
}

struct RunStats {
  double events_per_sec = 0;
  std::int64_t alerts = 0;
  std::size_t peak_partials = 0;
  std::int64_t dropped = 0;
  std::int64_t seed_skips = 0;
};

RunStats RunEngine(const std::vector<Pattern>& queries,
                   const std::vector<StreamEvent>& events, Timestamp window,
                   bool entity_index, int num_shards,
                   const std::vector<TemporalConstraints>& constraints = {},
                   bool guard_expiry = true) {
  StreamEngine::Options options;
  options.window = window;
  options.entity_index = entity_index;
  options.num_shards = num_shards;
  options.batch_size = kBatchSize;
  options.max_partials_per_query = 50000;
  options.guard_expiry = guard_expiry;
  StreamEngine engine(options);
  for (std::size_t q = 0; q < queries.size(); ++q) {
    if (q < constraints.size()) {
      engine.AddQuery(queries[q], window, constraints[q]);
    } else {
      engine.AddQuery(queries[q]);
    }
  }

  RunStats stats;
  auto sink = [&stats](const StreamAlert&) { ++stats.alerts; };
  auto start = std::chrono::steady_clock::now();
  for (const StreamEvent& e : events) engine.OnEvent(e, sink);
  engine.Flush(sink);
  auto stop = std::chrono::steady_clock::now();
  double seconds = std::chrono::duration<double>(stop - start).count();
  stats.events_per_sec =
      static_cast<double>(events.size()) / (seconds > 0 ? seconds : 1e-9);
  stats.dropped = engine.dropped_partials();
  EngineStats engine_stats = engine.Stats();
  stats.seed_skips = engine_stats.seed_skips;
  for (const EngineQueryStats& q : engine_stats.queries) {
    stats.peak_partials += q.peak_partials;
  }
  return stats;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tgm;
  bench::Flags flags(argc, argv, {"queries", "events", "window", "shards",
                                  "max_gap", "json_out"});
  bench::Banner("Stream engine", "online surveillance events/sec");

  const int max_queries =
      static_cast<int>(flags.GetInt("queries", 64, 1, 1 << 20));
  const std::int64_t num_events = flags.GetInt("events", 20000, 1,
                                               std::int64_t{1} << 32);
  const Timestamp window = flags.GetInt("window", 500, 1);
  const int extra_shards =
      static_cast<int>(flags.GetInt("shards", 0, 0, 4096));
  const Timestamp max_gap = flags.GetInt("max_gap", 0, 0);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(flags.GetInt("seed", 42));
  std::string json_out = flags.GetString("json_out", "");
  bench::JsonBenchWriter json;

  // One fixed workload per query-count step: a dense entity population so
  // partials chain and accumulate (the regime the index exists for).
  const int num_labels = 3;
  const std::int64_t num_entities = 500;
  std::mt19937_64 rng(seed);
  std::vector<Pattern> queries;
  for (int q = 0; q < max_queries; ++q) {
    queries.push_back(RandomQuery(rng, 3, num_labels));
  }
  std::vector<StreamEvent> events;
  events.reserve(static_cast<std::size_t>(num_events));
  std::uniform_int_distribution<std::int64_t> entity(0, num_entities - 1);
  for (std::int64_t i = 0; i < num_events; ++i) {
    std::int64_t src = entity(rng);
    std::int64_t dst = entity(rng);
    if (src == dst) dst = (dst + 1) % num_entities;
    events.push_back(StreamEvent{src, dst,
                                 static_cast<LabelId>(src % num_labels),
                                 static_cast<LabelId>(dst % num_labels),
                                 kNoEdgeLabel, i});
  }

  std::printf("%8s %8s %8s %14s %10s %12s %10s %12s\n", "queries", "path",
              "shards", "events/sec", "alerts", "peak_partials", "dropped",
              "seed_skips");
  std::vector<int> steps;
  for (int q = 4; q < max_queries; q *= 4) steps.push_back(q);
  steps.push_back(max_queries);
  bool ok = true;
  for (int num_queries : steps) {
    std::vector<Pattern> subset(queries.begin(),
                                queries.begin() + num_queries);
    auto row = [&](const char* path, bool indexed, int shards) {
      RunStats stats = RunEngine(subset, events, window, indexed, shards);
      std::printf("%8d %8s %8d %14.0f %10lld %12zu %10lld %12lld\n",
                  num_queries, path, shards, stats.events_per_sec,
                  static_cast<long long>(stats.alerts), stats.peak_partials,
                  static_cast<long long>(stats.dropped),
                  static_cast<long long>(stats.seed_skips));
      std::string name = std::string("StreamEngine/") + path + "/queries:" +
                         std::to_string(num_queries) + "/shards:" +
                         std::to_string(shards);
      json.Add(name, static_cast<double>(events.size()) /
                         stats.events_per_sec,
               {{"events_per_sec", stats.events_per_sec},
                {"queries", static_cast<double>(num_queries)},
                {"shards", static_cast<double>(shards)},
                {"indexed", indexed ? 1.0 : 0.0},
                {"alerts", static_cast<double>(stats.alerts)},
                {"dropped", static_cast<double>(stats.dropped)},
                {"seed_skips", static_cast<double>(stats.seed_skips)}});
      return stats;
    };
    RunStats scan = row("scan", false, 1);
    RunStats index = row("index", true, 1);
    // Shard rows must always agree with the single-shard index row (the
    // engine's shard-determinism guarantee, drops or not). Scan vs index
    // agreement is only guaranteed drop-free: under backpressure the
    // eviction tie-break follows insertion order, which differs between
    // the two matching paths.
    if (scan.dropped == 0 && index.dropped == 0 &&
        scan.alerts != index.alerts) {
      std::fprintf(stderr,
                   "error: drop-free alert mismatch at queries=%d: scan "
                   "%lld vs index %lld\n",
                   num_queries, static_cast<long long>(scan.alerts),
                   static_cast<long long>(index.alerts));
      ok = false;
    } else if (scan.dropped != 0 || index.dropped != 0) {
      std::printf("  (cap hit at queries=%d: scan/index alert parity not "
                  "checked under backpressure)\n",
                  num_queries);
    }
    if (num_queries == max_queries) {
      auto check_mode = [&](const char* path, int shards,
                            const RunStats& sharded) {
        if (sharded.alerts != index.alerts ||
            sharded.dropped != index.dropped ||
            sharded.seed_skips != index.seed_skips) {
          std::fprintf(stderr,
                       "error: shard determinism violated at queries=%d "
                       "%s shards=%d: alerts %lld vs %lld, dropped %lld vs "
                       "%lld, seed_skips %lld vs %lld\n",
                       num_queries, path, shards,
                       static_cast<long long>(sharded.alerts),
                       static_cast<long long>(index.alerts),
                       static_cast<long long>(sharded.dropped),
                       static_cast<long long>(index.dropped),
                       static_cast<long long>(sharded.seed_skips),
                       static_cast<long long>(index.seed_skips));
          ok = false;
        }
      };
      std::vector<int> shard_steps = {2, 4};
      if (extra_shards > 1 && extra_shards != 2 && extra_shards != 4) {
        shard_steps.push_back(extra_shards);
      }
      WarmAllThreads(1.5);
      for (int shards : shard_steps) {
        check_mode("index", shards, row("index", true, shards));
      }
    }
  }

  // Single hot query over a hub-skewed stream: the workload query
  // partitioning cannot parallelize (one query lives on one shard), so
  // this row is the single-query probe-cost reference.
  {
    std::mt19937_64 hot_rng(seed + 1);
    Pattern hot_query = RandomQuery(hot_rng, 3, 2);
    std::vector<StreamEvent> hot_events;
    hot_events.reserve(static_cast<std::size_t>(num_events));
    const std::int64_t num_spokes = 499;
    for (std::int64_t i = 0; i < num_events; ++i) {
      std::int64_t a = 0;  // the hub
      std::int64_t b = 1 + static_cast<std::int64_t>(hot_rng() % num_spokes);
      if (i % 4 == 3) {  // a quarter of the traffic is spoke-to-spoke
        a = 1 + static_cast<std::int64_t>(hot_rng() % num_spokes);
        if (a == b) b = a % num_spokes + 1;
      } else if (hot_rng() % 2 == 0) {
        std::swap(a, b);
      }
      hot_events.push_back(StreamEvent{a, b, static_cast<LabelId>(a % 2),
                                       static_cast<LabelId>(b % 2),
                                       kNoEdgeLabel, i});
    }
    const std::vector<Pattern> hot_queries = {hot_query};
    RunStats hot = RunEngine(hot_queries, hot_events, window, true, 1);
    std::printf("%8s %8s %8d %14.0f %10lld %12zu %10lld %12lld\n", "hot",
                "index", 1, hot.events_per_sec,
                static_cast<long long>(hot.alerts), hot.peak_partials,
                static_cast<long long>(hot.dropped),
                static_cast<long long>(hot.seed_skips));
    json.Add("StreamEngine/hot/index/shards:1",
             static_cast<double>(hot_events.size()) / hot.events_per_sec,
             {{"events_per_sec", hot.events_per_sec},
              {"alerts", static_cast<double>(hot.alerts)}});
  }
  // Constrained comparison: the same event stream under queries whose
  // every transition carries a max-gap guard, executed with guard-driven
  // per-partial expiry (the PartialTable deadline heap) vs window-only
  // expiry. Guards are enforced on extension either way, so the alert
  // streams must be identical; only peak live partials may differ — the
  // number this row exists to measure.
  if (max_gap > 0) {
    std::vector<TemporalConstraints> constraints;
    constraints.reserve(queries.size());
    for (const Pattern& q : queries) {
      TemporalConstraints c(q.edge_count());
      for (std::size_t k = 1; k < q.edge_count(); ++k) {
        c.mutable_guard(k).max_gap = max_gap;
      }
      constraints.push_back(std::move(c));
    }
    auto constrained_row = [&](const char* path, bool guard_expiry) {
      RunStats stats = RunEngine(queries, events, window, true, 1,
                                 constraints, guard_expiry);
      std::printf("%8d %8s %8d %14.0f %10lld %12zu %10lld %12lld\n",
                  max_queries, path, 1, stats.events_per_sec,
                  static_cast<long long>(stats.alerts), stats.peak_partials,
                  static_cast<long long>(stats.dropped),
                  static_cast<long long>(stats.seed_skips));
      json.Add(std::string("StreamEngine/") + path + "/queries:" +
                   std::to_string(max_queries) + "/max_gap:" +
                   std::to_string(max_gap),
               static_cast<double>(events.size()) / stats.events_per_sec,
               {{"events_per_sec", stats.events_per_sec},
                {"queries", static_cast<double>(max_queries)},
                {"max_gap", static_cast<double>(max_gap)},
                {"guard_expiry", guard_expiry ? 1.0 : 0.0},
                {"peak_partials", static_cast<double>(stats.peak_partials)},
                {"alerts", static_cast<double>(stats.alerts)},
                {"dropped", static_cast<double>(stats.dropped)}});
      return stats;
    };
    RunStats window_only = constrained_row("cons-win", false);
    RunStats guard_driven = constrained_row("cons-gex", true);
    if (window_only.dropped == 0 && guard_driven.dropped == 0 &&
        guard_driven.alerts != window_only.alerts) {
      std::fprintf(stderr,
                   "error: constrained alert mismatch at max_gap=%lld: "
                   "guard-expiry %lld vs window-only %lld\n",
                   static_cast<long long>(max_gap),
                   static_cast<long long>(guard_driven.alerts),
                   static_cast<long long>(window_only.alerts));
      ok = false;
    }
    if (guard_driven.peak_partials > window_only.peak_partials) {
      std::fprintf(stderr,
                   "error: guard expiry raised peak partials (%zu vs %zu)\n",
                   guard_driven.peak_partials, window_only.peak_partials);
      ok = false;
    }
    std::printf("  (max_gap=%lld guard expiry holds peak live partials at "
                "%zu vs %zu window-only, %.1fx reduction, identical "
                "alerts)\n",
                static_cast<long long>(max_gap),
                guard_driven.peak_partials, window_only.peak_partials,
                guard_driven.peak_partials > 0
                    ? static_cast<double>(window_only.peak_partials) /
                          static_cast<double>(guard_driven.peak_partials)
                    : 0.0);
  }

  // Steady-state dispatch allocations: with the double-buffered span
  // dispatch and the pool's by-reference body, feeding events through a
  // warm engine whose only query matches nothing must not allocate at
  // all — no per-batch copies, no per-event scratch growth, no per-call
  // task or error storage — inline (1 shard) or fanned out (2 and 4
  // shards). A regression here (a reintroduced batch copy, a per-event
  // vector, a type-erased task) fails the bench, not just slows it.
  for (int shards : {1, 2, 4}) {
    const std::int64_t allocs = [&] {
      StreamEngine::Options options;
      options.window = window;
      options.num_shards = shards;
      options.batch_size = kBatchSize;
      StreamEngine engine(options);
      // Labels absent from the stream: the seed-dispatch bitmap skips
      // every event, isolating the dispatch path itself.
      engine.AddQuery(Pattern::SingleEdge(98, 99));
      const StreamEngine::AlertSink sink = [](const StreamAlert&) {};
      const std::size_t half = events.size() / 2;
      for (std::size_t i = 0; i < half; ++i) engine.OnEvent(events[i], sink);
      engine.Flush(sink);
      const std::int64_t before =
          g_heap_allocs.load(std::memory_order_relaxed);
      for (std::size_t i = half; i < events.size(); ++i) {
        engine.OnEvent(events[i], sink);
      }
      engine.Flush(sink);
      return g_heap_allocs.load(std::memory_order_relaxed) - before;
    }();
    std::printf("  (steady-state dispatch allocations over %zu events at "
                "%d shard(s): %lld)\n",
                events.size() - events.size() / 2, shards,
                static_cast<long long>(allocs));
    if (allocs != 0) {
      std::fprintf(stderr,
                   "error: batch dispatch allocated in steady state at %d "
                   "shard(s) (%lld; expected 0)\n",
                   shards, static_cast<long long>(allocs));
      ok = false;
    }
    json.Add("StreamEngine/dispatch_steady_allocs/shards:" +
                 std::to_string(shards),
             0.0, {{"allocs", static_cast<double>(allocs)}});
  }

  std::printf("(events=%lld window=%lld entities=%lld; scan = wildcard "
              "full-scan path, index = entity-keyed partial index; shard "
              "rows need a multicore host for wall-clock scaling)\n",
              static_cast<long long>(num_events),
              static_cast<long long>(window),
              static_cast<long long>(num_entities));

  if (!json_out.empty() && !json.WriteTo(json_out)) return 1;
  return ok ? 0 : 1;
}
