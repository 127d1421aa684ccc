// Regenerates Figure 13(a-c): mining response time of the six miners —
// TGMiner, PruneGI, SubPrune, LinearScan, PruneVF2, SupPrune — on small,
// medium, and large behaviour traces.
//
// Paper shape to reproduce: TGMiner fastest everywhere; PruneGI /
// LinearScan / PruneVF2 up to 6x / 17x / 32x slower (overhead of graph
// indexes, linear residual comparisons, and VF2 subtests respectively);
// SubPrune up to 50x slower; SupPrune slowest, timing out on medium and
// large behaviours (the paper's 2-day budget, emulated here by
// --budget_ms).

#include <string>
#include <vector>

#include "bench_common.h"

namespace {

struct MinerSpec {
  const char* name;
  tgm::MinerConfig config;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace tgm;
  bench::Flags flags(argc, argv, {"miners", "classes", "json_out"});
  bench::Banner("Figure 13", "mining response time per miner and size class");

  PipelineConfig config = bench::DefaultPipelineConfig(flags);
  // Large traces are scaled down so the slow ablations terminate within
  // the bench budget; the *ratios* are what Figure 13 is about.
  config.dataset.gen.size_scale = flags.GetDouble("scale", 0.6);
  Pipeline pipeline(config);
  pipeline.Prepare();

  std::int64_t budget_ms = flags.GetInt("budget_ms", 45000);
  int max_edges = static_cast<int>(flags.GetInt("max_edges", 6));
  // Comma-separated selections (empty = all), e.g. --miners=TGMiner
  // --classes=medium, plus --json_out=BENCH_fig13.json for the bench
  // trajectory.
  std::string miner_filter = flags.GetString("miners", "");
  std::string class_filter = flags.GetString("classes", "");
  std::string json_out = flags.GetString("json_out", "");
  bench::JsonBenchWriter json;
  // Threads for mining root subtrees concurrently. With the default
  // --root_batch=16 root subtrees are mined in fixed batches of 16 on the
  // pool with per-worker registries committed in ascending root order.
  // Runs that finish within --budget_ms mine bit-identical results for
  // every --threads and --root_batch value; the counters are identical
  // across --threads values and only the response times change. TIMEOUT
  // rows truncate at a timing-dependent point, so their results may differ
  // per thread count. --root_batch=1 is the serial search (--threads then
  // has no effect) and --root_batch=0 auto-sizes batches from the thread
  // count. The counters are comparable across runs only for equal
  // --root_batch, which is therefore recorded in the JSON payload.
  int num_threads = static_cast<int>(flags.GetInt("threads", 1, 0, 4096));
  int root_batch = static_cast<int>(flags.GetInt("root_batch", 16, 0, 4096));

  const std::vector<MinerSpec> miners = {
      {"TGMiner", MinerConfig::TGMiner()},  {"PruneGI", MinerConfig::PruneGI()},
      {"SubPrune", MinerConfig::SubPrune()},
      {"LinearScan", MinerConfig::LinearScan()},
      {"PruneVF2", MinerConfig::PruneVF2()},
      {"SupPrune", MinerConfig::SupPrune()},
      // Extra ablation beyond the paper: the find-good-patterns-early
      // child-ordering heuristic disabled
      // (MinerConfig::order_children_by_score).
      {"TGM-noorder",
       [] {
         MinerConfig c = MinerConfig::TGMiner();
         c.order_children_by_score = false;
         return c;
       }()},
  };
  // Representative behaviour per Table 1 size class. The large class runs
  // on a training subsample so the slow ablations terminate within the
  // bench budget.
  struct ClassSpec {
    const char* name;
    int behavior_idx;
    double fraction;
  };
  struct ClassRow {
    const char* name;
    const char* key;  // --classes selector
    int behavior_idx;
    double fraction;
  };
  const std::vector<ClassRow> classes = {
      {"small (gzip-decompress)", "small", 1, 1.0},
      {"medium (scp-download)", "medium", 4, 1.0},
      {"large (sshd-login, 50% data)", "large", 9, 0.5},
  };
  {
    std::vector<std::string> miner_names;
    for (const MinerSpec& spec : miners) miner_names.emplace_back(spec.name);
    bench::RequireKnownNames(miner_filter, "miners", miner_names);
    std::vector<std::string> class_names;
    for (const ClassRow& row : classes) class_names.emplace_back(row.key);
    bench::RequireKnownNames(class_filter, "classes", class_names);
  }

  for (const auto& [class_name, class_key, behavior_idx, fraction] : classes) {
    if (!bench::NameSelected(class_filter, class_key)) continue;
    std::printf("\n--- %s ---\n", class_name);
    std::printf("%-12s %10s %12s %14s %14s %9s\n", "Miner", "Time (s)",
                "Visited", "Subgr.tests", "Resid.tests", "Status");
    double tgminer_time = 0.0;
    for (const MinerSpec& spec : miners) {
      if (!bench::NameSelected(miner_filter, spec.name)) continue;
      MinerConfig mc = spec.config;
      mc.max_edges = max_edges;
      mc.min_pos_freq = 0.5;
      mc.max_embeddings_per_graph = 2000;
      mc.max_millis = budget_ms;
      mc.num_threads = num_threads;
      mc.root_batch = root_batch;
      MineResult result = pipeline.MineTemporal(behavior_idx, mc, fraction);
      const char* status = result.stats.timed_out        ? "TIMEOUT"
                           : result.stats.visit_cap_hit ? "VISIT-CAP"
                                                         : "ok";
      json.Add(std::string("fig13/") + class_key + "/" + spec.name,
               result.stats.elapsed_seconds,
               {{"patterns_visited",
                 static_cast<double>(result.stats.patterns_visited)},
                {"subgraph_tests",
                 static_cast<double>(result.stats.subgraph_tests)},
                {"residual_equiv_tests",
                 static_cast<double>(result.stats.residual_equiv_tests)},
                {"timed_out", result.stats.timed_out ? 1.0 : 0.0},
                // Multicore baselines are only comparable for equal
                // parallelism settings; record them with every row.
                {"threads", static_cast<double>(num_threads)},
                {"root_batch", static_cast<double>(root_batch)}});
      std::printf("%-12s %10.2f %12lld %14lld %14lld %9s", spec.name,
                  result.stats.elapsed_seconds,
                  static_cast<long long>(result.stats.patterns_visited),
                  static_cast<long long>(result.stats.subgraph_tests),
                  static_cast<long long>(result.stats.residual_equiv_tests),
                  status);
      if (std::string(spec.name) == "TGMiner") {
        tgminer_time = result.stats.elapsed_seconds;
      } else if (tgminer_time > 0.0) {
        std::printf("  (%.1fx)",
                    result.stats.elapsed_seconds / tgminer_time);
      }
      std::printf("\n");
    }
  }
  std::printf("\n(paper shape: TGMiner fastest; PruneGI/LinearScan/PruneVF2 "
              "up to 6/17/32x slower;\n SupPrune times out on medium/large "
              "behaviours)\n");
  if (!json_out.empty() && !json.WriteTo(json_out)) return 1;
  return 0;
}
