#ifndef TGM_BENCH_E2E_WORKLOADS_H_
#define TGM_BENCH_E2E_WORKLOADS_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "api/status.h"
#include "trace.h"

namespace tgm::e2e {

/// What one benchmark process runs.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 42;
  /// Shrinks every input so a full run takes a fraction of a second: the
  /// self-check of the benchmark's gates and trace accounting.
  bool smoke = false;
  /// Directory of the committed hunt fixtures (<behaviour>.tquery).
  std::string queries_dir = "bench/e2e/queries";
};

/// Every library call a run attempts, and the ones that returned a
/// non-OK Status (with the first few messages).
struct Ops {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> errors;

  bool Check(const Status& status, std::string_view call) {
    ++attempted;
    if (status.ok()) return true;
    ++failed;
    if (errors.size() < 8) {
      errors.push_back(std::string(call) + ": " + status.ToString());
    }
    return false;
  }
};

/// Per-call latency of one live Feed loop.
struct FeedTiming {
  std::vector<std::uint32_t> latency_ns;  ///< one per Feed call, in order
  /// Positions of the Feed calls that delivered at least one alert.
  std::vector<std::uint32_t> alert_calls;
  double seconds = 0.0;  ///< the whole loop, FlushWatches excluded
};

/// What one pass measured and produced. A pass builds a fresh Session,
/// sets it up, runs the workload's job, then checks the outputs untimed.
/// Every pass makes the same library calls in the same order, so the
/// harness can line each call up with its repetitions in other passes.
struct PassResult {
  std::int64_t ingested_events = 0;
  double setup_s = 0.0;  ///< wall time of the set-up
  double job_s = 0.0;    ///< wall time of the job
  /// Duration of every library call of the set-up, in call order.
  std::vector<double> setup_calls;
  /// Duration of every library call of the job but Feed, in call order.
  std::vector<double> job_calls;
  /// Positions in job_calls of the Search calls.
  std::vector<std::size_t> search_calls;
  std::int64_t intervals = 0;  ///< intervals all Search calls returned
  FeedTiming feed;
  /// Session::WatchStats() after the final flush.
  std::int64_t peak_partials = 0;  ///< summed over the engine's patterns
  std::int64_t live_partials_end = 0;
  std::int64_t seed_skips = 0;
  std::int64_t dropped_partials = 0;
  std::int64_t out_of_order_events = 0;
  std::size_t engine_queries = 0;  ///< patterns the live engine runs
  std::int64_t alerts = 0;
  std::uint64_t alert_digest = 0; ///< hash of every alert, in order
  /// Macro means of the §6.2 accuracy over the workload's behaviours
  /// (0 when the workload has no ground truth).
  double precision = 0.0;
  double recall = 0.0;
  std::vector<std::string> mismatches;  ///< failed output checks
};

inline double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// One named metric with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Workload {
 public:
  explicit Workload(int passes) : passes_(passes) {}
  virtual ~Workload() = default;

  /// Timed passes a run makes after its warm-up. The count is fixed per
  /// workload, so every commit's numbers are the fastest of the same
  /// number of repetitions. Each workload's passes take 10-20 s on the
  /// machine the bounds were set on, with its load (README.md), so the
  /// 30 s limit of BENCHMARK.json cuts them short only when that machine
  /// runs 1.5x slower than in its busiest stretches measured.
  int passes() const { return passes_; }

  /// One pass over a fresh Session: set-up, job, output checks.
  virtual PassResult RunPass(Tracer& tracer, Ops& ops) = 0;

  /// Per-layer numbers measured outside the passes: the miner's search
  /// counters, the temporal subgraph tester over the workload's patterns,
  /// and TemporalGraph::Finalize over the ingested graphs.
  virtual std::vector<Metric> MeasureLayers(Ops& ops) = 0;

 private:
  int passes_;
};

/// Generates the workload's inputs from `config.seed` (the only work done
/// before timing starts).
StatusOr<std::unique_ptr<Workload>> MakeWorkload(const RunConfig& config);

/// Regenerates the hunt fixtures: one query per behaviour, mined from the
/// seed-42 training corpus, written as `dir`/<behaviour>.tquery.
Status WriteQueryFixtures(const std::string& dir);

}  // namespace tgm::e2e

#endif  // TGM_BENCH_E2E_WORKLOADS_H_
