// tgm_e2e: the end-to-end benchmark of the TGMiner user path, driven only
// through tgm::api::Session (Ingest, Mine, SaveQuery/LoadQuery, Search,
// Watch/Feed/FlushWatches). One workload per process, on one thread.
//
//   tgm_e2e --workload=hunt --seed=7 --seconds=30            end-to-end
//   tgm_e2e --workload=hunt --seed=7 --seconds=30 --trace=F  per-layer
//   tgm_e2e --smoke                 every workload, tiny, gates + tracing
//   tgm_e2e --write_queries=DIR     regenerate the hunt fixtures
//
// The inputs are generated from --seed before anything is timed. One
// untimed warm-up pass follows, then the workload's fixed number of timed
// passes; --seconds only cuts that short. See Summary for how passes are
// combined and calibration.h for how timings are scaled. With --trace the
// timed passes alternate untraced and traced, the per-layer metrics come
// from the traced ones, and the spans are written to the trace file. The
// last stdout line is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// The exit code is 0 only if every library call succeeded and every
// output check passed.

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "calibration.h"
#include "trace.h"
#include "workloads.h"

namespace tgm::e2e {
namespace {

struct Args {
  RunConfig run;
  double seconds = -1.0;  ///< required with --workload
  std::string trace_path;
  std::string write_queries;
  bool smoke = false;
};

[[noreturn]] void Usage(const std::string& problem) {
  std::fprintf(stderr,
               "error: %s\nusage: tgm_e2e --workload=NAME --seconds=S "
               "[--seed=N] [--trace=FILE] [--queries=DIR]\n"
               "       tgm_e2e --smoke [--queries=DIR]\n"
               "       tgm_e2e --write_queries=DIR\n",
               problem.c_str());
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      args.smoke = true;
      continue;
    }
    const std::size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      Usage("unknown argument '" + arg + "'");
    }
    const std::string key = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    char* end = nullptr;
    if (key == "workload") {
      args.run.workload = value;
    } else if (key == "seed") {
      args.run.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') Usage("bad --seed '" + value + "'");
    } else if (key == "seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(args.seconds >= 0)) {
        Usage("bad --seconds '" + value + "'");
      }
    } else if (key == "trace") {
      args.trace_path = value;
    } else if (key == "queries") {
      args.run.queries_dir = value;
    } else if (key == "write_queries") {
      args.write_queries = value;
    } else {
      Usage("unknown flag --" + key);
    }
  }
  if (!args.smoke && args.write_queries.empty()) {
    if (args.run.workload.empty()) Usage("--workload is required");
    if (args.seconds < 0) Usage("--seconds is required with --workload");
  }
  return args;
}

/// Quantile `q` of sorted nanosecond samples, in microseconds: the mean of
/// the samples ranked within (1 - q) / 10 of q, so whole-nanosecond clock
/// ticks do not quantize the result.
double QuantileUs(const std::vector<double>& sorted_ns, double q) {
  if (sorted_ns.empty()) return 0.0;
  const auto n = static_cast<double>(sorted_ns.size());
  const double band = (1.0 - q) / 10.0;
  const auto lo = static_cast<std::size_t>(std::floor((q - band) * n));
  const auto hi = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::ceil((q + band) * n)), lo + 1,
      sorted_ns.size());
  double sum = 0.0;
  for (std::size_t i = lo; i < hi; ++i) sum += sorted_ns[i];
  return sum / static_cast<double>(hi - lo) / 1e3;
}

/// A field of /proc/self/status ("VmRSS", "VmHWM"), in MB; 0 if absent.
double StatusMb(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(field + ":", 0) == 0) {
      return std::strtod(line.c_str() + field.size() + 1, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// Maps in every page of the program's read-only file mappings (its
/// code, the library's included, and the shared libraries'). Code a pass
/// runs for the first time is otherwise mapped in during the pass, and how
/// much of it the kernel maps around each fault varies from run to run by
/// up to 0.1 MB, several percent of watch-guarded's 2.5 MB.
void MapInCode() {
  std::ifstream maps("/proc/self/maps");
  std::string line;
  while (std::getline(maps, line)) {
    unsigned long start = 0;
    unsigned long end = 0;
    char perms[5] = {};
    char path[256] = {};
    if (std::sscanf(line.c_str(), "%lx-%lx %4s %*s %*s %*s %255s", &start,
                    &end, perms, path) != 4 ||
        perms[0] != 'r' || perms[1] != '-' || path[0] != '/') {
      continue;
    }
    for (unsigned long page = start; page < end; page += 4096) {
      (void)*reinterpret_cast<const volatile char*>(page);
    }
  }
}

/// Starts the peak-RSS window here and returns the resident size it
/// starts from: the generated inputs the harness keeps and the program's
/// code. Memory the generator freed is returned to the kernel first, so
/// the library cannot reuse it without the peak showing it. False if the
/// kernel refused to reset the peak.
bool ResetPeakRss(double* baseline_mb) {
  MapInCode();
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  *baseline_mb = StatusMb("VmRSS");
  return static_cast<bool>(clear);
}

/// The numbers of a set of passes. The passes make the same library calls
/// (and Feed calls) in the same order, so each call's durations line up by
/// position across passes. Every call is charged its fastest repetition:
/// on a shared machine a co-tenant only ever adds time, and the fastest
/// repetition is the one it disturbed least (README.md has the spreads of
/// this and of per-call medians). The workload fixes the number of
/// passes, so the fastest is always taken over the same number of
/// repetitions. Totals are sums over calls; latency quantiles are taken
/// over the Feed calls' fastest repetitions, so they describe the latency
/// each event costs the program, without the machine's interference.
struct Summary {
  double setup_s = 0.0;
  double job_s = 0.0;  ///< the job's calls but Search, Feed loop included
  double search_s = 0.0;
  double search_slowest_s = 0.0;
  double feed_events_per_s = 0.0;
  double feed_p50_us = 0.0;
  double feed_p99_us = 0.0;
  double feed_p999_us = 0.0;
  double alert_feed_p50_us = 0.0;
  double alert_feed_p99_us = 0.0;
  double wall_s = 0.0;  ///< median raw pass wall time (set-up + job)
};

template <typename Get>
std::vector<double> FastestByPosition(const std::vector<PassResult>& passes,
                                      Get get) {
  std::vector<double> fastest(get(passes.front()).size(),
                              std::numeric_limits<double>::infinity());
  for (const PassResult& pass : passes) {
    const auto& durations = get(pass);
    for (std::size_t i = 0; i < fastest.size(); ++i) {
      fastest[i] = std::min(fastest[i], static_cast<double>(durations[i]));
    }
  }
  return fastest;
}

double Sum(const std::vector<double>& values) {
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum;
}

/// False if the passes did not all make the same calls (an aborted pass).
bool Summarize(const std::vector<PassResult>& passes, Summary* out) {
  if (passes.empty()) return false;
  const PassResult& first = passes.front();
  for (const PassResult& p : passes) {
    if (p.setup_calls.size() != first.setup_calls.size() ||
        p.job_calls.size() != first.job_calls.size() ||
        p.feed.latency_ns.size() != first.feed.latency_ns.size()) {
      return false;
    }
  }
  const std::vector<double> setup = FastestByPosition(
      passes, [](const PassResult& p) -> auto& { return p.setup_calls; });
  const std::vector<double> job = FastestByPosition(
      passes, [](const PassResult& p) -> auto& { return p.job_calls; });
  const std::vector<double> feed_ns = FastestByPosition(
      passes, [](const PassResult& p) -> auto& { return p.feed.latency_ns; });
  const double feed_s = Sum(feed_ns) / 1e9;
  out->setup_s = Sum(setup);
  for (std::size_t k : first.search_calls) {
    out->search_s += job[k];
    out->search_slowest_s = std::max(out->search_slowest_s, job[k]);
  }
  out->job_s = Sum(job) - out->search_s + feed_s;
  out->feed_events_per_s =
      feed_s > 0 ? static_cast<double>(feed_ns.size()) / feed_s : 0.0;
  std::vector<double> alert_ns;
  for (std::uint32_t i : first.feed.alert_calls) alert_ns.push_back(feed_ns[i]);
  std::sort(alert_ns.begin(), alert_ns.end());
  std::vector<double> sorted = feed_ns;
  std::sort(sorted.begin(), sorted.end());
  out->feed_p50_us = QuantileUs(sorted, 0.50);
  out->feed_p99_us = QuantileUs(sorted, 0.99);
  out->feed_p999_us = QuantileUs(sorted, 0.999);
  out->alert_feed_p50_us = QuantileUs(alert_ns, 0.50);
  out->alert_feed_p99_us = QuantileUs(alert_ns, 0.99);
  std::vector<double> walls;
  for (const PassResult& p : passes) walls.push_back(p.setup_s + p.job_s);
  out->wall_s = Median(walls);
  return true;
}

/// Medians over the traced passes, by metric name.
class Medians {
 public:
  void Add(const std::string& name, double value) {
    values_[name].push_back(value);
  }
  double Get(const std::string& name) const {
    auto it = values_.find(name);
    return it == values_.end() ? 0.0 : Median(it->second);
  }

 private:
  std::map<std::string, std::vector<double>> values_;
};

/// Layer totals of one traced pass: summed span durations of the calls
/// the per-layer metrics name, and per-layer self time.
struct TracedPass {
  double wall_s = 0.0;
  std::map<std::string, double> call_s;  ///< by span name
  std::map<std::string, double> self_s;  ///< by layer
};

std::vector<TracedPass> AnalyzeTrace(const std::vector<Span>& spans) {
  const std::vector<double> self = SelfSeconds(spans);
  std::map<int, TracedPass> by_pass;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    TracedPass& p = by_pass[s.pass];
    if (s.parent < 0) p.wall_s += Seconds(s.start, s.end);
    p.call_s[s.name] += Seconds(s.start, s.end);
    p.self_s[std::string(LayerOf(s))] += self[i];
  }
  std::vector<TracedPass> passes;
  for (auto& [pass, p] : by_pass) passes.push_back(std::move(p));
  return passes;
}

constexpr const char* kLayers[] = {"api", "mining", "query", "stream",
                                   "bench"};

/// Rescales every timing, and every rate derived from one, by `scale`
/// (see calibration.h): times are multiplied and rates divided.
void ApplyCalibration(double scale, std::vector<Metric>& metrics) {
  for (Metric& m : metrics) {
    if (m.unit == "s" || m.unit == "us" || m.unit == "ns") {
      m.value *= scale;
    } else if (m.unit == "ev/s" || m.unit == "1/s") {
      m.value /= scale;
    }
  }
}

struct Outcome {
  bool correct = true;
  std::vector<std::string> failures;
  std::vector<Metric> metrics;
};

/// Runs one workload: warm-up, timed passes, output checks, metrics. The
/// timed passes stop early, after at least two, once `limit_s` seconds
/// have passed.
Outcome RunWorkload(const RunConfig& config, double limit_s, bool trace,
                    const std::string& trace_path, Ops& ops) {
  Outcome out;
  auto fail = [&out](const std::string& why) {
    out.correct = false;
    if (out.failures.size() < 16) out.failures.push_back(why);
  };

  const Clock::time_point gen_start = Clock::now();
  StatusOr<std::unique_ptr<Workload>> made = MakeWorkload(config);
  const double gen_s = Seconds(gen_start, Clock::now());
  if (!made.ok()) {
    fail(made.status().ToString());
    return out;
  }
  Workload& workload = **made;

  // The calibration loop runs three times before every pass and after the
  // last; the fastest of these is the machine's speed in this run.
  std::vector<double> calibration;
  auto calibrate = [&calibration] {
    for (int i = 0; i < 3; ++i) {
      calibration.push_back(CalibrationLoopSeconds());
    }
  };
  calibrate();

  // The warm-up pass is also the memory measurement: the peak-RSS window
  // starts after input generation and ends before the timed passes keep
  // their per-call timings.
  double baseline_mb = 0.0;
  if (!ResetPeakRss(&baseline_mb)) {
    std::printf("note: /proc/self/clear_refs not writable; peak_mem_mb "
                "includes input generation\n");
  }
  Tracer tracer;
  const PassResult warm = workload.RunPass(tracer, ops);
  const double peak_mem_mb = StatusMb("VmHWM") - baseline_mb;
  for (const std::string& m : warm.mismatches) fail("warm-up: " + m);

  // Timed passes. Traced runs alternate untraced (even) and traced (odd)
  // passes so both see the same machine state; the untraced ones give the
  // tracing overhead.
  std::vector<PassResult> untraced;
  std::vector<PassResult> traced;
  const Clock::time_point start = Clock::now();
  int pass = 0;
  for (; pass < workload.passes(); ++pass) {
    if (pass >= 2 && Seconds(start, Clock::now()) > limit_s) {
      std::printf("note: stopped after %d of %d passes: the %g s limit "
                  "passed\n",
                  pass, workload.passes(), limit_s);
      break;
    }
    calibrate();
    const bool traced_pass = trace && pass % 2 == 1;
    tracer.set_enabled(traced_pass);
    tracer.set_pass(pass + 1);
    PassResult r = workload.RunPass(tracer, ops);
    const std::string label = "pass " + std::to_string(pass + 1);
    for (const std::string& m : r.mismatches) fail(label + ": " + m);
    if (r.alerts != warm.alerts || r.alert_digest != warm.alert_digest) {
      fail(label + " delivered " + std::to_string(r.alerts) +
           " alerts, the warm-up " + std::to_string(warm.alerts) +
           " (or in another order)");
    }
    std::printf("%s%s setup %.4f s  job %.4f s  feed %.0f ev/s (raw)\n",
                label.c_str(), traced_pass ? " [traced]" : "", r.setup_s,
                r.job_s,
                r.feed.seconds > 0
                    ? static_cast<double>(r.feed.latency_ns.size()) /
                          r.feed.seconds
                    : 0.0);
    (traced_pass ? traced : untraced).push_back(std::move(r));
  }
  calibrate();
  const double fastest_loop =
      *std::min_element(calibration.begin(), calibration.end());
  const double scale = kReferenceCalibrationSeconds / fastest_loop;
  std::printf("calibration: fastest of %zu loops %.3f ms; timings scaled by "
              "%.4f\n",
              calibration.size(), fastest_loop * 1e3, scale);

  Summary plain;
  if (!Summarize(untraced, &plain)) {
    fail("the timed passes made different library calls");
    return out;
  }
  std::printf("each call: fastest of %zu passes; %zu Feed calls per pass "
              "(p99: %zu calls beyond)\n",
              untraced.size(), warm.feed.latency_ns.size(),
              warm.feed.latency_ns.size() / 100);

  if (!trace) {
    out.metrics = {
        {"setup_s", plain.setup_s, "s"},
        {"job_s", plain.job_s, "s"},
        {"feed_events_per_s", plain.feed_events_per_s, "ev/s"},
        {"feed_p50_us", plain.feed_p50_us, "us"},
        {"peak_mem_mb", peak_mem_mb, "MB"},
    };
    ApplyCalibration(scale, out.metrics);
    return out;
  }
  Summary with_spans;
  if (!Summarize(traced, &with_spans)) {
    fail("the traced passes made different library calls");
    return out;
  }

  // Per-layer metrics: from the traced passes, plus the layer probes.
  const std::vector<TracedPass> passes = AnalyzeTrace(tracer.spans());
  Medians layer;
  for (const TracedPass& p : passes) {
    auto call = [&p](const char* name) {
      auto it = p.call_s.find(name);
      return it == p.call_s.end() ? 0.0 : it->second;
    };
    layer.Add("api.ingest_s", call("api.ingest"));
    layer.Add("api.load_query_s", call("api.load_query"));
    layer.Add("api.watch_register_s", call("api.watch"));
    double library_self = 0.0;
    for (const char* name : kLayers) {
      auto it = p.self_s.find(name);
      const double self = it == p.self_s.end() ? 0.0 : it->second;
      layer.Add(std::string(name) + ".self_share", self / p.wall_s);
      if (std::string(name) != "bench") library_self += self;
    }
    // Trace accounting: the library layers' self times must add up to
    // the pass wall time, i.e. the harness's own share stays under 5%.
    if (library_self < 0.95 * p.wall_s || library_self > p.wall_s * 1.0001) {
      fail("trace accounting: library self time " +
           std::to_string(library_self) + " s of a " +
           std::to_string(p.wall_s) + " s pass");
    }
  }
  const double ingest_s = layer.Get("api.ingest_s");
  const double engine_probes =
      static_cast<double>(warm.feed.latency_ns.size()) *
      static_cast<double>(warm.engine_queries);
  out.metrics = {
      {"api.ingest_s", ingest_s, "s"},
      {"api.ingest_events_per_s",
       ingest_s > 0 ? static_cast<double>(warm.ingested_events) / ingest_s
                    : 0.0,
       "ev/s"},
      {"api.load_query_s", layer.Get("api.load_query_s"), "s"},
      {"api.watch_register_s", layer.Get("api.watch_register_s"), "s"},
      {"query.search_s", with_spans.search_s, "s"},
      {"query.search_slowest_s", with_spans.search_slowest_s, "s"},
      {"query.intervals", static_cast<double>(warm.intervals), "count"},
      {"query.precision", warm.precision, "ratio"},
      {"query.recall", warm.recall, "ratio"},
      {"stream.peak_partials", static_cast<double>(warm.peak_partials),
       "count"},
      {"stream.live_partials_end",
       static_cast<double>(warm.live_partials_end), "count"},
      {"stream.seed_skips", static_cast<double>(warm.seed_skips), "count"},
      {"stream.seed_skip_ratio",
       engine_probes > 0 ? static_cast<double>(warm.seed_skips) /
                               engine_probes
                         : 0.0,
       "ratio"},
      {"stream.alerts", static_cast<double>(warm.alerts), "count"},
      {"stream.dropped_partials", static_cast<double>(warm.dropped_partials),
       "count"},
      {"stream.out_of_order_events",
       static_cast<double>(warm.out_of_order_events), "count"},
      {"stream.feed_p99_us", with_spans.feed_p99_us, "us"},
      {"stream.feed_p999_us", with_spans.feed_p999_us, "us"},
      {"stream.alert_feed_p50_us", with_spans.alert_feed_p50_us, "us"},
      {"stream.alert_feed_p99_us", with_spans.alert_feed_p99_us, "us"},
  };
  for (const char* name : kLayers) {
    const std::string metric = std::string(name) + ".self_share";
    out.metrics.push_back({metric, layer.Get(metric), "ratio"});
  }
  out.metrics.push_back({"bench.trace_overhead",
                         with_spans.wall_s / plain.wall_s, "ratio"});
  out.metrics.push_back({"bench.gen_s", gen_s, "s"});
  for (Metric& m : workload.MeasureLayers(ops)) {
    out.metrics.push_back(std::move(m));
  }
  ApplyCalibration(scale, out.metrics);
  out.metrics.push_back({"bench.calibration_s", fastest_loop, "s"});
  std::printf("traced passes: %zu; Feed calls that delivered alerts: %zu "
              "per pass\n",
              passes.size(), warm.feed.alert_calls.size());

  if (!trace_path.empty() &&
      !WriteTrace(trace_path, tracer.spans(), config.workload, config.seed)) {
    fail("cannot write trace file " + trace_path);
  }
  return out;
}

void PrintMetrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-34s %18.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

void PrintJson(const Outcome& out, const Ops& ops) {
  std::string json = "{\"correct\": ";
  json += out.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(ops.attempted);
  json += ", \"failed\": " + std::to_string(ops.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    const double value = std::isfinite(m.value) ? m.value : 0.0;
    char number[64];
    std::snprintf(number, sizeof(number), "%.17g", value);
    json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + number +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);

  if (!args.write_queries.empty()) {
    const Status status = WriteQueryFixtures(args.write_queries);
    if (!status.ok()) {
      std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("wrote 12 query fixtures to %s\n",
                args.write_queries.c_str());
    return 0;
  }

  if (args.smoke) {
    // Every workload at toy size, traced: exercises every gate and the
    // trace accounting. Its numbers are never compared.
    bool ok = true;
    for (const char* name :
         {"discover", "hunt", "watch-many", "watch-guarded"}) {
      RunConfig config = args.run;
      config.workload = name;
      config.smoke = true;
      Ops ops;
      const Outcome out = RunWorkload(
          config, std::numeric_limits<double>::infinity(), true, "", ops);
      const bool passed = out.correct && ops.failed == 0;
      for (const std::string& f : out.failures) {
        std::printf("  FAIL %s\n", f.c_str());
      }
      for (const std::string& e : ops.errors) {
        std::printf("  FAIL %s\n", e.c_str());
      }
      std::printf("smoke %-14s %s (%lld library calls)\n", name,
                  passed ? "ok" : "FAILED",
                  static_cast<long long>(ops.attempted));
      ok = ok && passed;
    }
    return ok ? 0 : 1;
  }

  RunConfig config = args.run;
  Ops ops;
  std::printf("tgm_e2e workload=%s seed=%llu seconds=%g trace=%s\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), args.seconds,
              args.trace_path.empty() ? "off" : args.trace_path.c_str());
  Outcome out = RunWorkload(config, args.seconds, !args.trace_path.empty(),
                            args.trace_path, ops);
  if (ops.failed > 0) out.correct = false;
  for (const std::string& f : out.failures) {
    std::printf("FAIL %s\n", f.c_str());
  }
  for (const std::string& e : ops.errors) std::printf("FAIL %s\n", e.c_str());
  if (out.metrics.empty()) return 1;  // nothing measured: no result line
  PrintMetrics(out.metrics);
  PrintJson(out, ops);
  return out.correct ? 0 : 1;
}

}  // namespace
}  // namespace tgm::e2e

int main(int argc, char** argv) { return tgm::e2e::Main(argc, argv); }
