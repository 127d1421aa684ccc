#ifndef TGM_BENCH_E2E_TRACE_H_
#define TGM_BENCH_E2E_TRACE_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

namespace tgm::e2e {

using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// One timed call into a library layer, or one loop of `calls` identical
/// calls (the live Feed loop: a span per event would cost as much as the
/// event it times).
struct Span {
  const char* name = "";  ///< "<layer>.<call>"; static storage
  Clock::time_point start;
  Clock::time_point end;
  int parent = -1;  ///< index into Tracer::spans(); -1 for a pass root
  int pass = 0;
  std::int64_t calls = 1;
};

/// The layer a span is charged to: its name up to the first '.', one of
/// the src/ modules the benchmark calls into (api, mining, query, stream)
/// or "bench" for the harness's own pass/setup/job frames.
inline std::string_view LayerOf(const Span& span) {
  std::string_view name(span.name);
  return name.substr(0, name.find('.'));
}

/// In-memory span recorder. Disabled, Open() stores nothing and costs one
/// branch, so untraced passes run exactly the code traced passes run.
class Tracer {
 public:
  /// Records the span from construction to destruction, nested under the
  /// innermost span open at construction.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name) : tracer_(tracer) {
      if (!tracer_->enabled_) return;
      index_ = static_cast<int>(tracer_->spans_.size());
      Span span;
      span.name = name;
      span.parent = tracer_->open_;
      span.pass = tracer_->pass_;
      tracer_->spans_.push_back(span);
      tracer_->open_ = index_;
      tracer_->spans_.back().start = Clock::now();
    }
    ~Scope() {
      if (index_ < 0) return;
      Span& span = tracer_->spans_[static_cast<std::size_t>(index_)];
      span.end = Clock::now();
      tracer_->open_ = span.parent;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    void set_calls(std::int64_t calls) {
      if (index_ >= 0) {
        tracer_->spans_[static_cast<std::size_t>(index_)].calls = calls;
      }
    }

   private:
    Tracer* tracer_;
    int index_ = -1;
  };

  void set_enabled(bool enabled) { enabled_ = enabled; }
  void set_pass(int pass) { pass_ = pass; }

  Scope Open(const char* name) { return Scope(this, name); }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_ = false;
  int pass_ = 0;
  int open_ = -1;
  std::vector<Span> spans_;
};

/// Self time of every span: its duration minus the time its direct
/// children cover (children never overlap: the harness is one thread).
inline std::vector<double> SelfSeconds(const std::vector<Span>& spans) {
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = Seconds(spans[i].start, spans[i].end);
  }
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      self[static_cast<std::size_t>(span.parent)] -=
          Seconds(span.start, span.end);
    }
  }
  return self;
}

/// Writes the spans in the Chrome trace-event format (load the file in
/// chrome://tracing or ui.perfetto.dev); `args` carries the span's id,
/// parent id, pass number, call count, and self time.
inline bool WriteTrace(const std::string& path, const std::vector<Span>& spans,
                       std::string_view workload, std::uint64_t seed) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<double> self = SelfSeconds(spans);
  const Clock::time_point epoch =
      spans.empty() ? Clock::time_point{} : spans.front().start;
  auto us = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - epoch).count();
  };
  std::fprintf(f,
               "{\"otherData\": {\"workload\": \"%.*s\", \"seed\": %llu},\n"
               " \"displayTimeUnit\": \"ms\",\n \"traceEvents\": [\n",
               static_cast<int>(workload.size()), workload.data(),
               static_cast<unsigned long long>(seed));
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const std::string_view layer = LayerOf(s);
    std::fprintf(f,
                 "  {\"name\": \"%s\", \"cat\": \"%.*s\", \"ph\": \"X\", "
                 "\"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"id\": %zu, \"parent\": %d, \"pass\": %d, "
                 "\"calls\": %lld, \"self_us\": %.3f}}%s\n",
                 s.name, static_cast<int>(layer.size()), layer.data(),
                 us(s.start), us(s.end) - us(s.start), i, s.parent, s.pass,
                 static_cast<long long>(s.calls), self[i] * 1e6,
                 i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(f, " ]}\n");
  return std::fclose(f) == 0;
}

}  // namespace tgm::e2e

#endif  // TGM_BENCH_E2E_TRACE_H_
