#ifndef TGM_API_BUILDERS_H_
#define TGM_API_BUILDERS_H_

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>

#include "api/status.h"
#include "mining/miner_config.h"
#include "temporal/constraints.h"
#include "temporal/pattern.h"

/// \file builders.h
/// Fluent, validating builders for the library's configuration structs.
///
/// The raw structs (`MinerConfig`, `SessionOptions`) stay plain
/// aggregates — cheap to copy, trivially defaultable — while the builders
/// give callers a chained, discoverable construction path whose `Build()`
/// validates ranges and returns `StatusOr` instead of letting a bad knob
/// (zero max_edges, negative thread count) surface later as a TGM_CHECK
/// crash deep inside the miner.

namespace tgm::api {

/// Chained construction of a MinerConfig:
///
///   TGM_ASSIGN_OR_RETURN(MinerConfig config,
///                        MinerConfigBuilder("TGMiner")
///                            .MaxEdges(6)
///                            .TopK(32)
///                            .MinPosFreq(0.75)
///                            .Threads(4)
///                            .RootBatch(16)
///                            .Build());
class MinerConfigBuilder {
 public:
  /// Starts from the TGMiner preset.
  MinerConfigBuilder() : config_(MinerConfig::TGMiner()) {}
  /// Starts from a named paper preset (TGMiner, SubPrune, SupPrune,
  /// PruneGI, PruneVF2, LinearScan); unknown names fall back to TGMiner
  /// exactly like MinerConfig::ByName.
  explicit MinerConfigBuilder(std::string_view preset)
      : config_(MinerConfig::ByName(std::string(preset))) {}
  /// Starts from an existing config (tweak-and-validate).
  explicit MinerConfigBuilder(const MinerConfig& config) : config_(config) {}

  MinerConfigBuilder& MaxEdges(int v) { config_.max_edges = v; return *this; }
  MinerConfigBuilder& TopK(int v) { config_.top_k = v; return *this; }
  MinerConfigBuilder& MinPosFreq(double v) {
    config_.min_pos_freq = v;
    return *this;
  }
  MinerConfigBuilder& MaxEmbeddingsPerGraph(std::int64_t v) {
    config_.max_embeddings_per_graph = v;
    return *this;
  }
  MinerConfigBuilder& Threads(int v) { config_.num_threads = v; return *this; }
  MinerConfigBuilder& RootBatch(int v) { config_.root_batch = v; return *this; }
  MinerConfigBuilder& MaxVisited(std::int64_t v) {
    config_.max_visited = v;
    return *this;
  }
  MinerConfigBuilder& MaxMillis(std::int64_t v) {
    config_.max_millis = v;
    return *this;
  }

  /// Validates and returns the config.
  [[nodiscard]] StatusOr<MinerConfig> Build() const {
    if (config_.max_edges < 1) {
      return Status::InvalidArgument("max_edges must be >= 1, got " +
                                     std::to_string(config_.max_edges));
    }
    if (config_.top_k < 1) {
      return Status::InvalidArgument("top_k must be >= 1, got " +
                                     std::to_string(config_.top_k));
    }
    if (config_.min_pos_freq < 0.0 || config_.min_pos_freq > 1.0) {
      return Status::InvalidArgument(
          "min_pos_freq must be in [0, 1], got " +
          std::to_string(config_.min_pos_freq));
    }
    if (config_.num_threads < 0) {
      return Status::InvalidArgument(
          "num_threads must be >= 0 (0 = all hardware threads), got " +
          std::to_string(config_.num_threads));
    }
    if (config_.root_batch < 0) {
      return Status::InvalidArgument(
          "root_batch must be >= 0 (0 = adaptive), got " +
          std::to_string(config_.root_batch));
    }
    if (config_.max_embeddings_per_graph < 0 || config_.max_visited < 0 ||
        config_.max_millis < 0) {
      return Status::InvalidArgument(
          "embedding/visit/time budgets must be >= 0 (0 = unlimited)");
    }
    return config_;
  }

 private:
  MinerConfig config_;
};

/// Execution options of a Session (see api/session.h). A plain aggregate;
/// build through SessionOptionsBuilder for validation.
struct SessionOptions {
  /// Match cap of one offline Search pass (guards pathological queries).
  std::int64_t search_match_cap = 200000;
  /// Worker shards of the online engine (Watch); <= 0 = all hardware
  /// threads.
  int watch_shards = 1;
  /// Events per engine fan-out batch (>= 1).
  std::size_t watch_batch_size = 1;
  /// Per-query live-partial cap of the online engine. Defaults to
  /// uncapped so Watch and Search agree exactly (the offline searcher
  /// never drops work); production monitors with bounded memory should
  /// lower it and accept drop accounting.
  std::size_t watch_max_partials = std::numeric_limits<std::size_t>::max();
};

/// Chained construction of SessionOptions:
///
///   TGM_ASSIGN_OR_RETURN(SessionOptions opts, SessionOptionsBuilder()
///                            .WatchShards(4)
///                            .WatchBatchSize(64)
///                            .Build());
class SessionOptionsBuilder {
 public:
  SessionOptionsBuilder() = default;
  explicit SessionOptionsBuilder(const SessionOptions& options)
      : options_(options) {}

  SessionOptionsBuilder& SearchMatchCap(std::int64_t v) {
    options_.search_match_cap = v;
    return *this;
  }
  SessionOptionsBuilder& WatchShards(int v) {
    options_.watch_shards = v;
    return *this;
  }
  SessionOptionsBuilder& WatchBatchSize(std::size_t v) {
    options_.watch_batch_size = v;
    return *this;
  }
  SessionOptionsBuilder& WatchMaxPartials(std::size_t v) {
    options_.watch_max_partials = v;
    return *this;
  }

  [[nodiscard]] StatusOr<SessionOptions> Build() const {
    if (options_.search_match_cap < 1) {
      return Status::InvalidArgument(
          "search_match_cap must be >= 1, got " +
          std::to_string(options_.search_match_cap));
    }
    if (options_.watch_batch_size < 1) {
      return Status::InvalidArgument("watch_batch_size must be >= 1");
    }
    return options_;
  }

 private:
  SessionOptions options_;
};

/// Chained construction of a TemporalConstraints annotation for one
/// behaviour-query pattern (timed-automata guards; see
/// temporal/constraints.h). Transition indices are pattern edge positions;
/// edge 0 is the seed edge and accepts only label alternatives (time-gap
/// bounds on it are rejected at Build, like every other inconsistency):
///
///   TGM_ASSIGN_OR_RETURN(
///       TemporalConstraints c,
///       QueryConstraintsBuilder(pattern.edge_count())
///           .MaxGap(1, 30)              // edge 1 within 30s of edge 0
///           .MinGap(2, 5)               // edge 2 at least 5s after edge 1
///           .MaxSinceSeed(2, 120)       // ... and within 120s of the seed
///           .AlternativeEdgeLabel(1, sudo_label)  // edge 1: ssh OR sudo
///           .Deadline(600)              // whole match within 10 minutes
///           .Build(pattern));
class QueryConstraintsBuilder {
 public:
  explicit QueryConstraintsBuilder(std::size_t edge_count)
      : constraints_(edge_count) {}
  /// Starts from an existing annotation (tweak-and-validate).
  explicit QueryConstraintsBuilder(TemporalConstraints constraints)
      : constraints_(std::move(constraints)) {}

  /// Edge k must occur at least `v` after edge k-1.
  QueryConstraintsBuilder& MinGap(std::size_t k, Timestamp v) {
    if (TransitionGuard* g = GuardAt(k, "MinGap")) g->min_gap = v;
    return *this;
  }
  /// Edge k must occur at most `v` after edge k-1 (kNoGapLimit resets to
  /// unbounded).
  QueryConstraintsBuilder& MaxGap(std::size_t k, Timestamp v) {
    if (TransitionGuard* g = GuardAt(k, "MaxGap")) g->max_gap = v;
    return *this;
  }
  /// Edge k must occur at least `v` after the seed edge.
  QueryConstraintsBuilder& MinSinceSeed(std::size_t k, Timestamp v) {
    if (TransitionGuard* g = GuardAt(k, "MinSinceSeed")) g->min_since_seed = v;
    return *this;
  }
  /// Edge k must occur at most `v` after the seed edge.
  QueryConstraintsBuilder& MaxSinceSeed(std::size_t k, Timestamp v) {
    if (TransitionGuard* g = GuardAt(k, "MaxSinceSeed")) g->max_since_seed = v;
    return *this;
  }
  /// Edge k also accepts edge label `label` (disjunction with the
  /// pattern's own label; call repeatedly for more alternatives).
  QueryConstraintsBuilder& AlternativeEdgeLabel(std::size_t k, LabelId label) {
    if (TransitionGuard* g = GuardAt(k, "AlternativeEdgeLabel")) {
      g->elabel_alts.push_back(label);
    }
    return *this;
  }
  /// The whole match must span at most `v` (composes with the query
  /// window as min; 0 = window only).
  QueryConstraintsBuilder& Deadline(Timestamp v) {
    constraints_.set_deadline(v);
    return *this;
  }

  /// Normalizes, validates against `pattern`, and returns the annotation.
  [[nodiscard]] StatusOr<TemporalConstraints> Build(const Pattern& pattern) const {
    if (!deferred_error_.empty()) {
      return Status::InvalidArgument(deferred_error_);
    }
    TemporalConstraints result = constraints_;
    result.Normalize();
    TGM_RETURN_IF_ERROR(result.ValidateFor(pattern));
    return result;
  }

 private:
  /// Chained setters cannot return Status, so an out-of-range transition
  /// index is parked here and surfaces from Build.
  TransitionGuard* GuardAt(std::size_t k, std::string_view setter) {
    if (k < constraints_.size()) return &constraints_.mutable_guard(k);
    if (deferred_error_.empty()) {
      deferred_error_ = std::string(setter) + " on transition " +
                        std::to_string(k) + " of a query with " +
                        std::to_string(constraints_.size()) + " edges";
    }
    return nullptr;
  }

  TemporalConstraints constraints_;
  std::string deferred_error_;
};

}  // namespace tgm::api

#endif  // TGM_API_BUILDERS_H_
