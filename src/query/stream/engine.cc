#include "query/stream/engine.h"

#include <algorithm>

#include "base/invariants.h"

namespace tgm {

StreamEngine::StreamEngine(const Options& options)
    : options_(options),
      num_shards_(ResolveNumThreads(options.num_shards)),
      pool_(num_shards_ - 1) {
  RoleGuard seq(sequencer_role_);
  TGM_CHECK(num_shards_ >= 1);
  if (options_.batch_size == 0) options_.batch_size = 1;
  limits_.window = options_.window;
  limits_.max_partials = options_.max_partials_per_query;
  limits_.entity_index = options_.entity_index;
  limits_.guard_expiry = options_.guard_expiry;
  const auto shards = static_cast<std::size_t>(num_shards_);
  shards_.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) shards_.emplace_back(limits_);
  shard_alerts_.resize(shards);
  batch_.reserve(options_.batch_size);
  active_.reserve(options_.batch_size);
}

std::size_t StreamEngine::AddQuery(const Pattern& query) {
  return AddQuery(query, options_.window);
}

std::size_t StreamEngine::AddQuery(const Pattern& query, Timestamp window) {
  return AddQuery(query, window, TemporalConstraints());
}

std::size_t StreamEngine::AddQuery(const Pattern& query, Timestamp window,
                                   const TemporalConstraints& constraints) {
  RoleGuard seq(sequencer_role_);
  TGM_CHECK(query.edge_count() >= 1);
  TGM_CHECK(window >= 0);
  // Registering mid-batch would make buffered events see a different query
  // set than their arrival order implies.
  TGM_CHECK(batch_.empty());
  const std::size_t index = query_count_++;
  // No batch is in flight (checked above), so the engine thread owns the
  // shard.
  StreamShard& shard = shards_[index % shards_.size()];
  RoleGuard owner(shard.role());
  shard.AddQuery(index, query, window, constraints);
  return index;
}

void StreamEngine::OnEvent(const StreamEvent& event, const AlertSink& sink) {
  RoleGuard seq(sequencer_role_);
  StreamEvent accepted = event;
  if (any_event_ && accepted.ts < last_ts_) {
    // Stream precondition violated. Clamping to the newest timestamp keeps
    // window expiry monotonic (a raw out-of-order ts would expire live
    // partials of every query against a time that then jumps back); the
    // counter surfaces the violation instead of hiding it.
    ++out_of_order_events_;
    accepted.ts = last_ts_;
  }
  last_ts_ = accepted.ts;
  any_event_ = true;
  batch_.push_back(accepted);
  if (batch_.size() >= options_.batch_size) ProcessBatch(sink);
}

void StreamEngine::Flush(const AlertSink& sink) {
  RoleGuard seq(sequencer_role_);
  ProcessBatch(sink);
}

void StreamEngine::ProcessBatch(const AlertSink& sink) {
  if (batch_.empty()) return;
  // Double buffer: the batch being processed (active_) and the batch
  // being filled (batch_) are distinct vectors, swapped per batch. Shards
  // receive span views into active_ — no copies, and the capacity of both
  // sides persists, so steady state allocates nothing.
  std::swap(batch_, active_);
  batch_.clear();
  const std::span<const StreamEvent> batch{active_.data(), active_.size()};
  // Broadcast the batch: one pool index per shard, so a thread that
  // finishes its shard early takes the next unclaimed one while the
  // index-to-shard assignment stays fixed. Shards share nothing but the
  // read-only batch view.
  pool_.Run(shards_.size(), [this, batch](std::size_t s) {
    // Each index owns exactly one shard for the duration of the batch.
    RoleGuard owner(shards_[s].role());
    shards_[s].ProcessBatch(batch, &shard_alerts_[s]);
  });
  // Merge the per-shard outboxes into canonical (event, query, interval)
  // order. Keys never collide across shards (queries are partitioned), so
  // the merged order — and therefore the sink-visible alert stream — is
  // independent of the shard count.
  merged_.clear();
  for (const std::vector<ShardAlert>& alerts : shard_alerts_) {
    merged_.insert(merged_.end(), alerts.begin(), alerts.end());
  }
  std::sort(merged_.begin(), merged_.end());
  for (const ShardAlert& alert : merged_) {
    sink(StreamAlert{alert.query_index, alert.interval});
  }
  merged_.clear();
  // Debug builds (-DTGMINER_CHECK_INVARIANTS=ON) audit the whole engine at
  // every batch boundary; compiled out otherwise.
  TGM_VALIDATE_INVARIANTS("StreamEngine::ProcessBatch",
                          CheckInvariantsInternal());
}

std::size_t StreamEngine::PartialCount() const {
  RoleGuard seq(sequencer_role_);
  std::size_t total = 0;
  for (const StreamShard& shard : shards_) {
    // No batch is in flight (external synchronization), so the engine
    // thread owns every shard.
    RoleGuard owner(shard.role());
    total += shard.PartialCount();
  }
  return total;
}

std::int64_t StreamEngine::dropped_partials() const {
  RoleGuard seq(sequencer_role_);
  std::int64_t total = 0;
  for (const StreamShard& shard : shards_) {
    RoleGuard owner(shard.role());
    total += shard.dropped_partials();
  }
  return total;
}

EngineStats StreamEngine::Stats() const {
  RoleGuard seq(sequencer_role_);
  EngineStats stats;
  stats.out_of_order_events = out_of_order_events_;
  stats.shard_events.reserve(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const StreamShard& shard = shards_[s];
    RoleGuard owner(shard.role());
    stats.shard_events.push_back(shard.events_processed());
    for (const QueryRuntime& query : shard.queries()) {
      EngineQueryStats row;
      row.query_index = query.global_index();
      row.shard = s;
      row.live_partials = query.table().live();
      row.peak_partials = query.table().peak();
      row.index_buckets = query.table().bucket_count();
      row.wildcard_partials = query.table().wildcard_size();
      row.dropped_partials = query.dropped_partials();
      row.alerts = query.alerts();
      row.seed_skips = query.seed_skips();
      stats.queries.push_back(row);
      stats.live_partials += row.live_partials;
      stats.dropped_partials += row.dropped_partials;
      stats.alerts += row.alerts;
      stats.seed_skips += row.seed_skips;
    }
  }
  std::sort(stats.queries.begin(), stats.queries.end(),
            [](const EngineQueryStats& a, const EngineQueryStats& b) {
              return a.query_index < b.query_index;
            });
  return stats;
}

std::string StreamEngine::CheckInvariants() {
  RoleGuard seq(sequencer_role_);
  return CheckInvariantsInternal();
}

std::string StreamEngine::CheckInvariantsInternal() {
  // Events are broadcast, so every shard must have processed the same
  // count; each shard's tables must be structurally sound.
  std::int64_t events = -1;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const StreamShard& shard = shards_[s];
    RoleGuard owner(shard.role());
    if (std::string err = shard.CheckInvariants(); !err.empty()) {
      return "shard " + std::to_string(s) + ": " + err;
    }
    if (events < 0) {
      events = shard.events_processed();
    } else if (shard.events_processed() != events) {
      return "shard " + std::to_string(s) + " processed " +
             std::to_string(shard.events_processed()) +
             " events, shard 0 processed " + std::to_string(events) +
             " (batches are broadcast to every shard)";
    }
  }
  return std::string();
}

}  // namespace tgm
