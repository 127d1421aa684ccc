#ifndef TGM_TGMINER_TGMINER_H_
#define TGM_TGMINER_TGMINER_H_

/// \file tgminer.h
/// Umbrella header: the full public API of the TGMiner library.
///
/// Layering, bottom to top (each header is also usable on its own):
///  - base vocabulary: base/annotations.h (the Clang thread-safety
///    capability macros — TGM_GUARDED_BY/TGM_REQUIRES/TGM_EXCLUDES/... —
///    no-ops off Clang), base/mutex.h (annotated Mutex/MutexLock/CondVar
///    wrappers plus the ThreadRole confinement capability), and
///    base/invariants.h (structural validators + the
///    TGMINER_CHECK_INVARIANTS batch-boundary hook). base/ depends on
///    nothing in the tree and everything concurrent depends on it: the
///    exec/ primitives' locking contracts and the stream engine's
///    sequencer/shard ownership split are spelled in these macros and
///    machine-checked by the static-analysis CI wall.
///  - execution substrate: exec/fork_join.h (ForkJoinPool — one flat
///    index loop at a time, run by the caller and a fixed set of workers
///    that claim indices from one atomic counter). The miner's root
///    batches and the stream engine's shard broadcast both run on it;
///    nothing above exec/ spawns raw threads.
///  - error model: api/status.h (tgm::Status / tgm::StatusOr<T>, used by
///    every layer's fallible public entry points)
///  - temporal graph substrate: temporal_graph.h, pattern.h, sequence.h,
///    residual.h, label_dict.h, io.h (text formats + parsers);
///    constraints.h (TemporalConstraints — timed-automata guards as a
///    query-time annotation on a Pattern, enforced identically by the
///    offline searcher and the stream runtime, persisted with the
///    BehaviorQuery artifact)
///  - temporal subgraph testers and match enumeration: matcher.h,
///    seq_matcher.h, vf2_matcher.h, index_matcher.h, edge_scan_matcher.h
///  - the discriminative miner and its ablations: miner.h, miner_config.h,
///    score.h, result.h
///  - the non-temporal baseline: static_graph.h, dfs_code.h, gspan.h
///  - the syscall-log simulator (one Session data source among any):
///    entity.h, script.h, behaviors.h, background.h, dataset.h
///  - query formulation, search and evaluation: interest.h, searcher.h,
///    nodeset.h, static_search.h, evaluator.h; online surveillance:
///    query/stream/, layered bottom-up as event.h (the stream unit) ->
///    compiled_plan.h (Pattern compiled to transition guards once, plus
///    seed-dispatch keys) -> partial_table.h (live partials bucketed by
///    the entity their next transition requires) -> query_runtime.h
///    (transition/routing semantics: MatchTransition/RouteForNextEdge +
///    the per-query runtime) -> shard.h (a round-robin subset of the
///    queries plus seed dispatch) -> engine.h (StreamEngine: batching,
///    the per-batch broadcast to every shard, and the canonical alert
///    merge that makes the stream independent of the shard count)
///  - **the stable front door** (new code starts here): api/session.h
///    (tgm::api::Session — ingestion, corpora, the Search/Watch pair),
///    api/behavior_query.h (the durable mined-query artifact),
///    api/event_record.h (generic ingestion unit), api/builders.h
///    (fluent validated config construction)
///  - back-compat facade over the front door: pipeline.h (the
///    paper-replication Pipeline; its temporal stages delegate to an
///    embedded Session)
///
/// This prose is documentation; the machine-checked source of truth for
/// the include DAG is tools/lint/layers.conf, enforced by tgm-lint
/// (tools/lint/tgm_lint.py, gate 4 of scripts/run_static_analysis.sh).
/// An include from a lower layer into a higher one fails CI; if you add
/// a header or move one between layers, update layers.conf in the same
/// change.
///
/// Every pre-api include below keeps working unchanged.

#include "api/behavior_query.h"
#include "api/builders.h"
#include "api/event_record.h"
#include "api/session.h"
#include "api/status.h"
#include "matching/edge_scan_matcher.h"
#include "matching/index_matcher.h"
#include "matching/matcher.h"
#include "matching/seq_matcher.h"
#include "matching/vf2_matcher.h"
#include "mining/miner.h"
#include "mining/miner_config.h"
#include "mining/result.h"
#include "mining/score.h"
#include "nontemporal/dfs_code.h"
#include "nontemporal/gspan.h"
#include "nontemporal/static_graph.h"
#include "query/evaluator.h"
#include "query/interest.h"
#include "query/nodeset.h"
#include "query/pipeline.h"
#include "query/searcher.h"
#include "query/static_search.h"
#include "syslog/background.h"
#include "syslog/behaviors.h"
#include "syslog/dataset.h"
#include "syslog/entity.h"
#include "syslog/script.h"
#include "temporal/common.h"
#include "temporal/constraints.h"
#include "temporal/label_dict.h"
#include "temporal/pattern.h"
#include "temporal/residual.h"
#include "temporal/sequence.h"
#include "temporal/temporal_graph.h"

#endif  // TGM_TGMINER_TGMINER_H_
