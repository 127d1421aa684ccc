#ifndef TGM_EXEC_PARALLEL_FOR_H_
#define TGM_EXEC_PARALLEL_FOR_H_

#include <cstddef>
#include <exception>
#include <utility>
#include <vector>

#include "exec/work_stealing.h"

namespace tgm {

/// Deterministic parallel-for: runs `body(i)` for every i in [0, n).
///
/// The index space is split into contiguous chunks whose boundaries are a
/// pure function of (n, chunk count) — never of timing — so iterations see
/// a schedule-independent index assignment. Results must be written to
/// per-index (or per-chunk) slots; callers that then combine slots in
/// index order get output bit-identical to the serial loop, which is how
/// the stream engine's per-shard batch broadcast keeps its merged alerts
/// independent of the thread count.
///
/// Chunks are stealable tasks on the scheduler, oversubscribed several per
/// thread, so uneven per-index costs rebalance instead of the call
/// tail-waiting on its slowest fixed chunk. Which thread runs a chunk
/// varies run to run; which *indices* form a chunk does not.
///
/// Chunk 0 runs on the calling thread; the call blocks until every chunk
/// has finished. With a null scheduler, zero workers, or n < 2 the loop
/// runs inline. If bodies throw, the exception from the lowest-indexed
/// chunk is rethrown after all chunks complete (again
/// schedule-independent). Safe to call from inside a scheduler task:
/// the join helps (steals) instead of sleeping.
template <typename Body>
void ParallelFor(StealScheduler* pool, std::size_t n, const Body& body) {
  const std::size_t workers =
      pool == nullptr ? 0 : static_cast<std::size_t>(pool->num_workers());
  if (workers == 0 || n < 2) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  // Oversubscribe so early finishers steal remaining chunks; the count is a
  // pure function of (n, workers), keeping chunk boundaries deterministic.
  // 2x is deliberately mild: each extra chunk costs an enqueue/steal/join
  // round-trip, which on small regions rivals the chunk's own work.
  constexpr std::size_t kChunksPerThread = 2;
  const std::size_t max_chunks = (workers + 1) * kChunksPerThread;
  const std::size_t chunks = n < max_chunks ? n : max_chunks;
  const std::size_t base = n / chunks;
  const std::size_t rem = n % chunks;
  // Chunk c covers [c*base + min(c, rem), ...) — the first `rem` chunks get
  // one extra iteration. Depends only on (n, chunks).
  auto chunk_begin = [base, rem](std::size_t c) {
    return c * base + (c < rem ? c : rem);
  };

  // Chunk c is the only writer of errors[c]; the group join orders every
  // write before the final read. Keeping per-chunk slots (instead of the
  // group's own first-recorded error) makes the rethrown exception the
  // lowest-indexed one regardless of steal schedule.
  std::vector<std::exception_ptr> errors(chunks);
  auto run_chunk = [&body, &errors, chunk_begin](std::size_t c,
                                                 std::size_t end) {
    try {
      for (std::size_t i = chunk_begin(c); i < end; ++i) body(i);
    } catch (...) {
      errors[c] = std::current_exception();
    }
  };

  TaskGroup group(pool);
  for (std::size_t c = 1; c < chunks; ++c) {
    group.Run([&run_chunk, &chunk_begin, c] { run_chunk(c, chunk_begin(c + 1)); });
  }
  run_chunk(0, chunk_begin(1));
  group.Wait();
  for (std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(std::move(e));
  }
}

}  // namespace tgm

#endif  // TGM_EXEC_PARALLEL_FOR_H_
