#ifndef TGM_EXEC_FORK_JOIN_H_
#define TGM_EXEC_FORK_JOIN_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <thread>
#include <vector>

#include "base/mutex.h"

namespace tgm {

/// The execution substrate behind the miner's root batches and the stream
/// engine's shard broadcast: a fixed set of worker threads that, with the
/// calling thread, run one flat index loop at a time.
///
/// Run(n, body) runs body(i) for every i in [0, n). Every participant
/// claims the next index from one atomic counter, so which thread runs an
/// index varies run to run but what index i computes does not. Callers
/// write per-index slots and merge them in index order, which keeps their
/// output bit-identical to the serial loop for every worker count.
///
/// Idle workers block on a condition variable with no timeout. A call is
/// open from its start until the caller runs out of indices; workers join
/// it only while it is open, and the caller then waits only for the
/// workers that joined. A worker that wakes after the call has closed goes
/// back to sleep without touching the call's body.
class ForkJoinPool {
 public:
  /// Starts `num_workers` threads; with 0 (or fewer) none start and every
  /// Run executes inline on the caller.
  explicit ForkJoinPool(int num_workers);
  ~ForkJoinPool() TGM_EXCLUDES(mu_);

  ForkJoinPool(const ForkJoinPool&) = delete;
  ForkJoinPool& operator=(const ForkJoinPool&) = delete;

  int num_workers() const { return static_cast<int>(workers_.size()); }

  /// Runs body(i) for every i in [0, n) on the caller and the workers and
  /// returns once all have finished. With no workers or n < 2 the loop
  /// runs inline and no thread wakes. The body is passed by reference
  /// through a function pointer, so a call allocates nothing. If bodies
  /// throw, the exception of the lowest throwing index is rethrown; later
  /// indices may or may not have run. One call at a time: Run must not be
  /// called concurrently or from inside a body.
  template <typename Body>
  void Run(std::size_t n, const Body& body) TGM_EXCLUDES(mu_) {
    if (workers_.empty() || n < 2) {
      for (std::size_t i = 0; i < n; ++i) body(i);
      return;
    }
    RunShared(Call{n, &body, [](const void* b, std::size_t i) {
                     (*static_cast<const Body*>(b))(i);
                   }});
  }

 private:
  struct Call {
    std::size_t n = 0;
    const void* body = nullptr;
    void (*run)(const void* body, std::size_t i) = nullptr;
  };

  void RunShared(const Call& call) TGM_EXCLUDES(mu_);
  /// Claims and runs indices of `call` until the counter passes call.n.
  void Work(const Call& call) TGM_EXCLUDES(mu_);
  void WorkerLoop() TGM_EXCLUDES(mu_);
  void Stop() TGM_EXCLUDES(mu_);

  /// The index counter of the current call; reset only while no worker is
  /// joined.
  std::atomic<std::size_t> next_{0};
  Mutex mu_;
  /// Workers wait here for an open call (or stop_); the caller waits on
  /// done_cv_ for joined_ to drop to zero.
  CondVar wake_cv_;
  CondVar done_cv_;
  Call call_ TGM_GUARDED_BY(mu_);
  std::uint64_t generation_ TGM_GUARDED_BY(mu_) = 0;
  bool open_ TGM_GUARDED_BY(mu_) = false;
  int joined_ TGM_GUARDED_BY(mu_) = 0;
  bool stop_ TGM_GUARDED_BY(mu_) = false;
  std::exception_ptr error_ TGM_GUARDED_BY(mu_);
  std::size_t error_index_ TGM_GUARDED_BY(mu_) = 0;
  /// Written only by the constructor; declared last so the workers start
  /// after every member they use.
  std::vector<std::thread> workers_;
};

/// Resolves a `num_threads` config knob into a concrete thread count:
/// values <= 0 mean "all hardware threads"; anything else is taken as-is.
int ResolveNumThreads(int requested);

}  // namespace tgm

#endif  // TGM_EXEC_FORK_JOIN_H_
