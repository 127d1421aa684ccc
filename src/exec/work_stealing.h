#ifndef TGM_EXEC_WORK_STEALING_H_
#define TGM_EXEC_WORK_STEALING_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "base/invariants.h"
#include "base/mutex.h"

namespace tgm {

class StealScheduler;

/// One participant's task store: a Chase-Lev-style double-ended queue —
/// the owner pushes and pops at the bottom (LIFO, so nested tasks run in
/// depth-first order with warm caches) while thieves take from the top
/// (FIFO, so the oldest — typically largest — pending task migrates
/// first). The classic Chase-Lev structure earns its lock-freedom with a
/// subtle circular-buffer/CAS protocol; the tasks scheduled here are
/// coarse (root subtrees, ParallelFor chunks, subgraph-isomorphism tests),
/// so this deque keeps only the *access pattern* and uses a plain mutex,
/// which the thread-safety analysis can then check. An atomic size mirror
/// lets empty probes (the steal scan's common case) skip the lock.
template <typename T>
class WorkDeque {
 public:
  WorkDeque() = default;
  WorkDeque(const WorkDeque&) = delete;
  WorkDeque& operator=(const WorkDeque&) = delete;

  /// Owner side: push one item at the bottom.
  void PushBottom(T item) TGM_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    items_.push_back(std::move(item));
    size_.store(items_.size(), std::memory_order_release);
  }

  /// Owner side: pop the most recently pushed item (LIFO).
  bool TryPopBottom(T* out) TGM_EXCLUDES(mu_) {
    if (size_.load(std::memory_order_acquire) == 0) return false;
    MutexLock lock(mu_);
    if (items_.empty()) return false;
    *out = std::move(items_.back());
    items_.pop_back();
    size_.store(items_.size(), std::memory_order_release);
    return true;
  }

  /// Thief side: take the oldest pending item (FIFO).
  bool TrySteal(T* out) TGM_EXCLUDES(mu_) {
    if (size_.load(std::memory_order_acquire) == 0) return false;
    MutexLock lock(mu_);
    if (items_.empty()) return false;
    *out = std::move(items_.front());
    items_.pop_front();
    size_.store(items_.size(), std::memory_order_release);
    return true;
  }

  /// Racy size probe; exact only when no concurrent push/pop is running.
  std::size_t SizeApprox() const {
    return size_.load(std::memory_order_acquire);
  }

  /// Structural validator (base/invariants.h): the atomic size mirror must
  /// agree with the guarded container. Returns "" when consistent.
  std::string CheckInvariants() const TGM_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    const std::size_t mirrored = size_.load(std::memory_order_acquire);
    if (mirrored != items_.size()) {
      return "size mirror " + std::to_string(mirrored) +
             " != guarded size " + std::to_string(items_.size());
    }
    return std::string();
  }

 private:
  mutable Mutex mu_;
  std::deque<T> items_ TGM_GUARDED_BY(mu_);
  /// Mirror of items_.size(), updated under mu_; read lock-free by the
  /// empty probes above.
  std::atomic<std::size_t> size_{0};
};

/// A join scope for tasks running on a StealScheduler.
///
/// Run() hands a task to the scheduler; Wait() blocks until every task of
/// this group has finished — but a *helping* block: while tasks are
/// pending, the waiter executes queued tasks (its own deque first, then
/// the injector, then steals) instead of sleeping. That is what makes
/// nesting legal: a pool worker that reaches a join inside a task works
/// the backlog — including the very subtasks it is waiting for — so the
/// old ThreadPool::Submit no-nesting restriction is gone by construction.
///
/// Determinism is the caller's contract, exactly as with the old pool:
/// tasks must write per-slot results merged in a fixed order
/// (exec/parallel_for.h layers that on top). If tasks throw, Wait()
/// rethrows one captured exception — the *first to be recorded*, which is
/// completion-order dependent; callers needing a schedule-independent
/// choice keep per-task error slots (again, see ParallelFor).
///
/// With a null scheduler (or zero workers) Run() executes inline on the
/// caller, so serial configurations pay nothing.
class TaskGroup {
 public:
  explicit TaskGroup(StealScheduler* sched) : sched_(sched) {}
  /// Joins outstanding tasks (exceptions are swallowed here; call Wait()
  /// before destruction to observe them).
  ~TaskGroup() { WaitNoRethrow(); }

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Schedules `fn` on the group's scheduler (inline when the scheduler is
  /// null or workerless). Safe to call from inside another task.
  void Run(std::function<void()> fn) TGM_EXCLUDES(wait_mu_);

  /// Helping join: returns once every task Run() so far has finished,
  /// executing queued tasks while it waits. Rethrows the group's first
  /// recorded task exception, if any. The group is reusable afterwards.
  void Wait() TGM_EXCLUDES(wait_mu_);

  /// Structural validator: pending count non-negative; a quiescent group
  /// (no task in flight, nobody in Wait) must have zero pending tasks.
  std::string CheckInvariants(bool quiescent = true) const
      TGM_EXCLUDES(wait_mu_);

 private:
  friend class StealScheduler;

  void WaitNoRethrow() TGM_EXCLUDES(wait_mu_);
  /// Executes one queued scheduler task if any is available. Must not be
  /// called with wait_mu_ held: the task it runs may be one of this very
  /// group's, whose completion locks wait_mu_ to signal — the nested-join
  /// self-deadlock this scheduler exists to eliminate.
  bool HelpOne() TGM_EXCLUDES(wait_mu_);
  /// Bounded park while nothing is runnable; completions notify done_cv_,
  /// new stealable work is re-polled on timeout.
  void ParkUntilProgress() TGM_EXCLUDES(wait_mu_);
  /// Called by the scheduler after a task of this group finished.
  void OnTaskFinished() TGM_EXCLUDES(wait_mu_);
  /// Captures std::current_exception() as the group error (first wins).
  void RecordError() TGM_EXCLUDES(err_mu_);
  void RethrowIfError() TGM_EXCLUDES(err_mu_);

  StealScheduler* const sched_;
  /// The join channel: pending_ counts scheduled-but-unfinished tasks;
  /// done_cv_ signals decrements to zero.
  mutable Mutex wait_mu_;
  CondVar done_cv_;
  std::int64_t pending_ TGM_GUARDED_BY(wait_mu_) = 0;
  mutable Mutex err_mu_;
  std::exception_ptr error_ TGM_GUARDED_BY(err_mu_);
};

/// The steal-capable execution engine behind the miner and the stream
/// engine: N worker threads, one WorkDeque per worker, plus a shared
/// injector deque for submissions from non-worker threads.
///
/// Scheduling: a worker runs its own deque bottom-first (LIFO), then takes
/// from the injector, then steals the top of sibling deques in a
/// round-robin scan — so nested tasks stay local and depth-first while
/// idle workers drain whoever is behind, which is what removes the
/// join-on-slowest-member tail that fixed chunk assignment had.
///
/// Blocked joins help instead of sleeping (TaskGroup::Wait), so tasks may
/// freely schedule and join subtasks on the same scheduler; the old
/// ThreadPool's "tasks must not block on other tasks" restriction is
/// lifted. Idle workers park on a condvar with a bounded timeout: wakeups
/// lost to the sleeper-count race cost at most one timeout period, never
/// a hang.
///
/// The scheduler provides mechanism only; determinism is the callers'
/// contract (per-slot results merged in fixed order — see ParallelFor and
/// the miner's commit protocol), which is why ranked miner output is
/// bit-identical for every worker count and steal schedule.
class StealScheduler {
 public:
  /// Spawns `num_workers` workers (0 is allowed; everything then runs
  /// inline on the submitting/waiting thread).
  explicit StealScheduler(int num_workers);

  /// Drains queued tasks, then joins the workers. Group tasks are always
  /// joined by their TaskGroup before it dies, so at destruction time only
  /// detached Submit() tasks can still be queued; they are run, not
  /// dropped.
  ~StealScheduler() TGM_EXCLUDES(mu_);

  StealScheduler(const StealScheduler&) = delete;
  StealScheduler& operator=(const StealScheduler&) = delete;

  int num_workers() const { return static_cast<int>(workers_.size()); }

  /// Enqueues a detached (join-less) task; with zero workers it runs
  /// inline. Prefer TaskGroup for anything that must be joined.
  void Submit(std::function<void()> task) TGM_EXCLUDES(mu_);

  /// Executes one queued task on the calling thread if any is runnable.
  /// The helping primitive under TaskGroup::Wait; also usable directly by
  /// tests. Must not be called while holding a TaskGroup's wait_mu_ (see
  /// TaskGroup::HelpOne).
  bool RunOneTask();

  /// Structural validator. Always checks per-deque consistency and the
  /// sleeper count range; `quiescent` (no task executing) additionally
  /// requires the enqueue/execute counters to agree with the queued
  /// backlog. Call at task boundaries — e.g. the miner validates between
  /// root batches under TGMINER_CHECK_INVARIANTS.
  std::string CheckInvariants(bool quiescent = true) const;

 private:
  friend class TaskGroup;

  struct Task {
    std::function<void()> fn;
    TaskGroup* group = nullptr;
  };

  /// Routes a task to the calling worker's own deque (LIFO nesting) or,
  /// from outside the pool, to the shared injector; wakes a sleeper.
  void Enqueue(std::function<void()> fn, TaskGroup* group) TGM_EXCLUDES(mu_);
  /// Takes one task as worker `self` (own deque, injector, steal scan);
  /// `self` < 0 means a non-worker thread (injector, then steal scan).
  bool AcquireTask(int self, Task* out);
  /// Lock-free probe of every queue's size mirror; used by idle workers
  /// to skip the park when work raced their sleeper registration.
  bool AnyWorkApprox() const;
  /// Runs `t`, records its error (if grouped), signals its group.
  void Execute(Task& t);
  void NotifyIfSleeping() TGM_EXCLUDES(mu_);
  void WorkerLoop(int index) TGM_EXCLUDES(mu_);

  std::vector<WorkDeque<Task>> deques_;  // one per worker
  WorkDeque<Task> injector_;             // submissions from non-workers
  /// Lifetime task counters; quiescent invariant: enqueued - executed ==
  /// queued backlog.
  std::atomic<std::int64_t> tasks_enqueued_{0};
  std::atomic<std::int64_t> tasks_executed_{0};
  /// Parking channel for idle workers. Guards stop_ only; the sleeper
  /// count is an atomic so enqueues can probe it without taking the lock
  /// (the bounded WaitFor recovers wakeups lost to that race).
  Mutex mu_;
  CondVar cv_;
  bool stop_ TGM_GUARDED_BY(mu_) = false;
  std::atomic<int> sleepers_{0};
  /// Written once by the constructor before any worker can observe it;
  /// read-only afterwards.
  std::vector<std::thread> workers_;
};

/// Resolves a `num_threads` config knob into a concrete thread count:
/// values <= 0 mean "all hardware threads"; anything else is taken as-is.
int ResolveNumThreads(int requested);

}  // namespace tgm

#endif  // TGM_EXEC_WORK_STEALING_H_
