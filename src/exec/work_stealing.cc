#include "exec/work_stealing.h"

#include <chrono>
#include <utility>

namespace tgm {
namespace {

/// Bounded parking interval for join waits, matching the idle-worker
/// discipline: a wakeup lost to the sleeper-probe race costs at most one
/// timeout, never a hang. Joins are latency-critical (a helping thread
/// re-probes the backlog on every wake), so their bound stays tight.
constexpr std::chrono::microseconds kParkTimeout{500};

/// Idle workers park much longer: Enqueue notifies through the sleeper
/// counter and the worker re-probes every queue after registering as a
/// sleeper, so the timeout only backstops the residual probe/park race.
/// A long bound keeps an oversubscribed host from burning cycles on
/// idle-worker wake/scan churn.
constexpr std::chrono::milliseconds kIdleParkTimeout{10};

/// Worker identity: which scheduler (if any) owns the current thread, and
/// its deque index there. Lets Enqueue route nested tasks to the local
/// deque and lets helping joins start their steal scan at the right place.
struct WorkerTls {
  StealScheduler* sched = nullptr;
  int index = -1;
};
thread_local WorkerTls tls_worker;

}  // namespace

// ---------------------------------------------------------------------------
// TaskGroup

void TaskGroup::Run(std::function<void()> fn) {
  if (sched_ == nullptr || sched_->num_workers() == 0) {
    // Serial configuration: execute on the caller, but keep the error
    // contract identical to the scheduled path.
    try {
      fn();
    } catch (...) {
      RecordError();
    }
    return;
  }
  {
    MutexLock lock(wait_mu_);
    ++pending_;
  }
  sched_->Enqueue(std::move(fn), this);
}

void TaskGroup::Wait() {
  WaitNoRethrow();
  RethrowIfError();
}

void TaskGroup::WaitNoRethrow() {
  for (;;) {
    {
      MutexLock lock(wait_mu_);
      if (pending_ == 0) return;
    }
    // Work the backlog instead of sleeping. The task we pick up may itself
    // reach a nested Wait() and help recursively — depth-first, exactly the
    // order a serial execution would use.
    if (HelpOne()) continue;
    ParkUntilProgress();
  }
}

bool TaskGroup::HelpOne() { return sched_->RunOneTask(); }

void TaskGroup::ParkUntilProgress() {
  MutexLock lock(wait_mu_);
  if (pending_ == 0) return;
  done_cv_.WaitFor(lock, kParkTimeout);
}

void TaskGroup::OnTaskFinished() {
  MutexLock lock(wait_mu_);
  if (--pending_ == 0) done_cv_.NotifyAll();
}

void TaskGroup::RecordError() {
  MutexLock lock(err_mu_);
  if (!error_) error_ = std::current_exception();
}

void TaskGroup::RethrowIfError() {
  std::exception_ptr err;
  {
    MutexLock lock(err_mu_);
    err = std::exchange(error_, nullptr);
  }
  if (err) std::rethrow_exception(err);
}

std::string TaskGroup::CheckInvariants(bool quiescent) const {
  MutexLock lock(wait_mu_);
  if (pending_ < 0) {
    return "TaskGroup pending count negative: " + std::to_string(pending_);
  }
  if (quiescent && pending_ != 0) {
    return "quiescent TaskGroup has " + std::to_string(pending_) +
           " pending tasks";
  }
  return std::string();
}

// ---------------------------------------------------------------------------
// StealScheduler

StealScheduler::StealScheduler(int num_workers)
    : deques_(static_cast<std::size_t>(num_workers > 0 ? num_workers : 0)) {
  workers_.reserve(deques_.size());
  for (int i = 0; i < static_cast<int>(deques_.size()); ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

StealScheduler::~StealScheduler() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  cv_.NotifyAll();
  for (std::thread& w : workers_) w.join();
  // Zero-worker schedulers ran everything inline; nothing can be queued.
  // With workers, WorkerLoop drained all deques before exiting.
}

void StealScheduler::Submit(std::function<void()> task) {
  if (workers_.empty()) {
    ++tasks_enqueued_;
    Task t{std::move(task), nullptr};
    Execute(t);
    return;
  }
  Enqueue(std::move(task), nullptr);
}

void StealScheduler::Enqueue(std::function<void()> fn, TaskGroup* group) {
  ++tasks_enqueued_;
  Task t{std::move(fn), group};
  if (tls_worker.sched == this && tls_worker.index >= 0 &&
      tls_worker.index < static_cast<int>(deques_.size())) {
    // Nested spawn from a pool worker: keep it local (LIFO) so the owner
    // runs it next while thieves can still take it from the top.
    deques_[static_cast<std::size_t>(tls_worker.index)].PushBottom(
        std::move(t));
  } else {
    injector_.PushBottom(std::move(t));
  }
  NotifyIfSleeping();
}

void StealScheduler::NotifyIfSleeping() {
  if (sleepers_.load(std::memory_order_acquire) == 0) return;
  MutexLock lock(mu_);
  cv_.NotifyOne();
}

bool StealScheduler::AnyWorkApprox() const {
  if (injector_.SizeApprox() != 0) return true;
  for (const WorkDeque<Task>& dq : deques_) {
    if (dq.SizeApprox() != 0) return true;
  }
  return false;
}

bool StealScheduler::AcquireTask(int self, Task* out) {
  const std::size_t n = deques_.size();
  if (self >= 0 && static_cast<std::size_t>(self) < n &&
      deques_[static_cast<std::size_t>(self)].TryPopBottom(out)) {
    return true;
  }
  if (injector_.TrySteal(out)) return true;
  if (n == 0) return false;
  const std::size_t start =
      self >= 0 ? static_cast<std::size_t>(self) + 1 : 0;
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t victim = (start + k) % n;
    if (self >= 0 && victim == static_cast<std::size_t>(self)) continue;
    if (deques_[victim].TrySteal(out)) return true;
  }
  return false;
}

bool StealScheduler::RunOneTask() {
  const int self = tls_worker.sched == this ? tls_worker.index : -1;
  Task t;
  if (!AcquireTask(self, &t)) return false;
  Execute(t);
  return true;
}

void StealScheduler::Execute(Task& t) {
  if (t.group != nullptr) {
    try {
      t.fn();
    } catch (...) {
      t.group->RecordError();
    }
  } else {
    // Detached tasks have nowhere to report; exceptions escaping them
    // would terminate a worker, so the contract is "must not throw" and a
    // violation surfaces loudly.
    t.fn();
  }
  // Drop captured state before the completion becomes visible: a waiter
  // observing pending_ == 0 may immediately destroy objects the closure
  // still references.
  t.fn = nullptr;
  tasks_executed_.fetch_add(1, std::memory_order_release);
  if (t.group != nullptr) t.group->OnTaskFinished();
}

void StealScheduler::WorkerLoop(int index) {
  tls_worker.sched = this;
  tls_worker.index = index;
  bool stopping = false;
  for (;;) {
    Task t;
    if (AcquireTask(index, &t)) {
      Execute(t);
      continue;
    }
    if (stopping) break;  // stop observed and the whole pool scanned empty
    MutexLock lock(mu_);
    if (stop_) {
      // One more full acquire pass after observing stop so queued detached
      // tasks are drained, matching the old pool's drain-on-stop contract.
      stopping = true;
      continue;
    }
    sleepers_.fetch_add(1, std::memory_order_seq_cst);
    // Re-probe after publishing the sleeper registration: an Enqueue that
    // missed it (raced the registration) has already pushed its task, so
    // the size mirrors are non-zero here and the park is skipped. The
    // bounded timeout covers whatever interleaving slips past the probe.
    if (!AnyWorkApprox()) cv_.WaitFor(lock, kIdleParkTimeout);
    sleepers_.fetch_sub(1, std::memory_order_release);
  }
  tls_worker.sched = nullptr;
  tls_worker.index = -1;
}

std::string StealScheduler::CheckInvariants(bool quiescent) const {
  std::size_t queued = 0;
  for (std::size_t i = 0; i < deques_.size(); ++i) {
    std::string err = deques_[i].CheckInvariants();
    if (!err.empty()) return "deque " + std::to_string(i) + ": " + err;
    queued += deques_[i].SizeApprox();
  }
  {
    std::string err = injector_.CheckInvariants();
    if (!err.empty()) return "injector: " + err;
    queued += injector_.SizeApprox();
  }
  const int sleepers = sleepers_.load(std::memory_order_acquire);
  if (sleepers < 0 || sleepers > static_cast<int>(workers_.size())) {
    return "sleeper count " + std::to_string(sleepers) + " outside [0, " +
           std::to_string(workers_.size()) + "]";
  }
  if (quiescent) {
    const std::int64_t executed =
        tasks_executed_.load(std::memory_order_acquire);
    const std::int64_t enqueued =
        tasks_enqueued_.load(std::memory_order_acquire);
    const std::int64_t backlog = enqueued - executed;
    if (backlog != static_cast<std::int64_t>(queued)) {
      return "task accounting mismatch: enqueued " + std::to_string(enqueued) +
             " - executed " + std::to_string(executed) + " != queued " +
             std::to_string(queued);
    }
  }
  return std::string();
}

int ResolveNumThreads(int requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

}  // namespace tgm
