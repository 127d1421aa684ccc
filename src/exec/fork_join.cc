#include "exec/fork_join.h"

#include <utility>

namespace tgm {

ForkJoinPool::ForkJoinPool(int num_workers) {
  try {
    for (int i = 0; i < num_workers; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  } catch (...) {
    Stop();  // join the threads that did start
    throw;
  }
}

ForkJoinPool::~ForkJoinPool() { Stop(); }

void ForkJoinPool::Stop() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  wake_cv_.NotifyAll();
  for (std::thread& w : workers_) w.join();
}

void ForkJoinPool::RunShared(const Call& call) {
  {
    MutexLock lock(mu_);
    call_ = call;
    next_.store(0, std::memory_order_relaxed);
    ++generation_;
    open_ = true;
  }
  wake_cv_.NotifyAll();
  Work(call);
  std::exception_ptr error;
  {
    MutexLock lock(mu_);
    // Every index is claimed: close the call, so a worker that wakes from
    // here on skips it, and wait only for the workers already inside.
    open_ = false;
    while (joined_ != 0) done_cv_.Wait(lock);
    error = std::exchange(error_, nullptr);
  }
  if (error) std::rethrow_exception(error);
}

void ForkJoinPool::Work(const Call& call) {
  for (std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
       i < call.n; i = next_.fetch_add(1, std::memory_order_relaxed)) {
    try {
      call.run(call.body, i);
    } catch (...) {
      MutexLock lock(mu_);
      if (!error_ || i < error_index_) {
        error_ = std::current_exception();
        error_index_ = i;
      }
    }
  }
}

void ForkJoinPool::WorkerLoop() {
  std::uint64_t seen = 0;
  for (;;) {
    Call call;
    {
      MutexLock lock(mu_);
      // Sleep until stop, or until a call this worker has not seen opens.
      while (!stop_ && (!open_ || generation_ == seen)) wake_cv_.Wait(lock);
      if (stop_) return;
      seen = generation_;
      call = call_;
      ++joined_;
    }
    // The joined_ count holds the caller in RunShared until this worker
    // leaves, so `call` and its body stay alive for the whole Work.
    Work(call);
    MutexLock lock(mu_);
    if (--joined_ == 0) done_cv_.NotifyOne();
  }
}

int ResolveNumThreads(int requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

}  // namespace tgm
