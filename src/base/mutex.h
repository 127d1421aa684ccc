#ifndef TGM_BASE_MUTEX_H_
#define TGM_BASE_MUTEX_H_

#include <condition_variable>
#include <mutex>

#include "base/annotations.h"

/// \file mutex.h
/// The project's annotated synchronization vocabulary: thin wrappers over
/// `std::mutex` / `std::condition_variable` that carry the capability
/// attributes Clang's `-Wthread-safety` analysis tracks (libstdc++'s own
/// types carry none), plus a zero-cost ThreadRole capability for code that
/// is protected by thread confinement rather than by a lock.
///
/// Everything here compiles to exactly the std primitives under every
/// compiler; only the static analysis sees the difference.

namespace tgm {

/// An annotated `std::mutex`. Prefer MutexLock over manual Lock/Unlock.
class TGM_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() TGM_ACQUIRE() { mu_.lock(); }
  void Unlock() TGM_RELEASE() { mu_.unlock(); }
  bool TryLock() TGM_TRY_ACQUIRE(true) { return mu_.try_lock(); }

  /// The wrapped mutex, for interop with std lock machinery (MutexLock).
  std::mutex& native() { return mu_; }

 private:
  std::mutex mu_;
};

/// Scoped lock over a Mutex (the annotated `std::unique_lock`). CondVar
/// waits take the MutexLock by reference: the capability is held for the
/// whole scope, matching how the analysis models condition-variable waits
/// (the brief unlock inside `wait` re-establishes the lock before any
/// guarded access can run).
class TGM_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) TGM_ACQUIRE(mu) : lock_(mu.native()) {}
  ~MutexLock() TGM_RELEASE() {}

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  /// The wrapped unique_lock (what std::condition_variable waits on).
  std::unique_lock<std::mutex>& native() { return lock_; }

 private:
  std::unique_lock<std::mutex> lock_;
};

/// Condition variable over Mutex/MutexLock. Waits must hold the
/// MutexLock built over the Mutex that guards the awaited state, exactly
/// as with std::condition_variable.
class CondVar {
 public:
  void Wait(MutexLock& lock) { cv_.wait(lock.native()); }

  template <typename Pred>
  void Wait(MutexLock& lock, Pred&& pred) {
    cv_.wait(lock.native(), std::forward<Pred>(pred));
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

/// A zero-size capability for thread-confined state: data that no lock
/// protects because exactly one thread may touch it at a time — a stream
/// shard's tables (owned by the worker running its batch; the engine may
/// touch them only between batches), the stream engine's batching state.
///
/// Acquiring a role is free and purely lexical: RoleGuard emits no code;
/// the value is that every function touching confined state is annotated
/// TGM_REQUIRES(role) and every entry point that legitimately assumes
/// ownership (the batch's worker; the engine between batches) must say so
/// with a visible RoleGuard, so an accidental cross-thread access no
/// longer type-checks instead of becoming a data race.
class TGM_CAPABILITY("role") ThreadRole {
 public:
  ThreadRole() = default;
  ThreadRole(const ThreadRole&) = delete;
  ThreadRole& operator=(const ThreadRole&) = delete;
  // Movable (trivially — the role is state-free) so role-confined objects
  // can live in containers; copyable would let two objects share one
  // confinement capability, which is exactly the bug class this prevents.
  ThreadRole(ThreadRole&&) noexcept = default;
  ThreadRole& operator=(ThreadRole&&) noexcept = default;
};

/// Scoped claim of a ThreadRole. Purely an assertion to the analysis —
/// the *correctness* of the claim (worker loop, or post-quiesce engine
/// access) is the claimant's responsibility and should be stated in a
/// comment at each use.
class TGM_SCOPED_CAPABILITY RoleGuard {
 public:
  explicit RoleGuard(const ThreadRole& role) TGM_ACQUIRE(role) {
    (void)role;
  }
  ~RoleGuard() TGM_RELEASE() {}

  RoleGuard(const RoleGuard&) = delete;
  RoleGuard& operator=(const RoleGuard&) = delete;
};

}  // namespace tgm

#endif  // TGM_BASE_MUTEX_H_
