#ifndef TGM_BASE_ANNOTATIONS_H_
#define TGM_BASE_ANNOTATIONS_H_

/// \file annotations.h
/// Clang thread-safety (capability) annotations, Abseil-style.
///
/// Under Clang these expand to the attributes that drive the
/// `-Wthread-safety` capability analysis: the compiler proves, per
/// function, that every access to a `TGM_GUARDED_BY(mu)` member happens
/// while `mu` is held, that `TGM_REQUIRES(mu)` functions are only called
/// with `mu` held, and that `TGM_EXCLUDES(mu)` functions are never called
/// while it is. Off Clang every macro is a no-op, so annotated code builds
/// unchanged under GCC/MSVC.
///
/// The annotations attach to the project's own synchronization vocabulary
/// (base/mutex.h: Mutex, MutexLock, CondVar, ThreadRole, RoleGuard) rather
/// than `std::mutex`, because libstdc++'s `std::mutex` carries no
/// capability attributes — the analysis can only track acquisitions it can
/// see. Clang builds add `-Wthread-safety -Werror=thread-safety`
/// (top-level CMakeLists), so a locking-discipline violation is a build
/// failure: a fork-join caller that runs bodies while holding the pool
/// mutex (calling the TGM_EXCLUDES(mu_) ForkJoinPool::Work from inside
/// the locked wait) is exactly the class of bug this rejects at compile
/// time — `scripts/run_static_analysis.sh --seeded-defect` introduces
/// that pattern and asserts the build fails.

#if defined(__clang__) && defined(__has_attribute)
#define TGM_TS_ATTRIBUTE__(x) __attribute__((x))
#else
#define TGM_TS_ATTRIBUTE__(x)  // no-op off Clang
#endif

/// Marks a class as a capability ("mutex", "role", ...). Instances can be
/// named in the other annotations below.
#define TGM_CAPABILITY(x) TGM_TS_ATTRIBUTE__(capability(x))

/// Marks an RAII class whose constructor acquires and destructor releases
/// a capability (MutexLock, RoleGuard).
#define TGM_SCOPED_CAPABILITY TGM_TS_ATTRIBUTE__(scoped_lockable)

/// Declares that the member it annotates is protected by the given
/// capability: reads and writes require holding it.
#define TGM_GUARDED_BY(x) TGM_TS_ATTRIBUTE__(guarded_by(x))

/// Same for the data a pointer member points to.
#define TGM_PT_GUARDED_BY(x) TGM_TS_ATTRIBUTE__(pt_guarded_by(x))

/// The annotated function may only be called while holding the given
/// capability (it neither acquires nor releases it).
#define TGM_REQUIRES(...) \
  TGM_TS_ATTRIBUTE__(requires_capability(__VA_ARGS__))
#define TGM_REQUIRES_SHARED(...) \
  TGM_TS_ATTRIBUTE__(requires_shared_capability(__VA_ARGS__))

/// The annotated function acquires the capability (and does not release
/// it before returning); callers must not already hold it.
#define TGM_ACQUIRE(...) \
  TGM_TS_ATTRIBUTE__(acquire_capability(__VA_ARGS__))

/// The annotated function releases a capability the caller holds.
#define TGM_RELEASE(...) \
  TGM_TS_ATTRIBUTE__(release_capability(__VA_ARGS__))

/// The annotated function acquires the capability when it returns the
/// given value (try_lock-style).
#define TGM_TRY_ACQUIRE(...) \
  TGM_TS_ATTRIBUTE__(try_acquire_capability(__VA_ARGS__))

/// The annotated function must NOT be called while holding the capability
/// — it acquires and releases it internally. This is the contract whose
/// violation was the PR 7 deadlock.
#define TGM_EXCLUDES(...) TGM_TS_ATTRIBUTE__(locks_excluded(__VA_ARGS__))

/// The annotated accessor returns a reference to the named capability
/// (lets `obj.role()` stand for `obj.role_` in callers' annotations).
#define TGM_RETURN_CAPABILITY(x) TGM_TS_ATTRIBUTE__(lock_returned(x))

/// Escape hatch: disables the analysis for one function. Use only where
/// the locking pattern is correct but inexpressible; say why in a comment.
#define TGM_NO_THREAD_SAFETY_ANALYSIS \
  TGM_TS_ATTRIBUTE__(no_thread_safety_analysis)

#endif  // TGM_BASE_ANNOTATIONS_H_
