// Compile-time concurrency discipline: clang Thread Safety Analysis macros
// and annotated synchronization primitives.
//
// Every shared-state component in the repository (ThreadPool, ScheduleCache,
// ServeEngine, the executor, the trace registry, util/log) declares its lock
// ownership through these macros so that a forgotten lock is a *build break*
// under clang (`-Wthread-safety -Werror=thread-safety`), not a flaky TSan
// repro.  On GCC/MSVC every macro expands to nothing and the wrapper types
// below degrade to zero-cost veneers over the std primitives, so the
// annotations cost nothing where they cannot be checked.
//
// Conventions (DESIGN §13 has the full treatment):
//   * every mutable member shared across threads is `TSCHED_GUARDED_BY` its
//     mutex; immutable-after-construction members are left unannotated and
//     documented as such;
//   * internal helpers that expect the caller to hold a lock carry a
//     `_locked` name suffix *and* `TSCHED_REQUIRES(mutex_)` — ownership is
//     visible in the signature, not in a comment;
//   * public entry points that take a lock themselves are annotated
//     `TSCHED_EXCLUDES(mutex_)` so re-entrant misuse fails to compile;
//   * condition waits are written as explicit `while (!cond) cv.wait(lock);`
//     loops instead of predicate lambdas, keeping every guarded read inside
//     the annotated function body where the analysis can see the lock.
//
// Force-off escape hatch: defining TSCHED_THREAD_ANNOTATIONS_FORCE_OFF makes
// the macros expand to nothing even under clang; tests/test_annotations.cpp
// uses it to prove annotated code compiles unchanged without the analysis.
#pragma once

#include <condition_variable>
#include <mutex>

#if defined(__clang__) && !defined(TSCHED_THREAD_ANNOTATIONS_FORCE_OFF)
#define TSCHED_ANNOTATIONS_ENABLED 1
#define TSCHED_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define TSCHED_ANNOTATIONS_ENABLED 0
#define TSCHED_THREAD_ANNOTATION(x)  // expands to nothing off-clang
#endif

/// Marks a type as a lockable capability ("mutex" by convention).
#define TSCHED_CAPABILITY(x) TSCHED_THREAD_ANNOTATION(capability(x))

/// Marks an RAII type that acquires in its constructor / releases in its
/// destructor (std::lock_guard shape).
#define TSCHED_SCOPED_CAPABILITY TSCHED_THREAD_ANNOTATION(scoped_lockable)

/// Data member readable/writable only while holding the given mutex.
#define TSCHED_GUARDED_BY(x) TSCHED_THREAD_ANNOTATION(guarded_by(x))

/// Pointer member whose *pointee* is protected by the given mutex.
#define TSCHED_PT_GUARDED_BY(x) TSCHED_THREAD_ANNOTATION(pt_guarded_by(x))

/// Lock-ordering declaration: this mutex must be acquired before the listed
/// ones (checked under -Wthread-safety-beta).
#define TSCHED_ACQUIRED_BEFORE(...) TSCHED_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define TSCHED_ACQUIRED_AFTER(...) TSCHED_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))

/// Function precondition: caller already holds the mutex(es).
#define TSCHED_REQUIRES(...) TSCHED_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define TSCHED_REQUIRES_SHARED(...) \
    TSCHED_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))

/// Function acquires / releases the mutex(es) itself (non-RAII interfaces).
#define TSCHED_ACQUIRE(...) TSCHED_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define TSCHED_RELEASE(...) TSCHED_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define TSCHED_TRY_ACQUIRE(...) TSCHED_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

/// Function precondition: caller must NOT hold the mutex(es) (the function
/// takes them itself; calling with them held would self-deadlock).
#define TSCHED_EXCLUDES(...) TSCHED_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Runtime assertion that the capability is held (for code the analysis
/// cannot follow, e.g. locks handed across an API boundary).
#define TSCHED_ASSERT_CAPABILITY(x) TSCHED_THREAD_ANNOTATION(assert_capability(x))

/// The returned reference is protected by the given mutex.
#define TSCHED_RETURN_CAPABILITY(x) TSCHED_THREAD_ANNOTATION(lock_returned(x))

/// Last resort: suppress the analysis for one function.  Every use must
/// carry a comment explaining why the ownership cannot be expressed.
#define TSCHED_NO_THREAD_SAFETY_ANALYSIS TSCHED_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace tsched {

class UniqueLock;

/// std::mutex with the capability annotation the analysis needs.  Identical
/// layout and cost; prefer this for any mutex guarding annotated members.
class TSCHED_CAPABILITY("mutex") Mutex {
public:
    Mutex() = default;
    Mutex(const Mutex&) = delete;
    Mutex& operator=(const Mutex&) = delete;

    void lock() TSCHED_ACQUIRE() { inner_.lock(); }
    void unlock() TSCHED_RELEASE() { inner_.unlock(); }
    bool try_lock() TSCHED_TRY_ACQUIRE(true) { return inner_.try_lock(); }

private:
    friend class UniqueLock;
    std::mutex inner_;
};

/// RAII lock over Mutex — std::lock_guard with scoped-capability tracking.
class TSCHED_SCOPED_CAPABILITY LockGuard {
public:
    explicit LockGuard(Mutex& mutex) TSCHED_ACQUIRE(mutex) : mutex_(mutex) { mutex_.lock(); }
    ~LockGuard() TSCHED_RELEASE() { mutex_.unlock(); }

    LockGuard(const LockGuard&) = delete;
    LockGuard& operator=(const LockGuard&) = delete;

private:
    Mutex& mutex_;
};

/// Movable-free std::unique_lock shape: supports early unlock() and is the
/// lock type CondVar waits on.  Wraps a real std::unique_lock over the
/// Mutex's inner std::mutex so condition_variable wait semantics (and
/// codegen) are exactly those of the unannotated original.
class TSCHED_SCOPED_CAPABILITY UniqueLock {
public:
    explicit UniqueLock(Mutex& mutex) TSCHED_ACQUIRE(mutex) : inner_(mutex.inner_) {}
    ~UniqueLock() TSCHED_RELEASE() {}  // NOLINT(modernize-use-equals-default) — attribute needs a body

    UniqueLock(const UniqueLock&) = delete;
    UniqueLock& operator=(const UniqueLock&) = delete;

    /// Release before end of scope (the destructor then does nothing).
    void unlock() TSCHED_RELEASE() { inner_.unlock(); }

private:
    friend class CondVar;
    std::unique_lock<std::mutex> inner_;
};

/// Condition variable waiting on UniqueLock.  No predicate overload on
/// purpose: annotated code spells waits as explicit while-loops so guarded
/// reads stay inside the function the analysis is checking (a predicate
/// lambda would be analyzed as a separate, lockless function).
class CondVar {
public:
    CondVar() = default;
    CondVar(const CondVar&) = delete;
    CondVar& operator=(const CondVar&) = delete;

    /// Caller must hold `lock`; as with std::condition_variable, the lock is
    /// released while blocked and re-held on return.
    void wait(UniqueLock& lock) { inner_.wait(lock.inner_); }

    /// Timed wait, same contract as wait().  Returns std::cv_status so the
    /// caller's while-loop re-checks its guarded predicate either way
    /// (spurious wakeups and timeouts are handled identically).
    template <typename Rep, typename Period>
    std::cv_status wait_for(UniqueLock& lock,
                            const std::chrono::duration<Rep, Period>& timeout) {
        return inner_.wait_for(lock.inner_, timeout);
    }

    void notify_one() noexcept { inner_.notify_one(); }
    void notify_all() noexcept { inner_.notify_all(); }

private:
    std::condition_variable inner_;
};

}  // namespace tsched
