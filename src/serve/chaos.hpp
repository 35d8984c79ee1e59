// Deterministic chaos injection for the serving plane.
//
// The overload battery (the ServeEngine* suites in tests/test_serve.cpp) needs to
// push the ServeEngine into the failure modes production traffic produces —
// schedulers that stall, schedulers that throw, a pool that refuses work —
// *reproducibly*, so the same seed yields the same outcome accounting on
// every run, every worker count, and every sanitizer.
//
// Two design rules make that possible:
//
//   1. Fault decisions are keyed, not drawn.  Whether a computation stalls,
//      throws, or fails its pool handoff is a pure hash of (seed, request
//      fingerprint, injection site) — never a read from a shared sequential
//      RNG whose draw order would depend on thread interleaving.  A "cursed"
//      fingerprint therefore fails *every* time it is computed, so a request
//      that coalesces onto a cursed computation and a request that retries
//      it later see the same fate, and outcome counts are interleaving-
//      independent.
//
//   2. Stalls are gated, not slept.  A stalled computation blocks on a
//      condition variable until release_stalls() opens the gate (or a
//      bounded stall_ms budget elapses), which lets a harness freeze the
//      world — submit a saturating burst while nothing can complete, making
//      every admission decision deterministic — and then let it drain.
//
// The hook is injected through ServeConfig::chaos and costs nothing when
// absent (a null check on the cold path only; the cache-hit fast path never
// consults it).
#pragma once

#include <cstdint>
#include <exception>

#include "util/thread_annotations.hpp"

namespace tsched::serve {

/// Injection points the engine offers.  The default implementation of every
/// hook is a no-op, so a test can override just the site it cares about.
class ChaosHook {
public:
    virtual ~ChaosHook() = default;

    /// Called just before the engine hands a computation to the pool; a
    /// throw here is treated exactly like ThreadPool::submit throwing
    /// (submit-time pool failure).
    virtual void on_pool_submit(std::uint64_t /*fp*/) {}

    /// Called on the pool worker just before the scheduler runs; may block
    /// (slow-scheduler stall) or throw (scheduler exception).
    virtual void on_compute(std::uint64_t /*fp*/) {}
};

/// Cumulative injection counts (monotone; readable while the storm runs).
struct ChaosStats {
    std::uint64_t stalls = 0;
    std::uint64_t throws = 0;
    std::uint64_t submit_failures = 0;
};

struct ChaosOptions {
    std::uint64_t seed = 2007;
    double stall_prob = 0.0;        ///< fp-keyed probability a computation stalls
    double stall_ms = 5.0;          ///< bounded stall duration when not gated
    bool gate_stalls = false;       ///< stalled computations block until release_stalls()
    bool gate_all = false;          ///< every computation stalls at the gate (burst freeze)
    double throw_prob = 0.0;        ///< fp-keyed scheduler-exception probability
    double submit_fail_prob = 0.0;  ///< fp-keyed pool-handoff-failure probability
};

/// Thrown by injected scheduler/pool faults so harnesses can tell injected
/// failures from real ones.
class ChaosError : public std::exception {
public:
    const char* what() const noexcept override { return "serve chaos: injected failure"; }
};

class DeterministicChaos final : public ChaosHook {
public:
    explicit DeterministicChaos(ChaosOptions options);

    void on_pool_submit(std::uint64_t fp) override;  // throws ChaosError on a cursed fp
    void on_compute(std::uint64_t fp) override;      // stalls and/or throws ChaosError

    /// Open the stall gate: every parked computation proceeds, and later
    /// gated stalls pass straight through.  Idempotent.
    void release_stalls() TSCHED_EXCLUDES(mutex_);

    /// Close the gate again (harness reuse between scenarios).
    void rearm() TSCHED_EXCLUDES(mutex_);

    /// Decision predicates — pure functions of (seed, fp, site), exposed so
    /// harnesses can precompute the expected outcome set.
    [[nodiscard]] bool will_stall(std::uint64_t fp) const noexcept;
    [[nodiscard]] bool will_throw(std::uint64_t fp) const noexcept;
    [[nodiscard]] bool will_fail_submit(std::uint64_t fp) const noexcept;

    [[nodiscard]] ChaosStats stats() const TSCHED_EXCLUDES(mutex_);

private:
    ChaosOptions options_;
    mutable Mutex mutex_;
    CondVar gate_cv_;
    bool released_ TSCHED_GUARDED_BY(mutex_) = false;
    ChaosStats stats_ TSCHED_GUARDED_BY(mutex_);
};

}  // namespace tsched::serve
