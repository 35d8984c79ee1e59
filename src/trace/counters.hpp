// Counter registry — the quantitative half of the trace subsystem (see
// trace/trace.hpp for the macro front-end).
//
// Counters are named monotonic uint64 accumulators ("eft_evaluations",
// "insertion_probes", ...) in one process-wide registry, so any layer —
// scheduler, simulator, bench harness — can contribute without plumbing.
// Counter *names are append-only*, like the analysis subsystem's TS codes:
// downstream tooling may key on them.  Wall-clock timing of named scopes
// lives in obs/ (TSCHED_OBS_PHASE histograms), not here.
//
// Hot-path cost: one relaxed atomic add per hit (the macro caches the
// registry lookup in a function-local static).  Registration itself takes a
// mutex and is thread-safe.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/thread_annotations.hpp"

namespace tsched::trace {

class Counter {
public:
    void add(std::uint64_t delta) noexcept { value_.fetch_add(delta, std::memory_order_relaxed); }
    [[nodiscard]] std::uint64_t value() const noexcept {
        return value_.load(std::memory_order_relaxed);
    }
    void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

private:
    std::atomic<std::uint64_t> value_{0};
};

struct CounterSample {
    std::string name;
    std::uint64_t value = 0;
};

/// A point-in-time copy of every registered counter, in registration order.
struct Snapshot {
    std::vector<CounterSample> counters;
};

// Lock discipline: the name->counter table is GUARDED_BY the registry
// mutex; the Counter objects it points to are themselves relaxed-atomic
// (hot-path adds never take the lock — the registration lookup is cached in
// a function-local static by the macros).
class Registry {
public:
    /// Find-or-create; the returned reference is stable for the process
    /// lifetime (entries are never removed).
    Counter& counter(std::string_view name) TSCHED_EXCLUDES(mutex_);

    [[nodiscard]] Snapshot snapshot() const TSCHED_EXCLUDES(mutex_);

    /// Zero every value.  Names stay registered (append-only).
    void reset() TSCHED_EXCLUDES(mutex_);

private:
    mutable Mutex mutex_;
    std::vector<std::pair<std::string, std::unique_ptr<Counter>>> counters_
        TSCHED_GUARDED_BY(mutex_);
};

/// The process-wide registry all macros record into.
[[nodiscard]] Registry& registry();

/// after - before, per name: the activity between two snapshots.  Names
/// present only in `after` keep their full value; zero-valued entries are
/// dropped so per-point dumps stay small.
[[nodiscard]] Snapshot snapshot_delta(const Snapshot& before, const Snapshot& after);

/// Render a snapshot as JSON: {"counters": {"name": value, ...}}
[[nodiscard]] std::string to_json(const Snapshot& snapshot);

}  // namespace tsched::trace
