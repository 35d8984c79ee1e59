// Runtime metrics subsystem: mergeable latency histograms, gauges, and a
// labelled instrument registry (the quantitative live-telemetry layer the
// serving stack exports; DESIGN §14).
//
// Relation to trace/ (PR 2): trace counters and span timers are *scalar*
// accumulators for algorithm forensics — totals per process run, dumped at
// exit.  obs/ is the serving-time layer above them: distributions instead of
// totals (tail latency, not just mean), point-in-time snapshots with
// delta-since-last support, labels, and wire formats (Prometheus text and
// JSON, obs/export.hpp) that external collectors scrape while the system
// runs.
//
// LatencyHistogram is log-bucketed (HDR-style): every power of two is split
// into 64 linear sub-buckets, so record() is a couple of bit operations on
// the IEEE-754 representation plus one relaxed atomic add — O(1), no locks,
// thread-safe.  Bucket boundaries are a pure function of the value (never of
// the data seen so far), which makes histograms mergeable (bucket-wise adds,
// associative and commutative) and snapshots byte-stable: the same recorded
// multiset produces the same snapshot regardless of recording order or
// thread interleaving.  The reported quantile is the midpoint of the bucket
// holding the nearest-rank sample, so its relative error versus that exact
// sample is bounded by kMaxRelativeError = 1/128 < 1% (the bucket's relative
// width is 1/64; the midpoint halves it).  min and max are tracked exactly,
// so the extreme quantiles are exact.
//
// Intentionally *not* stored: a floating-point sum.  Accumulating doubles
// concurrently is order-dependent, which would break snapshot byte-stability
// under a thread pool; mean() is derived from bucket midpoints instead and
// inherits the same relative-error bound.
//
// Lock discipline (clang thread-safety checked, DESIGN §13): histograms and
// gauges are internally relaxed-atomic and never take a lock; the registry's
// name->instrument table is GUARDED_BY the registry mutex, and the returned
// references are stable for the registry's lifetime (entries are never
// removed), so hot paths cache them and record lock-free.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/thread_annotations.hpp"

namespace tsched::obs {

/// Instrument labels, e.g. {{"shard", "3"}}.  Canonical form (enforced by
/// the registry and the exporters) is sorted by key; values are free-form.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Sort `labels` by key (then value) into the canonical order.
void canonicalize(Labels& labels);

struct HistogramBucket {
    std::uint32_t index = 0;   ///< LatencyHistogram bucket index
    std::uint64_t count = 0;
    [[nodiscard]] bool operator==(const HistogramBucket&) const = default;
};

/// Point-in-time copy of a LatencyHistogram: sparse non-empty buckets in
/// ascending index order plus exact count/min/max.  Everything in here is a
/// deterministic function of the recorded multiset (see header comment), so
/// equal multisets give byte-equal snapshots.
struct HistogramSnapshot {
    std::uint64_t count = 0;      ///< total recordings, under/overflow included
    std::uint64_t underflow = 0;  ///< values below the bucketed range (incl. <= 0)
    std::uint64_t overflow = 0;   ///< values above the bucketed range (incl. +inf)
    double min = 0.0;             ///< exact smallest recorded value (count > 0)
    double max = 0.0;             ///< exact largest recorded value (count > 0)
    std::vector<HistogramBucket> buckets;

    /// Nearest-rank quantile, reported as the midpoint of the bucket holding
    /// the rank ceil(q*count) sample (clamped to [min, max]); underflow and
    /// overflow resolve to the exact min / max.  Relative error versus the
    /// exact nearest-rank sample is bounded by
    /// LatencyHistogram::kMaxRelativeError.  q in [0, 1]; 0 when empty.
    [[nodiscard]] double quantile(double q) const;

    /// Bucket-midpoint mean (same relative-error bound); 0 when empty.
    [[nodiscard]] double mean() const;

    /// Bucket-wise merge; exact, associative, and commutative.
    void merge(const HistogramSnapshot& other);

    [[nodiscard]] bool operator==(const HistogramSnapshot& other) const = default;
};

/// Log-bucketed latency histogram (header comment above).  Values are
/// dimensionless doubles; by convention the repository records milliseconds.
class LatencyHistogram {
public:
    /// Linear sub-buckets per power of two (2^kSubBits).
    static constexpr int kSubBits = 6;
    /// Bucketed value range: [2^kMinExp, 2^(kMaxExp+1)).  In milliseconds
    /// that is ~1.5e-8 ms (15 fs) to ~2.7e11 ms (8.7 years) — anything a
    /// latency measurement can plausibly produce; outliers land in the
    /// underflow/overflow counts and stay exact through min/max.
    static constexpr int kMinExp = -26;
    static constexpr int kMaxExp = 37;
    static constexpr std::size_t kNumBuckets =
        static_cast<std::size_t>(kMaxExp - kMinExp + 1) << kSubBits;
    /// Bound on |reported quantile - exact nearest-rank sample| relative to
    /// the exact sample: half the 1/64 relative bucket width.
    static constexpr double kMaxRelativeError = 1.0 / 128.0;

    /// Sentinels returned by bucket_index for out-of-range values.
    static constexpr std::uint32_t kUnderflowIndex = 0xFFFFFFFEu;
    static constexpr std::uint32_t kOverflowIndex = 0xFFFFFFFFu;

    LatencyHistogram() = default;
    LatencyHistogram(const LatencyHistogram&) = delete;
    LatencyHistogram& operator=(const LatencyHistogram&) = delete;

    /// O(1), lock-free, thread-safe.  NaN, zero, and negative values count
    /// as underflow (they are not latencies; they must still not be lost).
    void record(double value) noexcept;

    [[nodiscard]] std::uint64_t count() const noexcept {
        return count_.load(std::memory_order_relaxed);
    }

    [[nodiscard]] HistogramSnapshot snapshot() const;

    /// Zero every bucket and the min/max.  Not linearizable against
    /// concurrent record() calls; callers quiesce recording first.
    void reset() noexcept;

    /// Bucket index for a value: the deterministic (exponent, mantissa-top-
    /// 6-bits) decomposition, or a sentinel for out-of-range input.
    [[nodiscard]] static std::uint32_t bucket_index(double value) noexcept;
    /// Inclusive lower / exclusive upper boundary of a bucket.
    [[nodiscard]] static double bucket_lower(std::uint32_t index) noexcept;
    [[nodiscard]] static double bucket_upper(std::uint32_t index) noexcept;

private:
    // min_/max_ start at +/-infinity so the update CAS loops need no
    // "first recording" special case (a relaxed-order initialization
    // handshake would be racy); snapshot() maps the untouched sentinels
    // back to 0.
    std::atomic<std::uint64_t> count_{0};
    std::atomic<std::uint64_t> underflow_{0};
    std::atomic<std::uint64_t> overflow_{0};
    std::atomic<double> min_{std::numeric_limits<double>::infinity()};
    std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
    std::vector<std::atomic<std::uint64_t>> bucket_counts_ =
        std::vector<std::atomic<std::uint64_t>>(kNumBuckets);
};

/// Last-value instrument (queue depth, occupancy, hit rate).  Relaxed
/// atomics; add() is a CAS loop for the rare concurrent writer.
class Gauge {
public:
    void set(double value) noexcept { value_.store(value, std::memory_order_relaxed); }
    void add(double delta) noexcept;
    [[nodiscard]] double value() const noexcept {
        return value_.load(std::memory_order_relaxed);
    }

private:
    std::atomic<double> value_{0.0};
};

struct GaugeSample {
    std::string name;
    Labels labels;
    double value = 0.0;
    [[nodiscard]] bool operator==(const GaugeSample&) const = default;
};

struct CounterSample {
    std::string name;
    Labels labels;
    std::uint64_t value = 0;
    [[nodiscard]] bool operator==(const CounterSample&) const = default;
};

struct HistogramSample {
    std::string name;
    Labels labels;
    HistogramSnapshot hist;
    [[nodiscard]] bool operator==(const HistogramSample&) const = default;
};

/// Point-in-time view of a set of instruments.  Components contribute
/// fragments (engine registry, cache gauges, pool stats) that merge into one
/// exportable document; counters exist only at the snapshot level — live
/// counting stays with the components' own atomics (and, for scheduler
/// internals, the trace registry).
struct MetricsSnapshot {
    std::vector<CounterSample> counters;
    std::vector<GaugeSample> gauges;
    std::vector<HistogramSample> histograms;

    /// Fold `other` in: same-identity (name+labels) histograms merge,
    /// counters add, gauges take the incoming value; new identities append.
    void merge(const MetricsSnapshot& other);

    /// Canonical order: by name, then labels.  The exporters assume it.
    void sort();

    [[nodiscard]] bool operator==(const MetricsSnapshot&) const = default;
};

/// after - before: counter and histogram activity between two snapshots
/// (zero-activity entries dropped); gauges keep their `after` value.  A
/// delta histogram's min/max are the lifetime extremes from `after`, not
/// window extremes — the buckets are windowed, the extremes are not.
[[nodiscard]] MetricsSnapshot snapshot_delta(const MetricsSnapshot& before,
                                             const MetricsSnapshot& after);

// Named, labelled instrument owner.  find-or-create, stable references,
// append-only — the obs mirror of trace::Registry, plus labels and typed
// instruments.  One process-wide instance backs the macros (registry());
// components with bounded lifetimes (ServeEngine) own their own instance so
// engine teardown cannot leave dangling hot-path references.
class MetricsRegistry {
public:
    /// Find-or-create; labels are canonicalized.  The returned reference is
    /// stable for the registry's lifetime.
    [[nodiscard]] LatencyHistogram& histogram(std::string_view name, Labels labels = {})
        TSCHED_EXCLUDES(mutex_);
    [[nodiscard]] Gauge& gauge(std::string_view name, Labels labels = {})
        TSCHED_EXCLUDES(mutex_);

    [[nodiscard]] MetricsSnapshot snapshot() const TSCHED_EXCLUDES(mutex_);

    /// Activity since the previous delta_since_last() call (or since
    /// construction): snapshot_delta against an internally kept baseline.
    [[nodiscard]] MetricsSnapshot delta_since_last() TSCHED_EXCLUDES(mutex_);

    /// Zero every instrument.  Names stay registered (append-only).
    void reset() TSCHED_EXCLUDES(mutex_);

private:
    template <typename T>
    struct Entry {
        std::string name;
        Labels labels;
        std::unique_ptr<T> instrument;
    };

    mutable Mutex mutex_;
    std::vector<Entry<LatencyHistogram>> histograms_ TSCHED_GUARDED_BY(mutex_);
    std::vector<Entry<Gauge>> gauges_ TSCHED_GUARDED_BY(mutex_);
    MetricsSnapshot last_delta_base_ TSCHED_GUARDED_BY(mutex_);
};

/// The process-wide registry the obs macros record into (library-level
/// instrumentation: scheduler phase timers, executor retry timings).
[[nodiscard]] MetricsRegistry& registry();

}  // namespace tsched::obs
