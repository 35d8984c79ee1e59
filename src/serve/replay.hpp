// Trace replay: the in-process measurement loop shared by tools/tsched_serve
// and bench/bench_serve (E17), and the report and tally it shares with the
// wire driver net::replay_net (E21).
//
// replay_trace replays a .tsr request stream against a ServeEngine in
// fixed-size batches and reports serving metrics: QPS, latency order
// statistics (p50/p95/p99 over per-request submit->ready times), outcomes
// and cache behaviour.  Both drivers feed one ReplayTally and finish it into
// one ReplayReport, so the in-process and wire numbers for one trace differ
// only by what the wire layer costs; the two drive loops stay separate (an
// engine batch loop and a socket thread pool share no logic).
//
// Protocol: all requests are materialized (descriptor -> Problem) *before*
// the clock starts, so cache-on and cache-off runs time exactly the same
// non-serving work; the stream is then replayed `epochs` times against one
// persistent engine.  Epochs model steady-state serving — a cache outlives
// any single pass of traffic — and are reported as one aggregate window.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/reporter.hpp"
#include "serve/request_trace.hpp"
#include "serve/serve_engine.hpp"

namespace tsched::serve {

struct ReplayOptions {
    ServeConfig config;
    std::size_t batch = 16;  ///< requests submitted per run_batch call (>= 1)
    std::size_t epochs = 1;  ///< full passes over the stream (>= 1)

    /// Per-request latency budget stamped on every replayed request
    /// (<= 0 = no deadline); see ScheduleRequest::deadline_ms.
    double deadline_ms = 0.0;
    /// Per-batch wall budget for run_batch (<= 0 = wait forever); futures
    /// not ready in time surface as synthetic kTimedOut results instead of
    /// hanging the replay.
    double wait_budget_ms = 0.0;

    /// Live telemetry during the replay: when `metrics.path` is non-empty a
    /// MetricsReporter flushes the engine's obs snapshot there — on the
    /// reporter's background interval, or (metrics_per_epoch) synchronously
    /// once after every epoch, giving one JSONL line per pass with no timer
    /// nondeterminism.  The final state is always flushed at end of replay.
    obs::ReporterOptions metrics;
    bool metrics_per_epoch = false;
};

/// The one replay report: filled by replay_trace (in-process) and by
/// net::replay_net (over the wire), so E17 and E21 read the same shape.
///
/// Accounting identity (DESIGN §16, extended by the wire's transport
/// failures):  ok + shed + degraded + timed_out + draining + failed ==
/// requests.  The outcome tally counts *returned results* (caller view: a
/// run_batch wait-budget timeout counts here even though the promise side
/// may later resolve differently).
struct ReplayReport {
    std::size_t requests = 0;  ///< submitted (stream length x epochs)
    std::size_t replies = 0;   ///< answered (== requests unless connections died)
    double wall_ms = 0.0;
    double qps = 0.0;  ///< replies per second of wall time
    double latency_mean_ms = 0.0;
    // Exact order statistics over every reply's latency (submit -> ready
    // in-process, send -> matching reply on the wire; quantile_sorted:
    // interpolated; max is the largest observation).
    double latency_p50_ms = 0.0;
    double latency_p95_ms = 0.0;
    double latency_p99_ms = 0.0;
    double latency_p999_ms = 0.0;
    double latency_max_ms = 0.0;
    // The same latencies pushed through an obs::LatencyHistogram — what a
    // live collector would see instead of the exact vector.  Each hist_*
    // percentile must sit within LatencyHistogram::kMaxRelativeError of the
    // exact nearest-rank value (bench_serve --check asserts this every run).
    double hist_p50_ms = 0.0;
    double hist_p95_ms = 0.0;
    double hist_p99_ms = 0.0;
    double hist_p999_ms = 0.0;
    obs::HistogramSnapshot latency_hist;

    std::uint64_t ok = 0;
    std::uint64_t shed = 0;
    std::uint64_t degraded = 0;
    std::uint64_t timed_out = 0;
    std::uint64_t draining = 0;
    /// Requests that got no outcome: typed Error replies and requests lost
    /// to a dropped connection.  Always 0 in-process, where a scheduler
    /// exception propagates out of replay_trace instead.
    std::uint64_t failed = 0;
    std::uint64_t cache_hits = 0;  ///< replies answered from the schedule cache

    // In-process only (replay_trace).
    EngineStats stats;             ///< engine totals at end of replay
    obs::MetricsSnapshot metrics;  ///< engine obs document at end of replay

    // Wire only (net::replay_net; see net/net_replay.hpp).
    std::size_t conns = 0;
    std::uint64_t schedule_digest = 0;  ///< order-independent payload digest
    bool payload_consistent = true;     ///< equal fingerprints -> equal bytes

    [[nodiscard]] bool accounting_ok() const noexcept {
        return ok + shed + degraded + timed_out + draining + failed == requests;
    }
    /// Fraction of replayed requests refused by admission control.
    [[nodiscard]] double shed_rate() const noexcept {
        return requests > 0 ? static_cast<double>(shed) / static_cast<double>(requests) : 0.0;
    }
    /// Fraction of replayed requests whose latency budget was missed.
    [[nodiscard]] double deadline_hit_rate() const noexcept {
        return requests > 0 ? static_cast<double>(timed_out) / static_cast<double>(requests)
                            : 0.0;
    }
};

/// Outcome and latency tally behind ReplayReport, shared by both replay
/// drivers.  A plain value: each driver thread keeps its own, merge() folds
/// them together, finish() turns the sum into a report.  The report is a
/// function of the recorded multiset only, so merge order cannot change it.
struct ReplayTally {
    std::vector<double> latencies;  ///< one per reply
    std::uint64_t ok = 0;
    std::uint64_t shed = 0;
    std::uint64_t degraded = 0;
    std::uint64_t timed_out = 0;
    std::uint64_t draining = 0;
    std::uint64_t failed = 0;
    std::uint64_t cache_hits = 0;

    /// One answered request.
    void record(ServeOutcome outcome, double latency_ms, bool cache_hit);
    /// One transport failure: a typed Error reply, which still has a latency.
    void record_failure(double latency_ms);
    /// `count` requests lost without a reply (dropped or never sent).
    void record_lost(std::uint64_t count);
    void merge(const ReplayTally& other);
    /// The report over everything recorded, for `requests` submitted in
    /// `wall_ms`: exact order statistics plus histogram percentiles.
    [[nodiscard]] ReplayReport finish(std::size_t requests, double wall_ms) const;
};

/// Replay `trace` on a fresh engine over `pool`; see protocol above.
[[nodiscard]] ReplayReport replay_trace(const std::vector<TraceRequest>& trace,
                                        const ReplayOptions& options, ThreadPool& pool);

}  // namespace tsched::serve
