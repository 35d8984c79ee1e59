#include "serve/replay.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "util/stats.hpp"
#include "util/stopwatch.hpp"

namespace tsched::serve {

void ReplayTally::record(ServeOutcome outcome, double latency_ms, bool cache_hit) {
    latencies.push_back(latency_ms);
    switch (outcome) {
        case ServeOutcome::kOk: ++ok; break;
        case ServeOutcome::kShed: ++shed; break;
        case ServeOutcome::kDegraded: ++degraded; break;
        case ServeOutcome::kTimedOut: ++timed_out; break;
        case ServeOutcome::kDraining: ++draining; break;
    }
    if (cache_hit) ++cache_hits;
}

void ReplayTally::record_failure(double latency_ms) {
    latencies.push_back(latency_ms);
    ++failed;
}

void ReplayTally::record_lost(std::uint64_t count) { failed += count; }

void ReplayTally::merge(const ReplayTally& other) {
    latencies.insert(latencies.end(), other.latencies.begin(), other.latencies.end());
    ok += other.ok;
    shed += other.shed;
    degraded += other.degraded;
    timed_out += other.timed_out;
    draining += other.draining;
    failed += other.failed;
    cache_hits += other.cache_hits;
}

ReplayReport ReplayTally::finish(std::size_t requests, double wall_ms) const {
    ReplayReport report;
    report.requests = requests;
    report.replies = latencies.size();
    report.wall_ms = wall_ms;
    if (wall_ms > 0.0) report.qps = static_cast<double>(report.replies) / (wall_ms / 1e3);
    report.ok = ok;
    report.shed = shed;
    report.degraded = degraded;
    report.timed_out = timed_out;
    report.draining = draining;
    report.failed = failed;
    report.cache_hits = cache_hits;
    if (latencies.empty()) return report;

    // Sorted before summing, so the mean too is independent of merge order.
    std::vector<double> sorted = latencies;
    std::sort(sorted.begin(), sorted.end());
    obs::LatencyHistogram hist;
    for (const double l : sorted) hist.record(l);
    report.latency_hist = hist.snapshot();
    report.latency_mean_ms = std::accumulate(sorted.begin(), sorted.end(), 0.0) /
                             static_cast<double>(sorted.size());
    report.latency_p50_ms = quantile_sorted(sorted, 0.50);
    report.latency_p95_ms = quantile_sorted(sorted, 0.95);
    report.latency_p99_ms = quantile_sorted(sorted, 0.99);
    report.latency_p999_ms = quantile_sorted(sorted, 0.999);
    report.latency_max_ms = sorted.back();
    report.hist_p50_ms = report.latency_hist.quantile(0.50);
    report.hist_p95_ms = report.latency_hist.quantile(0.95);
    report.hist_p99_ms = report.latency_hist.quantile(0.99);
    report.hist_p999_ms = report.latency_hist.quantile(0.999);
    return report;
}

ReplayReport replay_trace(const std::vector<TraceRequest>& trace, const ReplayOptions& options,
                          ThreadPool& pool) {
    if (options.batch == 0) throw std::invalid_argument("replay_trace: batch must be >= 1");
    if (options.epochs == 0) throw std::invalid_argument("replay_trace: epochs must be >= 1");

    std::vector<ScheduleRequest> prepared;
    prepared.reserve(trace.size());
    for (const TraceRequest& r : trace) {
        prepared.push_back(materialize(r));
        prepared.back().deadline_ms = options.deadline_ms;
    }

    ServeEngine engine(options.config, pool);
    ReplayTally tally;
    tally.latencies.reserve(prepared.size() * options.epochs);

    // The reporter borrows the engine; declared after it so it stops (and
    // takes its final flush) before the engine can be torn down.
    obs::MetricsReporter reporter(options.metrics,
                                  [&engine] { return engine.metrics_snapshot(); });
    const bool live_metrics = !options.metrics.path.empty();
    if (live_metrics && !options.metrics_per_epoch) reporter.start();

    Stopwatch wall;
    for (std::size_t epoch = 0; epoch < options.epochs; ++epoch) {
        for (std::size_t begin = 0; begin < prepared.size(); begin += options.batch) {
            const std::size_t end = std::min(begin + options.batch, prepared.size());
            std::vector<ScheduleRequest> batch(prepared.begin() + static_cast<std::ptrdiff_t>(begin),
                                               prepared.begin() + static_cast<std::ptrdiff_t>(end));
            for (const ServeResult& result :
                 engine.run_batch(std::move(batch), options.wait_budget_ms))
                tally.record(result.outcome, result.latency_ms, result.cache_hit);
        }
        if (live_metrics && options.metrics_per_epoch) reporter.flush();
    }
    const double wall_ms = wall.elapsed_ms();
    reporter.stop();  // background mode: final flush; per-epoch mode: no-op

    ReplayReport report = tally.finish(prepared.size() * options.epochs, wall_ms);
    report.stats = engine.stats();
    report.metrics = engine.metrics_snapshot();
    return report;
}

}  // namespace tsched::serve
