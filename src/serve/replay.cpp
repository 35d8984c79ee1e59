#include "serve/replay.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/stats.hpp"
#include "util/stopwatch.hpp"

namespace tsched::serve {

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
    std::uint64_t report_ok = 0;
    std::uint64_t report_shed = 0;
    std::uint64_t report_degraded = 0;
    std::uint64_t report_timed_out = 0;
    std::uint64_t report_draining = 0;
    std::vector<double> latencies;
    latencies.reserve(prepared.size() * options.epochs);
    // The histogram view of the same latencies: what a collector scraping
    // the live exports would base its percentiles on.  Filled here, apart
    // from the engine's own instruments, so the histogram-vs-exact
    // validation in bench_serve --check sees exactly these latencies.
    obs::LatencyHistogram latency_hist;

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
                 engine.run_batch(std::move(batch), options.wait_budget_ms)) {
                latencies.push_back(result.latency_ms);
                latency_hist.record(result.latency_ms);
                switch (result.outcome) {
                    case ServeOutcome::kOk: ++report_ok; break;
                    case ServeOutcome::kShed: ++report_shed; break;
                    case ServeOutcome::kDegraded: ++report_degraded; break;
                    case ServeOutcome::kTimedOut: ++report_timed_out; break;
                    case ServeOutcome::kDraining: ++report_draining; break;
                }
            }
        }
        if (live_metrics && options.metrics_per_epoch) reporter.flush();
    }
    const double wall_ms = wall.elapsed_ms();
    reporter.stop();  // background mode: final flush; per-epoch mode: no-op

    ReplayReport report;
    report.requests = latencies.size();
    report.wall_ms = wall_ms;
    report.qps =
        wall_ms > 0.0 ? static_cast<double>(report.requests) / (wall_ms / 1e3) : 0.0;
    report.latency_hist = latency_hist.snapshot();
    if (!latencies.empty()) {
        double sum = 0.0;
        for (const double l : latencies) sum += l;
        report.latency_mean_ms = sum / static_cast<double>(latencies.size());
        std::sort(latencies.begin(), latencies.end());
        report.latency_p50_ms = quantile_sorted(latencies, 0.50);
        report.latency_p95_ms = quantile_sorted(latencies, 0.95);
        report.latency_p99_ms = quantile_sorted(latencies, 0.99);
        report.latency_p999_ms = quantile_sorted(latencies, 0.999);
        report.latency_max_ms = latencies.back();
        report.hist_p50_ms = report.latency_hist.quantile(0.50);
        report.hist_p95_ms = report.latency_hist.quantile(0.95);
        report.hist_p99_ms = report.latency_hist.quantile(0.99);
        report.hist_p999_ms = report.latency_hist.quantile(0.999);
    }
    report.ok = report_ok;
    report.shed = report_shed;
    report.degraded = report_degraded;
    report.timed_out = report_timed_out;
    report.draining = report_draining;
    report.stats = engine.stats();
    report.metrics = engine.metrics_snapshot();
    return report;
}

}  // namespace tsched::serve
