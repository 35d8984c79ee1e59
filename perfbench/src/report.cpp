#include "report.hpp"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "sim/event_sim.hpp"

namespace perfbench {

void print_result(const Result& result) {
    for (const std::string& line : result.notes) std::printf("%s\n", line.c_str());
    for (const Metric& m : result.metrics)
        std::printf("%-34s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    for (const std::string& p : result.problems) std::fprintf(stderr, "MISMATCH: %s\n", p.c_str());

    std::string json = "{\"correct\": ";
    json += result.correct() ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(result.attempted);
    json += ", \"failed\": " + std::to_string(result.failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < result.metrics.size(); ++i) {
        const Metric& m = result.metrics[i];
        char value[64];
        // Non-finite values are not JSON; they only occur on a broken run,
        // which is already flagged incorrect.
        std::snprintf(value, sizeof value, "%.17g", std::isfinite(m.value) ? m.value : -1.0);
        json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
                m.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
}

double quantile(std::vector<double> samples, double q) {
    if (samples.empty()) return 0.0;
    std::sort(samples.begin(), samples.end());
    const auto n = static_cast<double>(samples.size());
    auto rank = static_cast<std::size_t>(std::ceil(q * n));
    rank = std::clamp<std::size_t>(rank, 1, samples.size());
    return samples[rank - 1];
}

double thread_cpu_s() {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux reports KiB
}

std::uint64_t mix(std::uint64_t x) noexcept {
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

double uniform01(std::uint64_t& state) noexcept {
    state = mix(state);
    return static_cast<double>(state >> 11) * 0x1.0p-53;
}

SimCheck check_simulation(const tsched::Schedule& schedule, const tsched::Problem& problem) {
    SimCheck check;
    check.planned = schedule.makespan();
    check.replayed = tsched::sim::simulate(schedule, problem).makespan;
    check.exact = check.replayed == check.planned;
    const bool duplicated = schedule.num_placements() > problem.num_tasks();
    check.ok = duplicated ? check.replayed <= check.planned : check.exact;
    return check;
}

std::uint64_t trace_counter(const tsched::trace::Snapshot& snapshot, const std::string& name) {
    for (const auto& c : snapshot.counters)
        if (c.name == name) return c.value;
    return 0;
}

std::uint64_t obs_counter(const tsched::obs::MetricsSnapshot& snapshot, const std::string& name) {
    std::uint64_t total = 0;
    for (const auto& c : snapshot.counters)
        if (c.name == name) total += c.value;
    return total;
}

tsched::obs::HistogramSnapshot obs_histogram(const tsched::obs::MetricsSnapshot& snapshot,
                                             const std::string& name) {
    tsched::obs::HistogramSnapshot out;
    for (const auto& h : snapshot.histograms)
        if (h.name == name) out.merge(h.hist);
    return out;
}

}  // namespace perfbench
