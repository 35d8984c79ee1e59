// Shared pieces of the benchmark binary: run options, the result document
// every workload fills in, and small statistics / clock helpers.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "platform/problem.hpp"
#include "sched/schedule.hpp"
#include "trace/counters.hpp"

namespace perfbench {

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 20.0;
    bool trace = false;  ///< per-layer (traced) run instead of the end-to-end run
};

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/// What one run reports.  `problems` lists every correctness failure; a run
/// with any problem is printed with "correct": false and exits nonzero.
struct Result {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
    std::vector<std::string> problems;
    std::vector<std::string> notes;  ///< human-readable lines printed before the JSON

    void add(const std::string& name, double value, const std::string& unit) {
        metrics.push_back({name, value, unit});
    }
    void problem(const std::string& what) { problems.push_back(what); }
    void note(const std::string& line) { notes.push_back(line); }
    [[nodiscard]] bool correct() const noexcept { return problems.empty(); }
};

/// Print the notes, a metric table and the final one-line JSON document.
void print_result(const Result& result);

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
}
[[nodiscard]] inline double ms_since(Clock::time_point start) {
    return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

/// CPU time of the calling thread, in seconds.  With paravirtual steal
/// accounting this excludes time the host took the virtual CPU away, which
/// wall time on a shared virtual machine does not.
[[nodiscard]] double thread_cpu_s();

/// Nearest-rank quantile (q in [0, 1]) of an unsorted sample; 0 when empty.
/// Infinite samples (failed requests) sort last.
[[nodiscard]] double quantile(std::vector<double> samples, double q);
[[nodiscard]] inline double median(std::vector<double> samples) {
    return quantile(std::move(samples), 0.5);
}

/// Peak resident set size of this process in MB (getrusage ru_maxrss).
[[nodiscard]] double peak_rss_mb();

/// SplitMix64 step: the benchmark's only source of input randomness, so a
/// seed fixes every generated input.
[[nodiscard]] std::uint64_t mix(std::uint64_t x) noexcept;

/// Uniform double in [0, 1) from a SplitMix64 state (advances the state).
[[nodiscard]] double uniform01(std::uint64_t& state) noexcept;

/// The simulator oracle.  The event simulator re-derives every start time
/// from the schedule's decisions alone, so its makespan can never exceed the
/// planned one.  Without duplicates the two must be equal.  With duplicates
/// the replay may finish earlier, because it takes each input from whichever
/// copy delivers it first; ils-d and dsh schedules do this on some inputs.
struct SimCheck {
    bool exact = true;  ///< replay makespan == planned makespan
    bool ok = true;     ///< the rule above holds
    double planned = 0.0;
    double replayed = 0.0;
};
[[nodiscard]] SimCheck check_simulation(const tsched::Schedule& schedule,
                                        const tsched::Problem& problem);

// Lookups into the program's own telemetry snapshots (0 / empty when absent).
[[nodiscard]] std::uint64_t trace_counter(const tsched::trace::Snapshot& snapshot,
                                          const std::string& name);
[[nodiscard]] std::uint64_t obs_counter(const tsched::obs::MetricsSnapshot& snapshot,
                                        const std::string& name);
[[nodiscard]] tsched::obs::HistogramSnapshot obs_histogram(
    const tsched::obs::MetricsSnapshot& snapshot, const std::string& name);

}  // namespace perfbench
