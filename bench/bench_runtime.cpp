// E10 — Scheduler running time (the "scheduling cost" table), two modes:
//
// 1. Default: google-benchmark over algo x DAG-size, the interactive /
//    exploratory mode (all google-benchmark flags apply).
// 2. --json=PATH: the perf-trajectory mode.  Runs a fixed sweep (same
//    instance generator seed every time), records the mean wall-clock
//    scheduling time per (algo, n), and writes one JSON document that
//    tools/perf_check.sh diffs against the committed BENCH_runtime.json
//    baseline to catch scheduling-time regressions in CI.
//    Extra flags in this mode:
//      --max-n=N         drop sweep points above N tasks (CI smoke uses 100)
//      --min-time-ms=T   measure each point for at least T ms (default 200)
//      --algos=a,b,c     restrict the algorithm set
//
// Since the checkpoint/undo rewrite the duplication-based schedulers run the
// same n = 400 ceiling as the cheap list schedulers; the big-n hot-path work
// (CSR adjacency, bucketed timelines) extends the sweep to n = 50000 with
// per-point rep caps.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "core/registry.hpp"
#include "util/args.hpp"
#include "util/stopwatch.hpp"
#include "workload/instance.hpp"

namespace {

using namespace tsched;

workload::InstanceParams runtime_params(std::size_t n) {
    workload::InstanceParams params;
    params.shape = workload::Shape::kLayered;
    params.size = n;
    params.num_procs = 8;
    params.ccr = 1.0;
    params.beta = 0.5;
    return params;
}

void run_scheduler(benchmark::State& state, const std::string& name, std::size_t n) {
    const Problem problem = workload::make_instance(runtime_params(n), 2007);
    const auto scheduler = make_scheduler(name);
    for (auto _ : state) {
        benchmark::DoNotOptimize(scheduler->schedule(problem).makespan());
    }
    state.SetLabel(name + " n=" + std::to_string(n));
}

const std::vector<std::string>& perf_algos() {
    // The speculation-heavy schedulers this PR series optimises, plus heft
    // as the list-scheduler reference point.
    static const std::vector<std::string> algos{"heft", "ils", "ils-d", "lheft", "dsh", "btdh"};
    return algos;
}

constexpr std::size_t kPerfSizes[] = {50, 100, 200, 400};

/// Big-n sweep points (the 10k–100k-task hot-path work).  Reps are capped so
/// the 50k duplication schedulers do not pin the sweep for minutes; the
/// 3-rep floor in measure_mean_ms still applies at the caps.
struct BigNPoint {
    std::size_t n;
    std::size_t max_reps;
};
constexpr BigNPoint kBigNPoints[] = {{2000, 12}, {10000, 6}, {50000, 3}};

void register_all() {
    for (const auto& name : perf_algos()) {
        for (const std::size_t n : kPerfSizes) {
            benchmark::RegisterBenchmark(
                (name + "/" + std::to_string(n)).c_str(),
                [name, n](benchmark::State& state) { run_scheduler(state, name, n); })
                ->Unit(benchmark::kMillisecond);
        }
    }
}

/// Measure mean scheduling time of one (algo, n) point: repeat until the
/// accumulated wall time reaches `min_time_ms` (at least 3 reps so a single
/// outlier cannot be the answer), never exceeding `max_reps` (big-n points
/// cap reps instead of time so the slowest schedulers stay bounded).
double measure_mean_ms(const Scheduler& scheduler, const Problem& problem, double min_time_ms,
                      std::size_t& reps_out,
                      std::size_t max_reps = std::numeric_limits<std::size_t>::max()) {
    // Warm-up rep: first-touch allocations should not count.
    (void)scheduler.schedule(problem).makespan();
    double total_ms = 0.0;
    std::size_t reps = 0;
    while ((reps < 3 || total_ms < min_time_ms) && reps < max_reps) {
        double elapsed_ms = 0.0;
        {
            const Stopwatch::Scoped timer(elapsed_ms);
            benchmark::DoNotOptimize(scheduler.schedule(problem).makespan());
        }
        total_ms += elapsed_ms;
        ++reps;
    }
    reps_out = reps;
    return total_ms / static_cast<double>(reps);
}

int run_json_mode(const Args& args) {
    const std::string path = args.get_string("json", "");
    const auto max_n = args.get_size("max-n", 50000);
    const double min_time_ms = args.get_double("min-time-ms", 200.0);
    const auto algos = args.get_string_list("algos", perf_algos());

    std::ofstream out(path);
    if (!out) {
        std::cerr << "error: cannot open " << path << '\n';
        return 1;
    }
    out << "{\n  \"schema\": 1,\n"
        << "  \"sweep\": {\"shape\": \"layered\", \"procs\": 8, \"ccr\": 1.0, "
           "\"beta\": 0.5, \"seed\": 2007},\n"
        << "  \"points\": [";
    bool first = true;
    const auto emit = [&](const std::string& name, const Scheduler& scheduler, std::size_t n,
                          std::size_t max_reps) {
        const Problem problem = workload::make_instance(runtime_params(n), 2007);
        std::size_t reps = 0;
        const double mean_ms = measure_mean_ms(scheduler, problem, min_time_ms, reps, max_reps);
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "%s\n    {\"algo\": \"%s\", \"n\": %zu, \"mean_ms\": %.4f, "
                      "\"reps\": %zu}",
                      first ? "" : ",", name.c_str(), n, mean_ms, reps);
        out << buf;
        std::cout << name << "/" << n << ": " << mean_ms << " ms (" << reps << " reps)\n";
        first = false;
    };
    for (const auto& name : algos) {
        const auto scheduler = make_scheduler(name);
        for (const std::size_t n : kPerfSizes) {
            if (n > max_n) continue;
            emit(name, *scheduler, n, std::numeric_limits<std::size_t>::max());
        }
        for (const BigNPoint& point : kBigNPoints) {
            if (point.n > max_n) continue;
            emit(name, *scheduler, point.n, point.max_reps);
        }
    }
    out << "\n  ]\n}\n";
    return out ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    const Args args(argc, argv);
    if (args.has("json")) return run_json_mode(args);
    register_all();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
