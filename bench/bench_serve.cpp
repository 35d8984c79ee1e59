// E17 — serving core under request streams (bench_serve).
//
// Replays generated .tsr request streams through the ServeEngine and sweeps
// batch size x cache capacity x repeat-fraction, reporting QPS, latency
// p50/p95/p99, and cache hit rate per point (EXPERIMENTS.md E17).
//
// Protocol: every point materializes its requests before the clock starts
// and replays the stream --epochs times against one persistent engine
// (steady-state serving; see serve/replay.hpp).  The stream itself carries
// an exact repeat fraction, so single-epoch numbers are the cold-cache view
// and multi-epoch numbers the steady-state view.
//
//   --requests=N         stream length (default 64)
//   --n=N                instance size (default 150)
//   --procs=P            processors (default 8)
//   --algo=NAME          scheduler under service (default ils-d)
//   --threads=T          serving pool workers (default 0 = hardware)
//   --epochs=E           passes per measurement (default 2)
//   --batches=a,b        batch sizes to sweep (default 1,8,32)
//   --capacities=a,b     cache capacities to sweep (default 8,1024)
//   --repeat-fracs=a,b   repeat fractions to sweep (default 0,0.5,0.9)
//   --seed=S             trace generation seed (default 2007)
//   --csv=PATH           also write the sweep table as CSV
//   --metrics-out=PATH   append each sweep point's engine obs metrics
//                        document (obs/export.hpp JSON) as one JSONL line
//
// The serving correctness checks (cache bit-identity, coalescing, overload
// and fault-storm accounting, wire gates) are gtests in tests/test_serve.cpp
// and tests/test_net.cpp; the wire-level performance benchmark is perfbench.
//
// Exit status: 0 success, 2 usage or runtime errors.
#include <cstdint>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "obs/export.hpp"
#include "serve/replay.hpp"
#include "util/table.hpp"

namespace {

using namespace tsched;

struct ServeBenchConfig {
    std::size_t requests = 64;
    std::size_t n = 150;
    std::size_t procs = 8;
    std::string algo = "ils-d";
    std::size_t threads = 0;
    std::size_t epochs = 2;
    std::vector<std::size_t> batches = {1, 8, 32};
    std::vector<std::size_t> capacities = {8, 1024};
    std::vector<double> repeat_fracs = {0.0, 0.5, 0.9};
    std::uint64_t seed = 2007;
    std::string csv_path;
    std::string metrics_path;
};

serve::TraceGenParams trace_params(const ServeBenchConfig& config, double repeat_frac) {
    serve::TraceGenParams params;
    params.requests = config.requests;
    params.repeat_frac = repeat_frac;
    params.algos = {config.algo};
    params.size = config.n;
    params.procs = config.procs;
    params.seed = config.seed;
    return params;
}

int run_sweep(const ServeBenchConfig& config) {
    std::cout << "== E17: serving core (" << config.algo << ", n=" << config.n << ", P="
              << config.procs << ", " << config.requests << " requests x " << config.epochs
              << " epochs, threads=" << (config.threads ? std::to_string(config.threads)
                                                        : std::string("hw"))
              << ") ==\n";
    ThreadPool pool(config.threads);
    Table table({"repeat", "capacity", "batch", "qps", "p50 ms", "p95 ms", "p99 ms",
                 "p99.9 ms", "hit %", "evict"});
    std::ofstream metrics_out;
    if (!config.metrics_path.empty()) {
        metrics_out.open(config.metrics_path, std::ios::trunc);
        if (!metrics_out)
            std::cerr << "bench_serve: could not open " << config.metrics_path << '\n';
    }
    for (const double frac : config.repeat_fracs) {
        const auto trace = serve::generate_trace(trace_params(config, frac));
        for (const std::size_t capacity : config.capacities) {
            for (const std::size_t batch : config.batches) {
                serve::ReplayOptions options;
                options.config.cache_capacity = capacity;
                options.batch = batch;
                options.epochs = config.epochs;
                const auto report = serve::replay_trace(trace, options, pool);
                table.new_row()
                    .add(frac, 2)
                    .add(capacity)
                    .add(batch)
                    .add(report.qps, 1)
                    .add(report.latency_p50_ms, 3)
                    .add(report.latency_p95_ms, 3)
                    .add(report.latency_p99_ms, 3)
                    .add(report.latency_p999_ms, 3)
                    .add(report.stats.hit_rate() * 100.0, 1)
                    .add(static_cast<std::size_t>(report.stats.cache.evictions));
                if (metrics_out.is_open())
                    metrics_out << obs::to_json(report.metrics) << '\n';
            }
        }
    }
    // Cache-off reference row (repeat fraction 0.5, largest batch).
    {
        const auto trace = serve::generate_trace(trace_params(config, 0.5));
        serve::ReplayOptions options;
        options.config.enable_cache = false;
        options.batch = config.batches.back();
        options.epochs = config.epochs;
        const auto report = serve::replay_trace(trace, options, pool);
        table.new_row()
            .add("0.50*")
            .add("off")
            .add(options.batch)
            .add(report.qps, 1)
            .add(report.latency_p50_ms, 3)
            .add(report.latency_p95_ms, 3)
            .add(report.latency_p99_ms, 3)
            .add(report.latency_p999_ms, 3)
            .add(0.0, 1)
            .add(std::size_t{0});
    }
    std::cout << table.to_markdown() << "(* = cache off)\n";
    if (!config.csv_path.empty() && !table.write_csv(config.csv_path))
        std::cerr << "bench_serve: could not write " << config.csv_path << '\n';
    return 0;
}

/// Comma-separated sizes, e.g. --batches=1,8,32: at least one, none
/// negative (run_sweep's cache-off row reads the last batch size).
std::vector<std::size_t> get_size_list(const Args& args, const std::string& key,
                                       std::vector<std::int64_t> def) {
    std::vector<std::size_t> out;
    for (const std::int64_t value : args.get_int_list(key, std::move(def))) {
        if (value < 0)
            throw std::invalid_argument("--" + key + " expects non-negative integers, got " +
                                        std::to_string(value));
        out.push_back(static_cast<std::size_t>(value));
    }
    if (out.empty()) throw std::invalid_argument("--" + key + " expects at least one value");
    return out;
}

}  // namespace

int main(int argc, char** argv) {
    Args args(argc, argv);
    if (args.has("version")) {
        std::cout << "bench_serve 1.0.0\n";
        return 0;
    }
    if (args.has("help")) {
        std::cout << "usage: bench_serve [--requests=N] [--n=N] [--procs=P]\n"
                     "                   [--algo=NAME] [--threads=T] [--epochs=E]\n"
                     "                   [--batches=a,b] [--capacities=a,b]\n"
                     "                   [--repeat-fracs=a,b] [--seed=S] [--csv=PATH]\n"
                     "                   [--metrics-out=PATH]\n";
        return 0;
    }
    try {
        args.check_known({"requests", "n", "procs", "algo", "threads", "epochs", "batches",
                          "capacities", "repeat-fracs", "seed", "csv", "metrics-out", "help",
                          "version"});
        ServeBenchConfig config;
        config.requests = args.get_size("requests", 64);
        config.n = args.get_size("n", 150);
        config.procs = args.get_size("procs", 8);
        config.algo = args.get_string("algo", "ils-d");
        config.threads = args.get_size("threads", 0);
        config.epochs = args.get_size("epochs", 2);
        config.seed = static_cast<std::uint64_t>(args.get_int("seed", 2007));
        config.csv_path = args.get_string("csv", "");
        config.metrics_path = args.get_string("metrics-out", "");
        config.batches = get_size_list(args, "batches", {1, 8, 32});
        config.capacities = get_size_list(args, "capacities", {8, 1024});
        config.repeat_fracs = args.get_double_list("repeat-fracs", {0.0, 0.5, 0.9});
        return run_sweep(config);
    } catch (const std::exception& e) {
        std::cerr << "bench_serve: " << e.what() << '\n';
        return 2;
    }
}
