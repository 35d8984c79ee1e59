#include "common.hpp"

#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>

#include "util/thread_pool.hpp"

#include "analysis/problem_lints.hpp"
#include "core/registry.hpp"
#include "obs/export.hpp"
#include "trace/counters.hpp"
#include "util/log.hpp"
#include "util/stopwatch.hpp"

namespace tsched::bench {

const char* metric_name(Metric metric) noexcept {
    switch (metric) {
        case Metric::kSlr: return "SLR";
        case Metric::kSpeedup: return "speedup";
        case Metric::kEfficiency: return "efficiency";
        case Metric::kMakespan: return "makespan";
        case Metric::kSchedTimeMs: return "sched time [ms]";
        case Metric::kDuplicates: return "duplicates";
    }
    return "?";
}

void apply_common_flags(BenchConfig& config, const Args& args) {
    config.trials = args.get_size("trials", config.trials);
    config.seed = static_cast<std::uint64_t>(
        args.get_int("seed", static_cast<std::int64_t>(config.seed)));
    config.algos = args.get_string_list("algos", config.algos);
    config.csv_path = args.get_string("csv", config.csv_path);
    config.jobs = args.get_size("jobs", config.jobs);
    config.lint = args.get_bool("lint", config.lint);
    config.trace_dir = args.get_string("trace-dir", config.trace_dir);
}

void print_banner(const BenchConfig& config) {
    std::cout << "== " << config.experiment << ": " << config.title << " ==\n";
    std::cout << "   trials/point=" << config.trials << "  seed=" << config.seed
              << "  jobs=" << config.jobs << "  schedulers=";
    for (std::size_t i = 0; i < config.algos.size(); ++i) {
        if (i) std::cout << ',';
        std::cout << config.algos[i];
    }
    std::cout << "\n\n";
}

namespace {
/// Filesystem-safe version of a sweep-point label ("CCR=0.5" -> "CCR_0.5").
std::string safe_label(const std::string& label) {
    std::string out = label;
    for (char& c : out) {
        const bool keep = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                          (c >= '0' && c <= '9') || c == '-' || c == '.';
        if (!keep) c = '_';
    }
    return out;
}

/// Write one JSON file describing the trace activity of a single sweep point
/// (counter and timer deltas plus the point's wall time).  Failures warn and
/// are otherwise ignored: tracing must never take a bench run down.
void dump_point_trace(const std::string& dir, const BenchConfig& config,
                      const std::string& label, double wall_ms,
                      const trace::Snapshot& counters, const obs::MetricsSnapshot& timers) {
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    const std::filesystem::path path = std::filesystem::path(dir) /
                                       (config.experiment + "_" + safe_label(label) + ".json");
    std::ofstream out(path);
    if (!out) {
        TSCHED_WARN << "trace-dir: could not open " << path.string();
        return;
    }
    char wall[32];
    std::snprintf(wall, sizeof(wall), "%.3f", wall_ms);
    out << "{\"experiment\": \"" << config.experiment << "\", \"label\": \"" << label
        << "\", \"wall_ms\": " << wall << ", \"trace\": " << trace::to_json(counters)
        << ", \"timers\": " << obs::to_json(timers) << "}\n";
    if (!out) { TSCHED_WARN << "trace-dir: write failed for " << path.string(); }
}

const RunningStats& pick(const SchedulerAggregate& agg, Metric metric) {
    switch (metric) {
        case Metric::kSlr: return agg.slr;
        case Metric::kSpeedup: return agg.speedup;
        case Metric::kEfficiency: return agg.efficiency;
        case Metric::kMakespan: return agg.makespan;
        case Metric::kSchedTimeMs: return agg.sched_time_ms;
        case Metric::kDuplicates: return agg.duplicates;
    }
    return agg.slr;
}
}  // namespace

Table sweep_table(const BenchConfig& config, const std::vector<SweepPoint>& points,
                  const std::vector<PointResult>& results, Metric metric) {
    std::vector<std::string> headers{config.axis};
    for (const auto& algo : config.algos) headers.push_back(algo);
    Table table(std::move(headers));
    for (std::size_t i = 0; i < points.size(); ++i) {
        table.new_row().add(points[i].label);
        for (const auto& algo : config.algos) {
            const RunningStats& stats = pick(results[i].agg.at(algo), metric);
            char cell[64];
            std::snprintf(cell, sizeof(cell), "%.3f +-%.3f", stats.mean(),
                          stats.ci95_halfwidth());
            table.add(std::string(cell));
        }
    }
    return table;
}

std::vector<PointResult> run_sweep(const BenchConfig& config,
                                   const std::vector<SweepPoint>& points,
                                   const std::vector<Metric>& metrics) {
    print_banner(config);
    const auto schedulers = make_schedulers(config.algos);

    // Trial-level parallelism.  Per-point trace dumps difference two
    // process-global counter snapshots; concurrent trials would bleed
    // counter activity across points and silently corrupt the deltas, so
    // --trace-dir forces the serial path.
    std::size_t jobs = config.jobs;
    if (!config.trace_dir.empty() && jobs != 1) {
        std::cerr << "warning: --trace-dir needs process-global counter snapshots; "
                     "ignoring --jobs="
                  << jobs << " and running trials serially\n";
        jobs = 1;
    }
    std::optional<ThreadPool> pool;
    if (jobs != 1) pool.emplace(jobs);

    Stopwatch watch;
    std::vector<PointResult> results;
    results.reserve(points.size());
    std::size_t invalid = 0;
    for (std::size_t i = 0; i < points.size(); ++i) {
        if (config.lint) {
            // Instance fairness audit (--lint): check the first instance of
            // the point against the parameters the sweep requested.
            const workload::InstanceParams& p = points[i].params;
            analysis::InstanceExpectations expect;
            expect.ccr = p.ccr;
            expect.beta = p.beta;
            expect.avg_exec = p.avg_exec;
            analysis::Diagnostics diags;
            analysis::lint_problem(workload::make_instance(p, mix_seed(config.seed, i)), diags,
                                   expect);
            if (!diags.empty()) {
                std::cerr << "lint [" << points[i].label << "]:\n"
                          << analysis::render_text(diags, 16);
            }
        }
        if (config.trace_dir.empty()) {
            results.push_back(run_point(points[i].params, schedulers, config.trials,
                                        mix_seed(config.seed, i),
                                        pool ? &*pool : nullptr));
        } else {
            const trace::Snapshot before = trace::registry().snapshot();
            const obs::MetricsSnapshot timers_before = obs::registry().snapshot();
            double wall_ms = 0.0;
            {
                const Stopwatch::Scoped timer(wall_ms);
                results.push_back(run_point(points[i].params, schedulers, config.trials,
                                            mix_seed(config.seed, i)));
            }
            dump_point_trace(config.trace_dir, config, points[i].label, wall_ms,
                             trace::snapshot_delta(before, trace::registry().snapshot()),
                             obs::snapshot_delta(timers_before, obs::registry().snapshot()));
        }
        invalid += results.back().invalid_schedules;
    }

    for (const Metric metric : metrics) {
        std::cout << "-- mean " << metric_name(metric) << " (+-95% CI) --\n";
        const Table table = sweep_table(config, points, results, metric);
        table.print(std::cout);
        std::cout << '\n';
        if (!config.csv_path.empty()) {
            std::string path = config.csv_path;
            if (metrics.size() > 1) {
                const auto dot = path.rfind('.');
                const std::string suffix = std::string("_") + metric_name(metric);
                if (dot == std::string::npos) {
                    path += suffix;
                } else {
                    path.insert(dot, suffix);
                }
            }
            if (!table.write_csv(path)) {
                std::cerr << "warning: could not write " << path << '\n';
            }
        }
    }
    if (invalid > 0) {
        std::cerr << "ERROR: " << invalid << " schedules failed validation\n";
    }
    std::cout << "(sweep wall time: " << watch.elapsed_seconds() << " s)\n\n";
    return results;
}

}  // namespace tsched::bench
