// Shared scaffolding for the experiment binaries.
//
// Every bench binary declares a sweep (one InstanceParams per x-axis point),
// runs it through metrics::run_point, and prints the figure/table the paper
// reports: rows = x-axis values, columns = schedulers.  Common CLI flags:
//   --trials=N       instances per point (default per bench)
//   --seed=S         base seed (default 2007, the paper's year)
//   --algos=a,b,c    scheduler set (default per bench)
//   --csv=PATH       also write the table as CSV
//   --jobs=N         run each point's trials on N pool workers (default 1 =
//                    serial; 0 = all hardware threads).  Per-trial seeds are
//                    derived from mix_seed, and samples are folded in trial
//                    order, so every table is bit-identical for any N.
//   --lint           audit each point's first instance against its requested
//                    CCR/beta/avg-exec (analysis::lint_problem) on stderr
//   --trace-dir=DIR  write one JSON file per sweep point with the point's
//                    wall time, trace counter deltas and obs timer deltas
//                    (histograms such as sched/phase/rank_ms).  Both are
//                    process-global snapshots, so trace-dir runs are forced
//                    serial even when --jobs asks for more workers.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "metrics/runner.hpp"
#include "util/args.hpp"
#include "util/table.hpp"
#include "workload/instance.hpp"

namespace tsched::bench {

/// Which aggregate a sweep table reports per scheduler.
enum class Metric { kSlr, kSpeedup, kEfficiency, kMakespan, kSchedTimeMs, kDuplicates };

[[nodiscard]] const char* metric_name(Metric metric) noexcept;

struct SweepPoint {
    std::string label;  ///< x-axis value as printed
    workload::InstanceParams params;
};

struct BenchConfig {
    std::string experiment;                ///< e.g. "E1"
    std::string title;                     ///< human description
    std::string axis;                      ///< x-axis column header
    std::vector<std::string> algos;
    std::size_t trials = 20;
    std::uint64_t seed = 2007;
    std::string csv_path;                  ///< empty = no CSV
    std::size_t jobs = 1;                  ///< trial workers per point (0 = all cores)
    bool lint = false;                     ///< run instance lints per point (--lint)
    std::string trace_dir;                 ///< empty = no per-point trace dumps
};

/// Apply --trials/--seed/--algos/--csv/--lint/--trace-dir overrides to a
/// config.
void apply_common_flags(BenchConfig& config, const Args& args);

/// Print the experiment banner (id, title, parameters).
void print_banner(const BenchConfig& config);

/// Run the sweep and print one table per requested metric (rows = points,
/// columns = schedulers, cells = "mean ±ci95").  Returns the per-point
/// results for benches that post-process (e.g. pairwise grids).
std::vector<PointResult> run_sweep(const BenchConfig& config,
                                   const std::vector<SweepPoint>& points,
                                   const std::vector<Metric>& metrics);

/// Render one metric of a finished sweep as a table.
[[nodiscard]] Table sweep_table(const BenchConfig& config,
                                const std::vector<SweepPoint>& points,
                                const std::vector<PointResult>& results, Metric metric);

}  // namespace tsched::bench
