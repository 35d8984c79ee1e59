// Heterogeneous cluster scenario: schedule a Montage-style astronomy
// workflow onto a mixed CPU/GPU cluster and compare the library's algorithms
// head to head — the workflow-engine use case the static-scheduling
// literature motivates.
//
//   $ ./hetero_cluster [--width=12] [--procs=6] [--ccr=2.0] [--save-dir=DIR]
//
// --save-dir writes the instance and the best schedule found to DIR
// (hetero_cluster.{tsg,tsp,tss} plus a Gantt SVG) — the README quickstart
// feeds those files to tsched_lint and tsched_trace.
#include <filesystem>
#include <iostream>
#include <optional>

#include "core/registry.hpp"
#include "graph/serialize.hpp"
#include "metrics/metrics.hpp"
#include "platform/platform_io.hpp"
#include "sched/gantt.hpp"
#include "sched/schedule_io.hpp"
#include "sched/validate.hpp"
#include "util/args.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"
#include "workload/costs.hpp"
#include "workload/structured.hpp"

int main(int argc, char** argv) {
    using namespace tsched;
    const Args args(argc, argv);
    const auto width = args.get_size("width", 12);
    const auto procs = args.get_size("procs", 6);
    const double ccr = args.get_double("ccr", 2.0);

    // The workflow: `width` input images through projection, overlap fitting,
    // background correction and the final mosaic.
    Dag dag = workload::montage_like(width);
    std::cout << "Montage-like workflow: " << dag.num_tasks() << " tasks, " << dag.num_edges()
              << " edges\n";

    // The cluster: half the nodes are CPU-like (uniform speed), half are
    // GPU-like (fast on the heavy kernels, slower on the small glue tasks).
    // Costs are expressed directly as an (unrelated-machines) matrix.
    Rng rng(static_cast<std::uint64_t>(args.get_int("seed", 42)));
    std::vector<double> costs(dag.num_tasks() * procs);
    for (std::size_t v = 0; v < dag.num_tasks(); ++v) {
        const double work = dag.work(static_cast<TaskId>(v));
        const bool heavy_kernel = work >= 4.0;  // projections and the mosaic
        for (std::size_t p = 0; p < procs; ++p) {
            const bool gpu = p >= procs / 2;
            double speed = 1.0;
            if (gpu) speed = heavy_kernel ? 4.0 : 0.6;  // great at kernels, poor at glue
            costs[v * procs + p] = (work * 5.0 / speed) * rng.uniform(0.9, 1.1);
        }
    }
    CostMatrix matrix(dag.num_tasks(), procs, std::move(costs));

    // Interconnect: full crossbar; edge volumes rescaled to the requested
    // communication-to-computation ratio.
    const auto links = std::make_shared<UniformLinkModel>(/*latency=*/1.0, /*bandwidth=*/1.0);
    double mean_exec = 0.0;
    for (std::size_t v = 0; v < dag.num_tasks(); ++v) {
        mean_exec += matrix.mean(static_cast<TaskId>(v));
    }
    mean_exec /= static_cast<double>(dag.num_tasks());
    workload::calibrate_ccr(dag, *links, procs, ccr, mean_exec);

    const Problem problem(std::move(dag), Machine::homogeneous(procs, links),
                          std::move(matrix));

    // Head-to-head comparison of every registered scheduler.
    Table table({"scheduler", "makespan", "SLR", "speedup", "efficiency", "dups", "time ms"});
    std::string best_name;
    std::optional<Schedule> best_schedule;
    for (const auto& name : scheduler_names()) {
        const auto scheduler = make_scheduler(name);
        double ms = 0.0;
        Schedule schedule = [&] {
            const Stopwatch::Scoped timer(ms);
            return scheduler->schedule(problem);
        }();
        if (const auto valid = validate(schedule, problem); !valid) {
            std::cerr << name << ": INVALID — " << valid.message() << '\n';
            return 1;
        }
        table.new_row()
            .add(name)
            .add(schedule.makespan(), 2)
            .add(slr(schedule, problem), 3)
            .add(speedup(schedule, problem), 3)
            .add(efficiency(schedule, problem), 3)
            .add(schedule.num_duplicates())
            .add(ms, 3);
        if (!best_schedule || schedule.makespan() < best_schedule->makespan()) {
            best_name = name;
            best_schedule = std::move(schedule);
        }
    }
    std::cout << '\n';
    table.print(std::cout);

    if (args.has("save-dir")) {
        const std::filesystem::path dir = args.get_string("save-dir", ".");
        std::error_code ec;
        std::filesystem::create_directories(dir, ec);
        save_tsg((dir / "hetero_cluster.tsg").string(), problem.dag());
        save_tsp((dir / "hetero_cluster.tsp").string(), problem.machine(), problem.costs());
        save_tss((dir / "hetero_cluster.tss").string(), *best_schedule);
        save_svg((dir / "hetero_cluster.svg").string(), *best_schedule, &problem.dag());
        std::cout << "\nSaved the instance and the " << best_name << " schedule (makespan "
                  << best_schedule->makespan() << ") to " << dir.string() << "/\n";
    }

    std::cout << "\nReading the table: SLR is makespan over the communication-free critical\n"
                 "path (lower is better, 1.0 is unbeatable); `dups` counts duplicated\n"
                 "placements used by the duplication-based algorithms.\n";
    return 0;
}
