// Homogeneous multicore scenario with *real execution*: schedule a tiled
// Cholesky task graph onto N worker threads and actually run it — each task
// performs real arithmetic on shared tiles, and the executor enforces the
// schedule's ordering.  Demonstrates that a tsched schedule drives a real
// parallel computation end to end.
//
//   $ ./multicore_pipeline [--tiles=6] [--threads=4]
#include <cmath>
#include <iostream>
#include <vector>

#include "core/registry.hpp"
#include "metrics/metrics.hpp"
#include "sched/validate.hpp"
#include "sim/executor.hpp"
#include "util/args.hpp"
#include "workload/structured.hpp"

int main(int argc, char** argv) {
    using namespace tsched;
    const Args args(argc, argv);
    const auto tiles = args.get_size("tiles", 6);
    const auto threads = args.get_size("threads", 4);

    // The application DAG: tiled Cholesky (POTRF / TRSM / SYRK / GEMM).
    const Dag dag = workload::cholesky(tiles);
    std::cout << "tiled Cholesky, " << tiles << "x" << tiles << " tiles: " << dag.num_tasks()
              << " tasks, " << dag.num_edges() << " edges\n";

    // Homogeneous machine: `threads` identical cores, shared memory modelled
    // as a very fast crossbar.
    const auto links = std::make_shared<UniformLinkModel>(/*latency=*/0.0, /*bandwidth=*/100.0);
    Machine machine = Machine::homogeneous(threads, links);
    CostMatrix costs = CostMatrix::from_speeds(dag, machine);
    const Problem problem(dag, std::move(machine), std::move(costs));

    // Static schedule with the library's main algorithm.
    const auto scheduler = make_scheduler("ils");
    const Schedule schedule = scheduler->schedule(problem);
    if (const auto valid = validate(schedule, problem); !valid) {
        std::cerr << "invalid schedule: " << valid.message() << '\n';
        return 1;
    }
    std::cout << "static schedule: makespan " << schedule.makespan() << " cost units, speedup "
              << speedup(schedule, problem) << " on " << threads << " cores\n";

    // Real execution: each "tile op" iterates a small arithmetic kernel on a
    // per-task accumulator; dependencies guarantee every consumer sees its
    // producers' results.
    std::vector<double> cell(dag.num_tasks(), 0.0);
    const auto report = sim::execute_threaded(schedule, dag, [&](TaskId v, ProcId) {
        double acc = 1.0;
        for (int i = 0; i < 20000; ++i) acc = std::fma(acc, 1.0000001, 1e-7);
        double inputs = 0.0;
        for (const AdjEdge& e : dag.predecessors(v)) {
            inputs += cell[static_cast<std::size_t>(e.task)];
        }
        cell[static_cast<std::size_t>(v)] = acc + 0.5 * inputs;
    });

    std::cout << "real execution : " << report.wall_seconds * 1e3 << " ms wall on " << threads
              << " worker threads\n";
    for (std::size_t p = 0; p < threads; ++p) {
        std::cout << "  core " << p << " ran " << report.placements_run[p] << " tasks\n";
    }

    // Sanity: the final POTRF (last task of the factorisation) consumed the
    // whole dependency cone — its value must be finite and non-trivial.
    const double final_value = cell[dag.num_tasks() - 1];
    std::cout << "checksum of final tile: " << final_value << '\n';
    return std::isfinite(final_value) && final_value > 0.0 ? 0 : 1;
}
