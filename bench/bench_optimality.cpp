// E15 — Optimality gap: how close the heuristics come to the *proven*
// optimum on instances small enough for exact branch-and-bound.  Reports the
// mean makespan/optimal ratio and the fraction of instances solved exactly,
// per scheduler.
//
// Note: the exact reference searches duplication-free schedules, so the
// duplication-based algorithms (ils-d) can — and at high CCR do — undercut
// it (ratios below 1.0), which quantifies exactly what duplication buys.
#include <iostream>

#include "common.hpp"
#include "core/registry.hpp"
#include "sched/optimal.hpp"
#include "sched/validate.hpp"

using namespace tsched;
using namespace tsched::bench;

int main(int argc, char** argv) {
    const Args args(argc, argv);
    BenchConfig config;
    config.experiment = "E15";
    config.title = "optimality gap on small instances (exact branch-and-bound reference)";
    config.axis = "instance class";
    config.algos = {"ils", "ils-d", "heft", "cpop", "hcpt", "dls", "mcp"};
    config.trials = 15;
    apply_common_flags(config, args);
    print_banner(config);

    const auto max_nodes = args.get_size("max-nodes", 3'000'000);
    const BnbScheduler bnb(max_nodes);
    const auto schedulers = make_schedulers(config.algos);

    struct Point {
        const char* label;
        std::size_t n;
        std::size_t procs;
        double ccr;
    };
    const std::vector<Point> points = {
        {"n=7 P=2 ccr=1", 7, 2, 1.0},
        {"n=7 P=2 ccr=5", 7, 2, 5.0},
        {"n=8 P=2 ccr=1", 8, 2, 1.0},
        {"n=8 P=3 ccr=1", 8, 3, 1.0},
    };

    std::vector<std::string> headers{config.axis, "proven %"};
    for (const auto& algo : config.algos) headers.push_back(algo);
    Table table(std::move(headers));

    for (const auto& point : points) {
        std::vector<RunningStats> ratio(schedulers.size());
        std::vector<std::size_t> exact_hits(schedulers.size(), 0);
        std::size_t proven = 0;
        std::size_t used = 0;
        for (std::size_t trial = 0; trial < config.trials; ++trial) {
            workload::InstanceParams params;
            params.shape = workload::Shape::kLayered;
            params.size = point.n;
            params.num_procs = point.procs;
            params.ccr = point.ccr;
            params.beta = 1.0;
            const Problem problem =
                workload::make_instance(params, mix_seed(config.seed, trial * 31));
            const auto result = bnb.solve(problem);
            if (!result.proven_optimal) continue;  // skip unproven instances
            ++proven;
            ++used;
            const double opt = result.schedule.makespan();
            for (std::size_t s = 0; s < schedulers.size(); ++s) {
                const Schedule schedule = schedulers[s]->schedule(problem);
                if (!validate(schedule, problem)) {
                    std::cerr << "ERROR: invalid schedule from " << config.algos[s] << '\n';
                    return 1;
                }
                const double r = schedule.makespan() / opt;
                ratio[s].add(r);
                if (r <= 1.0 + 1e-9) ++exact_hits[s];
            }
        }
        table.new_row().add(point.label);
        char proven_cell[32];
        std::snprintf(proven_cell, sizeof(proven_cell), "%.0f",
                      100.0 * static_cast<double>(proven) /
                          static_cast<double>(config.trials));
        table.add(std::string(proven_cell));
        for (std::size_t s = 0; s < schedulers.size(); ++s) {
            char cell[64];
            std::snprintf(cell, sizeof(cell), "%.3f (%.0f%% opt)", ratio[s].mean(),
                          used > 0 ? 100.0 * static_cast<double>(exact_hits[s]) /
                                         static_cast<double>(used)
                                   : 0.0);
            table.add(std::string(cell));
        }
    }
    std::cout << "-- mean makespan/optimal ratio (and % of instances solved optimally) --\n";
    table.print(std::cout);
    if (!config.csv_path.empty() && !table.write_csv(config.csv_path)) {
        std::cerr << "warning: could not write " << config.csv_path << '\n';
    }
    std::cout << '\n';
    return 0;
}
