// R1 — Robustness extension: how much does a static schedule degrade when
// runtime execution/communication times deviate from the estimates?  The
// static decisions stay fixed; the event simulator replays them under
// multiplicative noise and we report realised/static makespan ratios.
#include <iostream>

#include "common.hpp"
#include "core/registry.hpp"
#include "sim/event_sim.hpp"

using namespace tsched;
using namespace tsched::bench;

int main(int argc, char** argv) {
    const Args args(argc, argv);
    const auto n = args.get_size("n", 100);
    const auto procs = args.get_size("procs", 8);
    const double ccr = args.get_double("ccr", 1.0);
    const double beta = args.get_double("beta", 0.5);

    BenchConfig config;
    config.experiment = "R1";
    config.title = "robustness: realised/static makespan under runtime noise (n=" +
                   std::to_string(n) + ", P=" + std::to_string(procs) + ")";
    config.axis = "noise";
    config.algos = {"ils", "ils-d", "heft", "cpop"};
    config.trials = 15;
    apply_common_flags(config, args);
    print_banner(config);

    const auto noises = args.get_double_list("noise", {0.05, 0.1, 0.2, 0.3});
    const std::size_t replays = args.get_size("replays", 10);
    const auto schedulers = make_schedulers(config.algos);

    std::vector<std::string> headers{config.axis};
    for (const auto& algo : config.algos) headers.push_back(algo);
    Table table(std::move(headers));

    for (const double noise : noises) {
        std::vector<RunningStats> ratio(schedulers.size());
        for (std::size_t trial = 0; trial < config.trials; ++trial) {
            workload::InstanceParams params;
            params.shape = workload::Shape::kLayered;
            params.size = n;
            params.num_procs = procs;
            params.ccr = ccr;
            params.beta = beta;
            const Problem problem =
                workload::make_instance(params, mix_seed(config.seed, trial));
            for (std::size_t s = 0; s < schedulers.size(); ++s) {
                const Schedule schedule = schedulers[s]->schedule(problem);
                const double base = schedule.makespan();
                Rng rng(mix_seed(config.seed + 1, trial * 97 + s));
                for (std::size_t r = 0; r < replays; ++r) {
                    const auto noisy = sim::simulate_noisy(schedule, problem, noise, rng);
                    ratio[s].add(noisy.makespan / base);
                }
            }
        }
        char label[32];
        std::snprintf(label, sizeof(label), "%.2f", noise);
        table.new_row().add(std::string(label));
        for (auto& stats : ratio) {
            char cell[64];
            std::snprintf(cell, sizeof(cell), "%.4f +-%.4f", stats.mean(),
                          stats.ci95_halfwidth());
            table.add(std::string(cell));
        }
    }
    std::cout << "-- mean realised/static makespan ratio (+-95% CI) --\n";
    table.print(std::cout);
    if (!config.csv_path.empty() && !table.write_csv(config.csv_path)) {
        std::cerr << "warning: could not write " << config.csv_path << '\n';
    }
    std::cout << '\n';
    return 0;
}
