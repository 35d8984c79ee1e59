// compare_tool: a small command-line utility around the library.
//
// Loads a task graph from a .tsg file (or generates one), binds it to a
// parameterised platform, runs a chosen set of schedulers, and prints a
// comparison table.  Useful as a template for integrating tsched into a
// build or workflow system.
//
//   $ ./compare_tool                         # random 100-task graph
//   $ ./compare_tool mygraph.tsg --procs=16
//   $ ./compare_tool --shape=gauss --size=12 --ccr=5 --algos=ils,heft,dsh
//   $ ./compare_tool --emit-tsg=graph.tsg    # save the generated graph
//   $ ./compare_tool --contended             # add one-port realised makespans
#include <iostream>

#include "core/registry.hpp"
#include "graph/serialize.hpp"
#include "metrics/metrics.hpp"
#include "sched/validate.hpp"
#include "sim/contention.hpp"
#include "sim/event_sim.hpp"
#include "util/args.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"
#include "workload/instance.hpp"

int main(int argc, char** argv) {
    using namespace tsched;
    const Args args(argc, argv);

    const auto procs = args.get_size("procs", 8);
    const double ccr = args.get_double("ccr", 1.0);
    const double beta = args.get_double("beta", 0.5);
    const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    const auto algos = args.get_string_list("algos", default_comparison_set());

    // Obtain the problem: from file or from the generator suite.
    Problem problem = [&] {
        if (!args.positional().empty()) {
            const std::string& path = args.positional().front();
            std::cout << "loading task graph from " << path << '\n';
            Dag dag = load_tsg(path);
            workload::CostParams cost_params;
            cost_params.num_procs = procs;
            cost_params.beta = beta;
            Rng rng(seed);
            CostMatrix costs = workload::make_cost_matrix(dag, cost_params, rng);
            const auto links = std::make_shared<UniformLinkModel>(0.0, 1.0);
            workload::calibrate_ccr(dag, *links, procs, ccr, cost_params.avg_exec);
            return Problem(std::move(dag), Machine::homogeneous(procs, links),
                           std::move(costs));
        }
        workload::InstanceParams params;
        params.shape = workload::shape_from_name(args.get_string("shape", "layered"));
        params.size = args.get_size("size", 100);
        params.num_procs = procs;
        params.ccr = ccr;
        params.beta = beta;
        return workload::make_instance(params, seed);
    }();

    std::cout << "problem: " << problem.num_tasks() << " tasks, "
              << problem.dag().num_edges() << " edges, " << procs << " procs, realized CCR "
              << problem.realized_ccr() << ", machine " << problem.machine().describe() << "\n\n";

    const std::string emit = args.get_string("emit-tsg", "");
    if (!emit.empty()) {
        save_tsg(emit, problem.dag());
        std::cout << "wrote " << emit << '\n';
    }

    const bool contended = args.get_bool("contended", false);
    std::vector<std::string> headers{"scheduler", "makespan", "SLR",      "speedup",
                                     "dups",      "sim check", "time ms"};
    if (contended) headers.insert(headers.begin() + 6, "one-port");
    Table table(std::move(headers));
    for (const auto& name : algos) {
        const auto scheduler = make_scheduler(name);
        Stopwatch watch;
        const Schedule schedule = scheduler->schedule(problem);
        const double elapsed = watch.elapsed_ms();
        const auto valid = validate(schedule, problem);
        if (!valid) {
            std::cerr << name << ": INVALID — " << valid.message() << '\n';
            return 1;
        }
        const auto sim_result = sim::simulate(schedule, problem);
        table.new_row()
            .add(name)
            .add(schedule.makespan(), 2)
            .add(slr(schedule, problem), 3)
            .add(speedup(schedule, problem), 3)
            .add(schedule.num_duplicates())
            .add(sim_result.makespan, 2);
        if (contended) {
            table.add(sim::simulate_contended(schedule, problem).makespan, 2);
        }
        table.add(elapsed, 3);
    }
    table.print(std::cout);
    if (contended) {
        std::cout << "\n(one-port = realised makespan when each processor has a single\n"
                     " full-duplex network port and transfers serialize; see bench_contention)\n";
    }
    return 0;
}
