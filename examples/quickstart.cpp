// Quickstart: the five-minute tour of the tsched API.
//
// Builds a small workflow DAG by hand, describes a 3-processor heterogeneous
// machine, schedules with the library's ILS algorithm, validates the result,
// and prints the schedule plus its quality metrics.
//
//   $ ./quickstart
#include <iostream>

#include "core/registry.hpp"
#include "graph/serialize.hpp"
#include "metrics/metrics.hpp"
#include "sched/validate.hpp"

int main() {
    using namespace tsched;

    // 1. The application: a small diamond-shaped workflow.
    //    Node work and edge data are abstract units; the platform turns them
    //    into times.
    DagBuilder builder;
    const TaskId load = builder.add_task(2.0, "load");
    const TaskId split_a = builder.add_task(4.0, "filter-A");
    const TaskId split_b = builder.add_task(6.0, "filter-B");
    const TaskId merge = builder.add_task(3.0, "merge");
    const TaskId report = builder.add_task(1.0, "report");
    builder.add_edge(load, split_a, 8.0);   // 8 data units from load to filter-A
    builder.add_edge(load, split_b, 8.0);
    builder.add_edge(split_a, merge, 4.0);
    builder.add_edge(split_b, merge, 4.0);
    builder.add_edge(merge, report, 1.0);
    Dag dag = std::move(builder).build();

    // 2. The platform: 3 processors on a full crossbar (latency 0.5 time
    //    units per message, 2 data units per time unit), with an explicit
    //    per-task execution-cost matrix (rows = tasks, columns = processors).
    //    Processor 2 is a fast accelerator for the filters but slow at I/O.
    const auto links = std::make_shared<UniformLinkModel>(/*latency=*/0.5, /*bandwidth=*/2.0);
    Machine machine = Machine::homogeneous(3, links);
    CostMatrix costs(5, 3,
                     {
                         // P0    P1    P2
                         2.0, 2.5, 6.0,  // load
                         4.0, 5.0, 1.5,  // filter-A
                         6.0, 7.0, 2.0,  // filter-B
                         3.0, 3.0, 3.0,  // merge
                         1.0, 1.0, 2.0,  // report
                     });
    const Problem problem(std::move(dag), std::move(machine), std::move(costs));

    // 3. Schedule.  Algorithms are looked up by name; see scheduler_names().
    const auto scheduler = make_scheduler("ils");
    const Schedule schedule = scheduler->schedule(problem);

    // 4. Always validate (precedence, exclusivity, timing).
    const ValidationResult valid = validate(schedule, problem);
    if (!valid) {
        std::cerr << "invalid schedule!\n" << valid.message() << '\n';
        return 1;
    }

    // 5. Inspect the result.
    std::cout << "scheduler : " << scheduler->name() << "\n";
    std::cout << schedule.to_string() << '\n';
    std::cout << "makespan  : " << schedule.makespan() << "\n";
    std::cout << "SLR       : " << slr(schedule, problem) << "  (1.0 = critical-path optimal)\n";
    std::cout << "speedup   : " << speedup(schedule, problem) << "  (vs best single processor)\n";
    std::cout << "efficiency: " << efficiency(schedule, problem) << "\n\n";

    // 6. Export the task graph for graphviz (`dot -Tpng workflow.dot`).
    std::cout << "DOT of the workflow:\n" << to_dot(problem.dag(), "workflow");
    return 0;
}
