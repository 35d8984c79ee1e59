// Gantt-chart workflow visualisation: schedule one workflow with several
// algorithms and export an SVG Gantt chart per algorithm, plus the DOT of
// the task graph — the figures you would put in a report.
//
//   $ ./gantt_workflow [--shape=gauss] [--size=8] [--procs=4] [--ccr=3]
//                      [--out=/tmp] [--algos=ils,ils-d,heft]
#include <fstream>
#include <iostream>

#include "core/registry.hpp"
#include "graph/serialize.hpp"
#include "metrics/metrics.hpp"
#include "sched/gantt.hpp"
#include "sched/validate.hpp"
#include "util/args.hpp"
#include "workload/instance.hpp"

int main(int argc, char** argv) {
    using namespace tsched;
    const Args args(argc, argv);

    workload::InstanceParams params;
    params.shape = workload::shape_from_name(args.get_string("shape", "gauss"));
    params.size = args.get_size("size", 8);
    params.num_procs = args.get_size("procs", 4);
    params.ccr = args.get_double("ccr", 3.0);
    params.beta = args.get_double("beta", 0.75);
    const Problem problem =
        workload::make_instance(params, static_cast<std::uint64_t>(args.get_int("seed", 11)));

    const std::string out_dir = args.get_string("out", "/tmp");
    const auto algos =
        args.get_string_list("algos", {"ils", "ils-d", "heft", "cpop", "btdh"});

    std::cout << "workflow: " << workload::shape_name(params.shape) << ", "
              << problem.num_tasks() << " tasks on " << params.num_procs
              << " processors (CCR " << problem.realized_ccr() << ")\n\n";

    const std::string dot_path = out_dir + "/workflow.dot";
    save_tsg(out_dir + "/workflow.tsg", problem.dag());
    {
        std::ofstream dot(dot_path);
        dot << to_dot(problem.dag(), "workflow");
    }
    std::cout << "wrote " << out_dir << "/workflow.tsg and " << dot_path << '\n';

    for (const auto& name : algos) {
        const auto scheduler = make_scheduler(name);
        const Schedule schedule = scheduler->schedule(problem);
        if (const auto valid = validate(schedule, problem); !valid) {
            std::cerr << name << ": INVALID — " << valid.message() << '\n';
            return 1;
        }
        GanttOptions options;
        options.title = name + "  (makespan " + std::to_string(schedule.makespan()) +
                        ", SLR " + std::to_string(slr(schedule, problem)) + ")";
        const std::string path = out_dir + "/gantt_" + name + ".svg";
        save_svg(path, schedule, &problem.dag(), options);
        std::cout << "wrote " << path << "  (makespan " << schedule.makespan() << ", "
                  << schedule.num_duplicates() << " duplicates)\n";
    }
    std::cout << "\nOpen the SVGs in a browser to compare the schedules visually;\n"
                 "duplicated placements are drawn hatched.\n";
    return 0;
}
