// tsched_lint — coded static analysis for task graphs, platforms, and
// schedules.
//
//   tsched_lint graph.tsg                          # DAG lints only
//   tsched_lint graph.tsg platform.tsp             # + cost matrix & calibration
//   tsched_lint graph.tsg platform.tsp sched.tss   # + schedule validity/quality
//
// Files are classified by extension (.tsg / .tsp / .tss) whether given
// positionally or via --dag= / --platform= / --schedule=.  Expected instance
// parameters turn on the calibration passes:
//
//   --ccr=X         requested communication-to-computation ratio (TS0301)
//   --beta=X        declared heterogeneity factor (TS0203/TS0204)
//   --avg-exec=X    requested mean execution cost (TS0302)
//   --tolerance=F   allowed relative deviation (default 0.25)
//
// Output & behaviour:
//   --json          machine-readable diagnostics on stdout
//   --quiet         summary line only
//   --max-diags=N   cap rendered text diagnostics (default 64, 0 = all)
//   --no-quality    validity (error) passes only
//   --werror        exit nonzero on warnings too
//   --eps=X         timing epsilon for schedule checks (default 1e-6)
//
// Exit status: 0 clean, 1 diagnostics at error severity (or warnings under
// --werror), 2 usage or file errors.
#include <iostream>
#include <optional>
#include <string>

#include "analysis/problem_lints.hpp"
#include "analysis/schedule_lints.hpp"
#include "graph/serialize.hpp"
#include "platform/platform_io.hpp"
#include "sched/schedule_io.hpp"
#include "util/args.hpp"

namespace {

using namespace tsched;

constexpr const char* kVersion = "tsched_lint 1.0.0";

void print_usage(std::ostream& os) {
    os << "usage: tsched_lint <file.tsg> [file.tsp] [file.tss]\n"
       << "                   [--json] [--quiet] [--werror] [--no-quality]\n"
       << "                   [--ccr=X] [--beta=X] [--avg-exec=X] [--tolerance=F]\n"
       << "                   [--eps=X] [--max-diags=N] [--version] [--help]\n"
       << "(a bare boolean flag consumes a following file argument; put flags\n"
       << " after the files or write --flag=true)\n";
}

[[noreturn]] void usage(const std::string& error) {
    std::cerr << "tsched_lint: " << error << "\n";
    print_usage(std::cerr);
    std::exit(2);
}

bool ends_with(const std::string& s, const std::string& suffix) {
    return s.size() >= suffix.size() && s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

int main(int argc, char** argv) {
    const Args args(argc, argv);

    if (args.has("help")) {
        print_usage(std::cout);
        return 0;
    }
    if (args.has("version")) {
        std::cout << kVersion << '\n';
        return 0;
    }
    try {
        args.check_known({"dag", "platform", "schedule", "json", "quiet", "werror",
                          "no-quality", "ccr", "beta", "avg-exec", "tolerance", "eps",
                          "max-diags", "help", "version"});
    } catch (const std::exception& err) {
        usage(err.what());
    }

    std::optional<std::string> dag_path;
    std::optional<std::string> platform_path;
    std::optional<std::string> schedule_path;

    auto classify = [&](const std::string& path) {
        if (ends_with(path, ".tsg")) {
            dag_path = path;
        } else if (ends_with(path, ".tsp")) {
            platform_path = path;
        } else if (ends_with(path, ".tss")) {
            schedule_path = path;
        } else {
            usage("cannot classify '" + path + "' (expected .tsg, .tsp, or .tss)");
        }
    };
    for (const std::string& p : args.positional()) classify(p);
    if (args.has("dag")) dag_path = args.get_string("dag", "");
    if (args.has("platform")) platform_path = args.get_string("platform", "");
    if (args.has("schedule")) schedule_path = args.get_string("schedule", "");

    if (!dag_path) usage("a task graph (.tsg) is required");
    if (schedule_path && !platform_path) {
        usage("schedule linting needs the platform (.tsp) the schedule was computed for");
    }

    analysis::InstanceExpectations expect;
    analysis::ScheduleLintOptions sched_options;
    bool json = false;
    bool quiet = false;
    bool werror = false;
    std::size_t max_diags = 64;
    try {
        if (args.has("ccr")) expect.ccr = args.get_double("ccr", 0.0);
        if (args.has("beta")) expect.beta = args.get_double("beta", 0.0);
        if (args.has("avg-exec")) expect.avg_exec = args.get_double("avg-exec", 0.0);
        expect.tolerance = args.get_double("tolerance", expect.tolerance);
        sched_options.time_eps = args.get_double("eps", sched_options.time_eps);
        sched_options.quality = !args.get_bool("no-quality", false);
        json = args.get_bool("json", false);
        quiet = args.get_bool("quiet", false);
        werror = args.get_bool("werror", false);
        max_diags = args.get_size("max-diags", 64);
    } catch (const std::exception& err) {
        usage(err.what());
    }

    analysis::Diagnostics diags;
    try {
        const Dag dag = load_tsg(*dag_path);
        if (!platform_path) {
            analysis::lint_dag(dag, diags);
        } else {
            const PlatformSpec platform = load_tsp(*platform_path);
            analysis::lint_dag(dag, diags);
            analysis::lint_cost_matrix(platform.costs, diags, expect.beta);
            if (analysis::check_dimensions(dag, platform.machine, platform.costs, diags)) {
                const Problem problem(dag, platform.machine, platform.costs);
                analysis::lint_calibration(problem, diags, expect);
                if (schedule_path) {
                    const Schedule schedule = load_tss(*schedule_path);
                    analysis::lint_schedule(schedule, problem, diags, sched_options);
                }
            }
        }
    } catch (const std::exception& err) {
        std::cerr << "tsched_lint: " << err.what() << '\n';
        return 2;
    }

    if (json) {
        std::cout << analysis::render_json(diags) << '\n';
    } else if (quiet) {
        std::cout << diags.error_count() << " error(s), " << diags.warning_count()
                  << " warning(s)\n";
    } else {
        std::cout << render_text(diags, max_diags);
    }

    if (diags.has_errors()) return 1;
    if (werror && diags.warning_count() > 0) return 1;
    return 0;
}
