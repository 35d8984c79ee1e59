// tsched_trace — Chrome-trace export, decision explanations, and trace
// counters and timers for task schedules.
//
//   tsched_trace graph.tsg platform.tsp sched.tss --out=trace.json
//       convert a saved schedule to Chrome trace_event JSON (open in
//       chrome://tracing or https://ui.perfetto.dev); with no .tsg the
//       export draws execution tracks only
//   tsched_trace graph.tsg platform.tsp --algo=ils --explain=all
//       run a scheduler with a decision trace attached and print why each
//       task landed on its processor (EFT/OCT numbers per candidate)
//
// Files are classified by extension (.tsg / .tsp / .tss) whether given
// positionally or via --dag= / --platform= / --schedule=.
//
//   --mode=M          time base for the export: planned (default), sim
//                     (replay through the event simulator), or contended
//                     (one-port contention model; adds real transfer windows)
//   --out=PATH        write the Chrome trace JSON here (default stdout
//                     when a .tss is given and no other action is requested)
//   --algo=NAME       schedule the problem with this algorithm (any registry
//                     name, e.g. heft, peft, cpop, lheft, ils, ils-d) and
//                     trace its decisions; the produced schedule feeds
//                     --out/--mode instead of a .tss file
//   --explain=T|all   print the decision record for task T (an id) or for
//                     every task of the winning pass
//   --decisions=PATH  write the full decision trace (all passes) as JSON
//   --crash=P@F       export a faulty run instead: processor P fail-stops at
//                     fraction F of the static makespan (e.g. --crash=2@0.5),
//                     the repair policy patches the schedule mid-run, and the
//                     trace gains a fault timeline (needs .tsg and .tsp)
//   --repair=NAME     repair policy for --crash: none, remap-pending
//                     (default), reschedule-suffix, or use-duplicates
//   --counters[=fmt]  after the run, print every trace counter and obs
//                     timer recorded in this process: fmt = md (default) or
//                     csv.  A timer's total_ms is its histogram's mean x
//                     count, within 1/128 (LatencyHistogram::
//                     kMaxRelativeError) of the true total
//   --version/--help  print and exit 0
//
// Exit status: 0 success, 2 usage or file errors.
#include <fstream>
#include <iostream>
#include <optional>
#include <string>

#include "core/registry.hpp"
#include "graph/serialize.hpp"
#include "obs/metrics.hpp"
#include "platform/platform_io.hpp"
#include "sched/schedule_io.hpp"
#include "sim/faults.hpp"
#include "trace/chrome_trace.hpp"
#include "trace/counters.hpp"
#include "trace/decision.hpp"
#include "util/args.hpp"
#include "util/table.hpp"

namespace {

using namespace tsched;

constexpr const char* kVersion = "tsched_trace 1.0.0";

void print_usage(std::ostream& os) {
    os << "usage: tsched_trace <file.tsg> <file.tsp> [file.tss]\n"
       << "                    [--out=PATH] [--mode=planned|sim|contended]\n"
       << "                    [--algo=NAME] [--explain=TASK|all] [--decisions=PATH]\n"
       << "                    [--crash=P@F] [--repair=POLICY]\n"
       << "                    [--counters[=md|csv]] [--version] [--help]\n"
       << "Convert a schedule to Chrome trace_event JSON, or run a scheduler\n"
       << "with a decision trace and explain every placement.\n"
       << "--counters lists trace counters and obs timers; a timer's total_ms is\n"
       << "its histogram mean x count, within 1/128 of the true total.\n";
}

[[noreturn]] void usage_error(const std::string& error) {
    std::cerr << "tsched_trace: " << error << '\n';
    print_usage(std::cerr);
    std::exit(2);
}

bool ends_with(const std::string& s, const std::string& suffix) {
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

trace::TraceMode parse_mode(const std::string& mode) {
    if (mode == "planned") return trace::TraceMode::kPlanned;
    if (mode == "sim" || mode == "simulated") return trace::TraceMode::kSimulated;
    if (mode == "contended") return trace::TraceMode::kContended;
    usage_error("unknown --mode '" + mode + "' (expected planned, sim, or contended)");
}

bool write_or_print(const std::string& out_path, const std::string& text) {
    if (out_path.empty() || out_path == "-") {
        std::cout << text << '\n';
        return true;
    }
    std::ofstream out(out_path);
    out << text << '\n';
    if (!out) {
        std::cerr << "tsched_trace: could not write " << out_path << '\n';
        return false;
    }
    return true;
}

void print_counters(const std::string& format) {
    const trace::Snapshot snap = trace::registry().snapshot();
    Table table({"kind", "name", "value", "count", "total_ms"});
    for (const auto& c : snap.counters) {
        table.new_row().add("counter").add(c.name).add(c.value).add("").add("");
    }
    // The histogram keeps no float sum (obs/metrics.hpp), so total_ms is the
    // bucket-midpoint estimate mean x count.
    for (const auto& h : obs::registry().snapshot().histograms) {
        table.new_row()
            .add("timer")
            .add(h.name)
            .add("")
            .add(h.hist.count)
            .add(h.hist.mean() * static_cast<double>(h.hist.count), 3);
    }
    if (format == "csv") {
        std::cout << table.to_csv();
    } else {
        table.print(std::cout);
    }
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
        args.check_known({"dag", "platform", "schedule", "out", "mode", "algo", "explain",
                          "decisions", "crash", "repair", "counters", "help", "version"});
    } catch (const std::exception& err) {
        usage_error(err.what());
    }

    std::optional<std::string> dag_path;
    std::optional<std::string> platform_path;
    std::optional<std::string> schedule_path;
    for (const std::string& p : args.positional()) {
        if (ends_with(p, ".tsg")) {
            dag_path = p;
        } else if (ends_with(p, ".tsp")) {
            platform_path = p;
        } else if (ends_with(p, ".tss")) {
            schedule_path = p;
        } else {
            usage_error("cannot classify '" + p + "' (expected .tsg, .tsp, or .tss)");
        }
    }
    if (args.has("dag")) dag_path = args.get_string("dag", "");
    if (args.has("platform")) platform_path = args.get_string("platform", "");
    if (args.has("schedule")) schedule_path = args.get_string("schedule", "");

    const std::string algo = args.get_string("algo", "");
    const std::string explain = args.get_string("explain", "");
    const std::string decisions_path = args.get_string("decisions", "");
    const bool want_counters = args.has("counters");
    const trace::TraceMode mode = parse_mode(args.get_string("mode", "planned"));

    if (!algo.empty() && schedule_path) {
        usage_error("--algo computes its own schedule; drop the .tss input");
    }
    if (algo.empty() && (!explain.empty() || !decisions_path.empty())) {
        usage_error("--explain/--decisions need --algo (a decision trace records a live run)");
    }
    if (algo.empty() && !schedule_path && !want_counters) {
        usage_error("nothing to do: give a schedule (.tss) to export or --algo to run");
    }

    try {
        std::optional<Problem> problem;
        if (dag_path && platform_path) {
            const Dag dag = load_tsg(*dag_path);
            PlatformSpec platform = load_tsp(*platform_path);
            problem.emplace(dag, std::move(platform.machine), std::move(platform.costs));
        }

        // Where the schedule comes from: a .tss file, or a traced live run.
        std::optional<Schedule> schedule;
        trace::DecisionTrace decisions;
        if (!algo.empty()) {
            if (!problem) usage_error("--algo needs both the .tsg and the .tsp");
            const SchedulerPtr scheduler = make_scheduler(algo);
            schedule.emplace(scheduler->schedule_traced(*problem, &decisions));
        } else if (schedule_path) {
            schedule.emplace(load_tss(*schedule_path));
        }

        if (!explain.empty()) {
            if (explain == "all") {
                std::cout << decisions.render_text();
            } else {
                std::size_t pos = 0;
                const long task = std::stol(explain, &pos);
                if (pos != explain.size() || task < 0) {
                    usage_error("--explain expects a task id or 'all', got '" + explain + "'");
                }
                std::cout << decisions.explain(static_cast<TaskId>(task)) << '\n';
            }
        }
        if (!decisions_path.empty()) {
            if (!write_or_print(decisions_path, decisions.render_json())) return 2;
        }

        // Chrome export: explicit --out, or the default action when a .tss
        // was given and nothing else was requested.
        const bool explicit_out = args.has("out");
        const bool export_by_default =
            schedule_path && explain.empty() && decisions_path.empty() && !want_counters;
        const std::string crash_spec = args.get_string("crash", "");
        if (!crash_spec.empty()) {
            if (!schedule || !problem) {
                usage_error("--crash needs a schedule (.tss or --algo) plus .tsg and .tsp");
            }
            const std::size_t at = crash_spec.find('@');
            if (at == std::string::npos) {
                usage_error("--crash expects PROC@FRACTION, e.g. --crash=2@0.5");
            }
            sim::FaultPlan plan;
            plan.crashes.push_back(
                {static_cast<ProcId>(std::stol(crash_spec.substr(0, at))),
                 std::stod(crash_spec.substr(at + 1)) * schedule->makespan()});
            const RepairPolicyPtr policy =
                make_repair_policy(args.get_string("repair", "remap-pending"));
            const sim::FaultReport report =
                sim::simulate_faulty(*schedule, *problem, plan, *policy);
            std::cerr << "crash P" << plan.crashes[0].proc << " at t=" << plan.crashes[0].time
                      << " repair=" << policy->name() << ": makespan "
                      << report.static_makespan << " -> " << report.sim.makespan
                      << " (degradation " << report.degradation << ", "
                      << report.migrated_tasks << " migrated)\n";
            if (!write_or_print(args.get_string("out", ""),
                                trace::chrome_trace_json(report, *problem))) {
                return 2;
            }
        } else if (schedule && (explicit_out || export_by_default)) {
            const std::string json = problem ? trace::chrome_trace_json(*schedule, *problem, mode)
                                             : trace::chrome_trace_json(*schedule);
            if (!write_or_print(args.get_string("out", ""), json)) return 2;
        }
    } catch (const std::exception& err) {
        std::cerr << "tsched_trace: " << err.what() << '\n';
        return 2;
    }

    if (want_counters) print_counters(args.get_string("counters", "md"));
    return 0;
}
