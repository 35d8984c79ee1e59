// F1 — Fault injection: how much does a static schedule degrade when a
// processor fail-stops mid-run, and how much of that can online repair
// recover?  For each instance the busiest processor of each algorithm's
// schedule crashes at a fraction of the static makespan; every repair policy
// patches the run and we report realised/static makespan ratios (degradation,
// 1.0 = no loss), plus the static slack-robustness of each algorithm's
// schedules.
//
// Extra flags beyond the common set:
//   --n=N / --procs=P / --ccr=C / --beta=B   instance shape (100/8/1.0/0.5)
//   --frac=a,b,c    crash times as fractions of the makespan (0.25,0.5,0.75)
//   --policies=...  repair policies to compare (default: all registered)
//   --check         verify the acceptance contract instead of just printing:
//                   active policies produce lint-clean repairs, remap-pending
//                   and reschedule-suffix beat the do-nothing baseline on
//                   mean degradation at frac=0.5, and repeated same-seed runs
//                   are bit-identical; exits 1 on any violation
#include <cstdio>
#include <iostream>
#include <map>

#include "analysis/schedule_lints.hpp"
#include "common.hpp"
#include "core/registry.hpp"
#include "metrics/robustness.hpp"
#include "sim/faults.hpp"

using namespace tsched;
using namespace tsched::bench;

namespace {

std::string stat_cell(const RunningStats& stats) {
    char cell[64];
    std::snprintf(cell, sizeof(cell), "%.4f +-%.4f", stats.mean(), stats.ci95_halfwidth());
    return cell;
}

}  // namespace

int main(int argc, char** argv) {
    const Args args(argc, argv);
    const auto n = args.get_size("n", 100);
    const auto procs = args.get_size("procs", 8);
    const double ccr = args.get_double("ccr", 1.0);
    const double beta = args.get_double("beta", 0.5);
    const bool check = args.get_bool("check", false);

    BenchConfig config;
    config.experiment = "F1";
    config.title = "fault injection: degradation after a crash of the busiest processor (n=" +
                   std::to_string(n) + ", P=" + std::to_string(procs) + ")";
    config.axis = "frac";
    config.algos = {"heft", "ils", "ils-d"};
    config.trials = 10;
    apply_common_flags(config, args);
    print_banner(config);

    const auto fracs = args.get_double_list("frac", {0.25, 0.5, 0.75});
    const auto policy_names = args.get_string_list("policies", repair_policy_names());
    std::vector<RepairPolicyPtr> policies;
    policies.reserve(policy_names.size());
    for (const auto& name : policy_names) policies.push_back(make_repair_policy(name));
    const auto schedulers = make_schedulers(config.algos);

    // stats[frac][algo][policy]; summary[frac][policy] pools the algorithms.
    std::vector<std::vector<std::vector<RunningStats>>> stats(
        fracs.size(), std::vector<std::vector<RunningStats>>(
                          config.algos.size(), std::vector<RunningStats>(policies.size())));
    std::vector<RunningStats> slack(config.algos.size());
    std::size_t check_failures = 0;

    for (std::size_t trial = 0; trial < config.trials; ++trial) {
        workload::InstanceParams params;
        params.shape = workload::Shape::kLayered;
        params.size = n;
        params.num_procs = procs;
        params.ccr = ccr;
        params.beta = beta;
        const Problem problem = workload::make_instance(params, mix_seed(config.seed, trial));
        for (std::size_t s = 0; s < schedulers.size(); ++s) {
            const Schedule schedule = schedulers[s]->schedule(problem);
            slack[s].add(slack_robustness(schedule, problem));
            for (std::size_t f = 0; f < fracs.size(); ++f) {
                const sim::FaultPlan plan = sim::crash_busiest(schedule, fracs[f]);
                for (std::size_t p = 0; p < policies.size(); ++p) {
                    const sim::FaultReport report =
                        sim::simulate_faulty(schedule, problem, plan, *policies[p]);
                    stats[f][s][p].add(report.degradation);
                    if (!check) continue;
                    // Acceptance: every active repair is lint-clean, and the
                    // run is bit-identical when repeated.
                    if (policy_names[p] != "none") {
                        analysis::Diagnostics diags;
                        analysis::lint_schedule(report.repaired, problem, diags);
                        if (diags.has_errors()) {
                            ++check_failures;
                            std::cerr << "check: trial " << trial << " " << config.algos[s]
                                      << "/" << policy_names[p] << " frac " << fracs[f]
                                      << ": repaired schedule has lint errors\n"
                                      << analysis::render_text(diags);
                        }
                    }
                    const sim::FaultReport again =
                        sim::simulate_faulty(schedule, problem, plan, *policies[p]);
                    if (again.sim.makespan != report.sim.makespan ||
                        again.sim.finish_times != report.sim.finish_times ||
                        again.events != report.events ||
                        again.retries != report.retries ||
                        again.migrated_tasks != report.migrated_tasks ||
                        again.reexecuted_tasks != report.reexecuted_tasks ||
                        again.dropped_placements != report.dropped_placements ||
                        again.repair_latency != report.repair_latency) {
                        ++check_failures;
                        std::cerr << "check: trial " << trial << " " << config.algos[s] << "/"
                                  << policy_names[p] << " frac " << fracs[f]
                                  << ": repeated run is not bit-identical\n";
                    }
                }
            }
        }
    }

    for (std::size_t f = 0; f < fracs.size(); ++f) {
        std::vector<std::string> headers{"algorithm"};
        for (const auto& name : policy_names) headers.push_back(name);
        Table table(std::move(headers));
        for (std::size_t s = 0; s < config.algos.size(); ++s) {
            table.new_row().add(config.algos[s]);
            for (std::size_t p = 0; p < policies.size(); ++p) {
                table.add(stat_cell(stats[f][s][p]));
            }
        }
        std::printf("-- degradation, crash at %.2f x makespan (+-95%% CI) --\n", fracs[f]);
        table.print(std::cout);
        std::cout << '\n';
    }

    // Summary: crash fraction x policy, pooled over the algorithms.
    std::vector<std::string> headers{config.axis};
    for (const auto& name : policy_names) headers.push_back(name);
    Table summary(std::move(headers));
    for (std::size_t f = 0; f < fracs.size(); ++f) {
        char label[32];
        std::snprintf(label, sizeof(label), "%.2f", fracs[f]);
        summary.new_row().add(std::string(label));
        for (std::size_t p = 0; p < policies.size(); ++p) {
            RunningStats pooled;
            for (std::size_t s = 0; s < config.algos.size(); ++s) {
                pooled.add(stats[f][s][p].mean());
            }
            summary.add(stat_cell(pooled));
        }
    }
    std::cout << "-- mean degradation across algorithms --\n";
    summary.print(std::cout);
    if (!config.csv_path.empty() && !summary.write_csv(config.csv_path)) {
        std::cerr << "warning: could not write " << config.csv_path << '\n';
    }
    std::cout << '\n';

    Table slack_table({"algorithm", "slack robustness"});
    for (std::size_t s = 0; s < config.algos.size(); ++s) {
        slack_table.new_row().add(config.algos[s]).add(stat_cell(slack[s]));
    }
    std::cout << "-- static slack robustness (mean normalised placement slack) --\n";
    slack_table.print(std::cout);
    std::cout << '\n';

    if (check) {
        // The repairing policies must beat the do-nothing baseline on mean
        // degradation at every swept crash fraction.
        auto policy_index = [&](const std::string& name) {
            for (std::size_t p = 0; p < policy_names.size(); ++p) {
                if (policy_names[p] == name) return static_cast<std::ptrdiff_t>(p);
            }
            return std::ptrdiff_t{-1};
        };
        const std::ptrdiff_t none_i = policy_index("none");
        for (const char* contender : {"remap-pending", "reschedule-suffix"}) {
            const std::ptrdiff_t c_i = policy_index(contender);
            if (none_i < 0 || c_i < 0) continue;
            for (std::size_t f = 0; f < fracs.size(); ++f) {
                double none_mean = 0.0;
                double c_mean = 0.0;
                for (std::size_t s = 0; s < config.algos.size(); ++s) {
                    none_mean += stats[f][s][static_cast<std::size_t>(none_i)].mean();
                    c_mean += stats[f][s][static_cast<std::size_t>(c_i)].mean();
                }
                if (c_mean > none_mean + 1e-9) {
                    ++check_failures;
                    std::cerr << "check: " << contender << " mean degradation "
                              << c_mean / static_cast<double>(config.algos.size())
                              << " exceeds none's "
                              << none_mean / static_cast<double>(config.algos.size())
                              << " at frac " << fracs[f] << '\n';
                }
            }
        }
        if (check_failures > 0) {
            std::cerr << "check: FAILED (" << check_failures << " violation(s))\n";
            return 1;
        }
        std::cout << "check: OK\n";
    }
    return 0;
}
