// offline-bign: the paper's own use — one thread schedules a fixed corpus of
// large DAGs with five algorithms, and the schedules are checked by the
// linter (no errors) and the event simulator (check_simulation).  No serve,
// net or cache code runs.
//
// Run shape: set-up builds the corpus nine times (setup_s is the median);
// pass 0 schedules everything once, untimed, and runs the correctness
// oracles (it also fills each Problem's lazy mean-communication cache); the
// timed passes then repeat the identical corpus until the time budget is
// spent, each re-checking that every makespan repeats exactly.  In a traced
// run the timed passes alternate between untraced and traced; only the
// traced ones time upward_rank and read trace-registry deltas per call.
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "analysis/schedule_lints.hpp"
#include "core/registry.hpp"
#include "metrics/metrics.hpp"
#include "sched/ranks.hpp"
#include "trace/counters.hpp"
#include "workload/instance.hpp"
#include "workloads.hpp"

namespace perfbench {

using tsched::Problem;
using tsched::Schedule;

namespace {

constexpr int kSetupRepeats = 9;

/// The fixed corpus shape: layered random DAGs at four sizes and Gaussian
/// elimination at two (m = 99 -> 4949 tasks, m = 199 -> 19899 tasks), each
/// at CCR 1 and 5, on P = 8 unrelated processors.  The seed picks the
/// random structure and costs, never the sizes.
std::vector<tsched::workload::InstanceParams> corpus_params() {
    using tsched::workload::Shape;
    std::vector<tsched::workload::InstanceParams> out;
    for (double ccr : {1.0, 5.0}) {
        for (std::size_t n : {2000, 5000, 10000, 20000}) {
            tsched::workload::InstanceParams p;
            p.shape = Shape::kLayered;
            p.size = n;
            p.ccr = ccr;
            out.push_back(p);
        }
        for (std::size_t m : {99, 199}) {
            tsched::workload::InstanceParams p;
            p.shape = Shape::kGauss;
            p.size = m;
            p.ccr = ccr;
            out.push_back(p);
        }
    }
    for (auto& p : out) p.num_procs = 8;
    return out;
}

struct Corpus {
    std::vector<Problem> problems;
    std::vector<double> instance_ms;  ///< make_instance wall time per problem
};

Corpus make_corpus(std::uint64_t seed) {
    Corpus corpus;
    const auto params = corpus_params();
    for (std::size_t i = 0; i < params.size(); ++i) {
        const auto t = Clock::now();
        corpus.problems.push_back(tsched::workload::make_instance(params[i], mix(seed + i)));
        corpus.instance_ms.push_back(ms_since(t));
    }
    return corpus;
}

struct TracedTotals {
    std::map<std::string, std::vector<double>> schedule_ms;  ///< per algorithm
    std::vector<double> upward_rank_ms;
    std::uint64_t tasks = 0;
    std::uint64_t eft_evaluations = 0;
    std::uint64_t rollbacks = 0;
    std::uint64_t dup_attempts = 0;
    std::uint64_t dup_accepted = 0;
};

struct PassTimes {
    double sched_s = 0.0;      ///< wall time inside Scheduler::schedule
    double sched_cpu_s = 0.0;  ///< thread CPU time inside Scheduler::schedule
    std::uint64_t tasks = 0;
    std::uint64_t calls = 0;
};

const std::vector<std::string> kAlgos = {"heft", "ils", "ils-d", "dsh", "btdh"};

}  // namespace

Result run_offline(const Options& options) {
    Result result;
    const auto& algos = kAlgos;

    // --- set-up: corpus generation (median of kSetupRepeats) + schedulers.
    std::vector<double> setup_s;
    Corpus corpus;
    for (int r = 0; r < kSetupRepeats; ++r) {
        const auto start = Clock::now();
        corpus = make_corpus(options.seed);
        setup_s.push_back(seconds_since(start));
    }
    std::vector<tsched::SchedulerPtr> schedulers;
    for (const auto& name : algos) schedulers.push_back(tsched::make_scheduler(name));
    const std::size_t num_problems = corpus.problems.size();
    std::uint64_t corpus_tasks = 0;
    for (const Problem& p : corpus.problems) corpus_tasks += p.num_tasks();

    const auto run_start = Clock::now();

    // --- pass 0: correctness oracles and the reference makespans.
    std::vector<double> ref_makespan(num_problems * algos.size());
    std::map<std::string, std::vector<double>> slr_by_algo;
    std::vector<double> slrs;
    std::uint64_t lint_errors = 0;
    std::uint64_t sim_mismatches = 0;
    std::uint64_t bad_schedules = 0;
    for (std::size_t i = 0; i < num_problems; ++i) {
        const Problem& problem = corpus.problems[i];
        for (std::size_t a = 0; a < algos.size(); ++a) {
            const Schedule schedule = schedulers[a]->schedule(problem);
            ++result.attempted;
            tsched::analysis::Diagnostics diags;
            tsched::analysis::ScheduleLintOptions lint;
            lint.quality = false;
            tsched::analysis::lint_schedule(schedule, problem, diags, lint);
            const SimCheck sim = check_simulation(schedule, problem);
            lint_errors += diags.error_count();
            if (!sim.exact) ++sim_mismatches;
            if (diags.has_errors() || !sim.ok) {
                ++bad_schedules;
                result.problem("offline: " + algos[a] + " on problem " + std::to_string(i) +
                               ": " + std::to_string(diags.error_count()) +
                               " lint errors, simulated makespan " +
                               std::to_string(sim.replayed) + " vs planned " +
                               std::to_string(sim.planned));
            }
            ref_makespan[i * algos.size() + a] = schedule.makespan();
            const double s = tsched::slr(schedule, problem);
            slr_by_algo[algos[a]].push_back(s);
            slrs.push_back(s);
        }
    }

    // --- timed passes.
    std::vector<PassTimes> untraced_passes;
    std::vector<PassTimes> traced_passes;
    std::vector<double> call_ms;  // untraced passes only
    TracedTotals traced;
    std::uint64_t nondeterministic = 0;
    const std::size_t min_passes = options.trace ? 2 : 3;
    double last_pass_s = 0.0;
    for (std::size_t pass = 0;; ++pass) {
        const double elapsed = seconds_since(run_start);
        if (pass >= min_passes && elapsed + last_pass_s > options.seconds) break;
        const bool traced_pass = options.trace && pass % 2 == 1;
        const auto pass_start = Clock::now();
        PassTimes times;
        for (std::size_t i = 0; i < num_problems; ++i) {
            const Problem& problem = corpus.problems[i];
            if (traced_pass) {
                const auto t = Clock::now();
                const auto rank = tsched::upward_rank(problem);
                traced.upward_rank_ms.push_back(ms_since(t));
                if (rank.size() != problem.num_tasks()) result.problem("offline: upward_rank size");
            }
            for (std::size_t a = 0; a < algos.size(); ++a) {
                tsched::trace::Snapshot before;
                if (traced_pass) before = tsched::trace::registry().snapshot();
                const double cpu_start = thread_cpu_s();
                const auto t = Clock::now();
                const Schedule schedule = schedulers[a]->schedule(problem);
                const double ms = ms_since(t);
                times.sched_cpu_s += thread_cpu_s() - cpu_start;
                if (traced_pass) {
                    const auto after = tsched::trace::registry().snapshot();
                    const auto delta = tsched::trace::snapshot_delta(before, after);
                    traced.schedule_ms[algos[a]].push_back(ms);
                    traced.tasks += problem.num_tasks();
                    traced.eft_evaluations += trace_counter(delta, "eft_evaluations");
                    traced.rollbacks += trace_counter(delta, "speculative_rollbacks");
                    traced.dup_attempts += trace_counter(delta, "duplication_attempts");
                    traced.dup_accepted += trace_counter(delta, "duplication_accepted");
                } else {
                    call_ms.push_back(ms);
                }
                times.sched_s += ms / 1e3;
                times.tasks += problem.num_tasks();
                ++times.calls;
                ++result.attempted;
                if (schedule.makespan() != ref_makespan[i * algos.size() + a]) {
                    ++nondeterministic;
                    ++bad_schedules;
                    result.problem("offline: " + algos[a] + " on problem " + std::to_string(i) +
                                   " gave a different makespan on a repeat pass");
                }
            }
        }
        (traced_pass ? traced_passes : untraced_passes).push_back(times);
        last_pass_s = seconds_since(pass_start);
    }
    result.failed = bad_schedules;

    std::vector<double> pass_rates;  // tasks per CPU-second, per untraced pass
    double sched_s = 0.0;
    std::uint64_t calls = 0;
    for (const PassTimes& p : untraced_passes) {
        pass_rates.push_back(static_cast<double>(p.tasks) / p.sched_cpu_s);
        sched_s += p.sched_s;
        calls += p.calls;
    }
    double slr_sum = 0.0;
    for (double s : slrs) slr_sum += s;
    const double mean_slr = slr_sum / static_cast<double>(slrs.size());

    char line[256];
    std::snprintf(line, sizeof line,
                  "offline-bign: %zu problems (%llu tasks) x %zu algorithms, %zu untraced + %zu "
                  "traced timed passes, %zu timed calls",
                  num_problems, static_cast<unsigned long long>(corpus_tasks), algos.size(),
                  untraced_passes.size(), traced_passes.size(), call_ms.size());
    result.note(line);

    // What a caller of Scheduler::schedule sees, per call (untraced passes).
    const double lat_p50 = quantile(call_ms, 0.50);
    const double lat_p99 = quantile(call_ms, 0.99);
    const double calls_per_s = static_cast<double>(calls) / sched_s;
    std::snprintf(line, sizeof line,
                  "  per call: p50 %.3f ms, p99 %.3f ms over %zu calls; %.3f calls/s", lat_p50,
                  lat_p99, call_ms.size(), calls_per_s);
    result.note(line);

    if (!options.trace) {
        const double ok = static_cast<double>(result.attempted - result.failed);
        result.add("tasks_per_s", median(pass_rates), "tasks/s");
        result.add("mean_slr", mean_slr, "ratio");
        result.add("ok_share", ok / static_cast<double>(result.attempted), "ratio");
        result.add("setup_s", median(setup_s), "s");
        result.add("peak_rss_mb", peak_rss_mb(), "MB");
        return result;
    }

    result.add("client.lat_p50_ms", lat_p50, "ms");
    result.add("client.lat_p99_ms", lat_p99, "ms");
    result.add("client.slo_qps", calls_per_s, "req/s");
    std::vector<double> traced_rates;
    for (const PassTimes& p : traced_passes)
        traced_rates.push_back(static_cast<double>(p.tasks) / p.sched_cpu_s);
    const auto per_task = [&](std::uint64_t count) {
        return traced.tasks ? static_cast<double>(count) / static_cast<double>(traced.tasks) : 0.0;
    };
    result.add("workload.instance_ms_p50", median(corpus.instance_ms), "ms");
    result.add("sched.upward_rank_ms_p50", median(traced.upward_rank_ms), "ms");
    for (const auto& name : algos)
        result.add("sched.schedule_ms_p50." + name, median(traced.schedule_ms[name]), "ms");
    result.add("sched.eft_evals_per_task", per_task(traced.eft_evaluations), "count");
    result.add("sched.rollbacks_per_task", per_task(traced.rollbacks), "count");
    result.add("sched.dup_accept_ratio",
               traced.dup_attempts ? static_cast<double>(traced.dup_accepted) /
                                         static_cast<double>(traced.dup_attempts)
                                   : 0.0,
               "ratio");
    for (const auto& name : algos) {
        double sum = 0.0;
        for (double s : slr_by_algo[name]) sum += s;
        result.add("metrics.slr_mean." + name,
                   sum / static_cast<double>(slr_by_algo[name].size()), "ratio");
    }
    result.add("analysis.lint_errors", static_cast<double>(lint_errors), "count");
    result.add("sim.makespan_mismatches", static_cast<double>(sim_mismatches + nondeterministic),
               "count");
    result.add("fail_share",
               static_cast<double>(result.failed) / static_cast<double>(result.attempted),
               "ratio");
    // Positive = the traced passes scheduled fewer tasks per second.
    const double untraced_rate = median(pass_rates);
    result.add("trace.overhead_share", (untraced_rate - median(traced_rates)) / untraced_rate,
               "ratio");
    return result;
}

}  // namespace perfbench
