#include "sim/faults.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <utility>

#include "analysis/fault_lints.hpp"
#include "analysis/schedule_lints.hpp"
#include "obs/obs.hpp"
#include "sim/placement_table.hpp"
#include "trace/trace.hpp"

namespace tsched::sim {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kTimeEps = 1e-9;

/// Mutable state of the continuous faulty run.  Rebuilt from the repaired
/// schedule after every crash, with the executed prefix carried over.
struct RunState {
    Schedule schedule;  ///< the current plan
    PlacementTable table;
    std::vector<double> realized_start;   ///< successful attempt start, per entry
    std::vector<double> realized_finish;  ///< kInf until executed
    std::vector<double> busy_added;       ///< chain busy incl. failed attempts
    std::vector<bool> executed;
    std::vector<std::size_t> next_index;  ///< per-proc cursor into proc_order
    std::vector<double> proc_free;
    std::vector<std::vector<std::pair<double, ProcId>>> done;  ///< per task: (finish, proc)
    std::size_t completed = 0;

    explicit RunState(const Schedule& plan)
        : schedule(plan),
          table(build_placement_table(schedule)),
          realized_start(table.entries.size(), kInf),
          realized_finish(table.entries.size(), kInf),
          busy_added(table.entries.size(), 0.0),
          executed(table.entries.size(), false),
          next_index(schedule.num_procs(), 0),
          proc_free(schedule.num_procs(), 0.0),
          done(schedule.num_tasks()) {}
};

/// Executed prefix plus the bookkeeping the public FrozenPlacement omits.
struct FrozenInfo {
    FrozenPlacement fp;
    double busy = 0.0;
};

/// One latency probe per repaired crash: the gap between the crash and the
/// first (re)start of any task whose placements were lost.
struct LatencyProbe {
    double crash_time = 0.0;
    std::vector<bool> watched;  ///< per task: lost and re-planned by the repair
    double latency = -1.0;
};

[[noreturn]] void repair_failed(const RepairPolicy& policy, ProcId proc, double time,
                                analysis::Diagnostics& diags, const std::string& why) {
    diags.add(analysis::Code::kFaultRepairInvalid,
              analysis::SourceLoc{kInvalidTask, proc, -1},
              "policy '" + policy.name() + "' " + why + " after the crash of P" +
                  std::to_string(proc) + " at t=" + std::to_string(time));
    throw std::invalid_argument("simulate_faulty: repair produced an invalid schedule\n" +
                                analysis::render_text(diags));
}

/// Rebuild the run state around the repaired plan: map every frozen
/// placement onto a new table entry at its realised times, restore the
/// per-task completion sets and per-proc cursors, and reject repairs that
/// lose the prefix, resurrect dead processors, or schedule before the crash
/// (all TS0602).
RunState rebuild(Schedule&& repaired, const std::vector<FrozenInfo>& frozen,
                 const std::vector<std::uint8_t>& dead, double crash_time,
                 const RepairPolicy& policy, ProcId crashed_proc) {
    RunState st{repaired};
    analysis::Diagnostics diags;

    for (const FrozenInfo& info : frozen) {
        const FrozenPlacement& f = info.fp;
        const auto v = static_cast<std::size_t>(f.task);
        bool mapped = false;
        for (std::size_t i = st.table.task_first[v]; i < st.table.task_first[v + 1]; ++i) {
            const Placement& pl = st.table.entries[i].planned;
            if (st.executed[i] || pl.proc != f.proc ||
                std::abs(pl.start - f.start) > kTimeEps) {
                continue;
            }
            st.executed[i] = true;
            st.realized_start[i] = f.start;
            st.realized_finish[i] = f.finish;
            st.busy_added[i] = info.busy;
            st.done[v].push_back({f.finish, f.proc});
            ++st.completed;
            mapped = true;
            break;
        }
        if (!mapped) {
            repair_failed(policy, crashed_proc, crash_time, diags,
                          "lost executed placement of task " + std::to_string(f.task) +
                              " on P" + std::to_string(f.proc));
        }
    }

    for (std::size_t p = 0; p < st.schedule.num_procs(); ++p) {
        const auto& order = st.table.proc_order[p];
        std::size_t prefix = 0;
        while (prefix < order.size() && st.executed[order[prefix]]) {
            st.proc_free[p] =
                std::max(st.proc_free[p], st.realized_finish[order[prefix]]);
            ++prefix;
        }
        st.next_index[p] = prefix;
        for (std::size_t i = prefix; i < order.size(); ++i) {
            const std::size_t e = order[i];
            if (st.executed[e]) {
                repair_failed(policy, crashed_proc, crash_time, diags,
                              "interleaved executed and unexecuted placements on P" +
                                  std::to_string(p));
            }
            const Placement& pl = st.table.entries[e].planned;
            if (dead[p]) {
                repair_failed(policy, crashed_proc, crash_time, diags,
                              "scheduled task " + std::to_string(pl.task) +
                                  " on dead processor P" + std::to_string(p));
            }
            if (pl.start < crash_time - kTimeEps) {
                repair_failed(policy, crashed_proc, crash_time, diags,
                              "scheduled task " + std::to_string(pl.task) +
                                  " before the crash time");
            }
        }
    }
    return st;
}

}  // namespace

const char* fault_event_kind_name(FaultEventKind kind) noexcept {
    switch (kind) {
        case FaultEventKind::kCrash: return "crash";
        case FaultEventKind::kTransientFailure: return "transient-failure";
        case FaultEventKind::kRepair: return "repair";
        case FaultEventKind::kMigration: return "migration";
        case FaultEventKind::kReexecution: return "reexecution";
    }
    return "?";
}

FaultPlan crash_busiest(const Schedule& schedule, double fraction) {
    if (!(fraction >= 0.0) || !std::isfinite(fraction)) {
        throw std::invalid_argument("crash_busiest: fraction must be finite and >= 0");
    }
    std::vector<double> busy(schedule.num_procs(), 0.0);
    for (std::size_t v = 0; v < schedule.num_tasks(); ++v) {
        for (const Placement& pl : schedule.placements(static_cast<TaskId>(v))) {
            busy[static_cast<std::size_t>(pl.proc)] += pl.duration();
        }
    }
    ProcId busiest = 0;
    for (std::size_t p = 1; p < busy.size(); ++p) {
        if (busy[p] > busy[static_cast<std::size_t>(busiest)]) {
            busiest = static_cast<ProcId>(p);
        }
    }
    FaultPlan plan;
    plan.crashes.push_back({busiest, fraction * schedule.makespan()});
    return plan;
}

FaultPlan random_crash_plan(const Schedule& schedule, Rng& rng, double min_fraction,
                            double max_fraction) {
    if (!(min_fraction >= 0.0) || !(max_fraction >= min_fraction)) {
        throw std::invalid_argument(
            "random_crash_plan: need 0 <= min_fraction <= max_fraction");
    }
    FaultPlan plan;
    const auto proc = static_cast<ProcId>(
        rng.uniform_int(0, static_cast<std::int64_t>(schedule.num_procs()) - 1));
    const double fraction = rng.uniform(min_fraction, max_fraction);
    plan.crashes.push_back({proc, fraction * schedule.makespan()});
    return plan;
}

FaultReport simulate_faulty(const Schedule& schedule, const Problem& problem,
                            const FaultPlan& plan, const RepairPolicy& policy) {
    TSCHED_OBS_PHASE("sim/simulate_faulty_ms");
    {
        analysis::Diagnostics plan_diags;
        analysis::lint_fault_plan(plan, problem, plan_diags);
        if (plan_diags.has_errors()) {
            throw std::invalid_argument("simulate_faulty: invalid fault plan\n" +
                                        analysis::render_text(plan_diags));
        }
    }
#ifdef TSCHED_DEBUG_CHECKS
    analysis::run_debug_checks(schedule, problem);
#endif

    const Dag& dag = problem.dag();
    const LinkModel& links = problem.machine().links();

    FaultReport report;
    report.static_makespan = schedule.makespan();

    // Cross-processor transfer time under the plan's slowdown windows; a
    // window applies when the producing instance finishes inside it.
    auto comm_time = [&](double data, ProcId from, ProcId to, double producer_finish) {
        double t = links.comm_time(data, from, to);
        if (from == to) return t;
        for (const LinkSlowdown& s : plan.slowdowns) {
            if (producer_finish >= s.begin && producer_finish < s.end &&
                (s.src == kInvalidProc || s.src == from) &&
                (s.dst == kInvalidProc || s.dst == to)) {
                t *= s.factor;
            }
        }
        return t;
    };

    std::vector<std::size_t> budget(problem.num_tasks(), 0);
    for (const TaskFault& f : plan.task_faults) {
        budget[static_cast<std::size_t>(f.task)] += f.failures;
    }

    std::vector<ProcCrash> crashes = plan.crashes;
    std::sort(crashes.begin(), crashes.end(), [](const ProcCrash& a, const ProcCrash& b) {
        return a.time != b.time ? a.time < b.time : a.proc < b.proc;
    });

    RunState st{schedule};
    std::vector<std::uint8_t> dead(problem.num_procs(), 0);
    std::vector<LatencyProbe> probes;
    std::size_t crash_idx = 0;
    double time_floor = 0.0;
    std::vector<double> proc_busy(problem.num_procs(), 0.0);

    // Earliest time all of v's inputs are available on p from completed
    // instances; +inf while some predecessor has no completed instance.
    auto data_ready = [&](TaskId v, ProcId p) {
        double ready = 0.0;
        for (const AdjEdge& e : dag.predecessors(v)) {
            const auto& instances = st.done[static_cast<std::size_t>(e.task)];
            if (instances.empty()) return kInf;
            double best = kInf;
            for (const auto& [finish, from] : instances) {
                best = std::min(best, finish + comm_time(e.data, from, p, finish));
            }
            ready = std::max(ready, best);
        }
        return ready;
    };

    auto apply_crash = [&](const ProcCrash& crash) {
        TSCHED_COUNT("fault_crashes");
        dead[static_cast<std::size_t>(crash.proc)] = 1;
        report.events.push_back(
            {FaultEventKind::kCrash, crash.time, kInvalidTask, crash.proc});

        // Abort the in-flight placement on the dead processor.  Committed
        // starts are non-decreasing, so nothing that starts at/after the
        // crash is committed yet, and the aborted instance's output cannot
        // have been consumed (any consumer would start after its finish).
        std::vector<Placement> lost;
        std::vector<bool> aborted(problem.num_tasks(), false);
        const auto& order = st.table.proc_order[static_cast<std::size_t>(crash.proc)];
        for (std::size_t i = 0; i < st.next_index[static_cast<std::size_t>(crash.proc)];
             ++i) {
            const std::size_t e = order[i];
            if (!st.executed[e] || st.realized_finish[e] <= crash.time + kTimeEps) continue;
            const auto v = static_cast<std::size_t>(st.table.entries[e].planned.task);
            auto& instances = st.done[v];
            instances.erase(std::find(instances.begin(), instances.end(),
                                      std::make_pair(st.realized_finish[e], crash.proc)));
            proc_busy[static_cast<std::size_t>(crash.proc)] -= st.busy_added[e];
            st.executed[e] = false;
            st.realized_start[e] = kInf;
            st.realized_finish[e] = kInf;
            --st.completed;
            aborted[v] = true;
            TSCHED_COUNT("fault_aborted_placements");
            lost.push_back(st.table.entries[e].planned);
        }
        for (std::size_t i = st.next_index[static_cast<std::size_t>(crash.proc)];
             i < order.size(); ++i) {
            lost.push_back(st.table.entries[order[i]].planned);
        }
        if (lost.empty()) return;  // the processor had nothing left to do

        RepairContext ctx;
        ctx.problem = &problem;
        ctx.crashed_proc = crash.proc;
        ctx.crash_time = crash.time;
        ctx.dead = dead;
        ctx.lost = std::move(lost);
        std::vector<FrozenInfo> frozen;
        for (std::size_t e = 0; e < st.table.entries.size(); ++e) {
            const Placement& pl = st.table.entries[e].planned;
            if (st.executed[e]) {
                const bool in_flight = st.realized_finish[e] > crash.time + kTimeEps;
                ctx.frozen.push_back({pl.task, pl.proc, st.realized_start[e],
                                      st.realized_finish[e], in_flight});
                frozen.push_back({ctx.frozen.back(), st.busy_added[e]});
            } else if (pl.proc != crash.proc) {
                ctx.pending.push_back(pl);
            }
        }
        if (ctx.live_procs() == 0) {
            throw std::runtime_error(
                "simulate_faulty: every processor crashed; nothing can repair that");
        }

        TSCHED_COUNT("fault_repairs");
        report.events.push_back(
            {FaultEventKind::kRepair, crash.time, kInvalidTask, crash.proc});
        Schedule repaired = policy.repair(ctx);
        {
            analysis::Diagnostics diags;
            analysis::ScheduleLintOptions options;
            options.quality = false;
            analysis::lint_schedule(repaired, problem, diags, options);
            if (diags.has_errors()) {
                repair_failed(policy, crash.proc, crash.time, diags,
                              "failed the schedule validity lints");
            }
        }

        // Repair accounting: which lost tasks moved, which re-run, and how
        // many planned placements were not re-created.
        const std::size_t old_unexecuted = st.table.entries.size() - st.completed;
        LatencyProbe probe;
        probe.crash_time = crash.time;
        probe.watched.assign(problem.num_tasks(), false);
        std::vector<bool> lost_task(problem.num_tasks(), false);
        for (const Placement& pl : ctx.lost) {
            lost_task[static_cast<std::size_t>(pl.task)] = true;
        }
        std::vector<bool> counted(problem.num_tasks(), false);
        for (std::size_t v = 0; v < problem.num_tasks(); ++v) {
            if (!lost_task[v]) continue;
            for (const Placement& pl : repaired.placements(static_cast<TaskId>(v))) {
                if (pl.start < crash.time - kTimeEps) continue;  // frozen replay
                probe.watched[v] = true;
                if (aborted[v]) {
                    report.events.push_back({FaultEventKind::kReexecution, crash.time,
                                             static_cast<TaskId>(v), pl.proc});
                    ++report.reexecuted_tasks;
                    aborted[v] = false;  // count each task once
                }
                if (pl.proc != crash.proc && !counted[v]) {
                    report.events.push_back({FaultEventKind::kMigration, crash.time,
                                             static_cast<TaskId>(v), pl.proc});
                    ++report.migrated_tasks;
                    TSCHED_COUNT("fault_migrated_placements");
                    counted[v] = true;
                }
            }
        }
        probes.push_back(std::move(probe));

        st = rebuild(std::move(repaired), frozen, dead, crash.time, policy, crash.proc);
        const std::size_t new_unexecuted = st.table.entries.size() - st.completed;
        if (new_unexecuted < old_unexecuted) {
            const std::size_t dropped = old_unexecuted - new_unexecuted;
            report.dropped_placements += dropped;
            TSCHED_COUNT_ADD("fault_dropped_placements", dropped);
        }
        time_floor = std::max(time_floor, crash.time);
    };

    const std::size_t procs = problem.num_procs();
    while (true) {
        // Pick the runnable head placement with the earliest start.
        std::size_t best_proc = procs;
        double best_start = kInf;
        for (std::size_t p = 0; p < procs; ++p) {
            if (st.next_index[p] >= st.table.proc_order[p].size()) continue;
            const auto& entry = st.table.entries[st.table.proc_order[p][st.next_index[p]]];
            const double ready = data_ready(entry.planned.task, static_cast<ProcId>(p));
            if (ready == kInf) continue;
            const double start = std::max({st.proc_free[p], ready, time_floor});
            if (start < best_start) {
                best_start = start;
                best_proc = p;
            }
        }

        if (st.completed == st.table.entries.size()) {
            if (crash_idx < crashes.size()) {
                apply_crash(crashes[crash_idx]);
                ++crash_idx;
                continue;  // a trailing crash may have aborted in-flight work
            }
            break;
        }
        if (crash_idx < crashes.size() && best_start >= crashes[crash_idx].time) {
            apply_crash(crashes[crash_idx]);
            ++crash_idx;
            continue;
        }
        if (best_proc == procs) {
            throw std::invalid_argument(
                "simulate_faulty: schedule deadlocked (head placements wait on tasks "
                "queued behind them)");
        }

        const std::size_t entry_id = st.table.proc_order[best_proc][st.next_index[best_proc]];
        const auto v = st.table.entries[entry_id].planned.task;
        const double dur = problem.exec_time(v, static_cast<ProcId>(best_proc));
        double start = best_start;
        double busy = 0.0;
        // Transient faults: each failed attempt occupies the processor for
        // the full duration, then retries immediately on the same processor.
        while (budget[static_cast<std::size_t>(v)] > 0) {
            --budget[static_cast<std::size_t>(v)];
            ++report.retries;
            TSCHED_COUNT("fault_transient_failures");
            report.events.push_back({FaultEventKind::kTransientFailure, start + dur, v,
                                     static_cast<ProcId>(best_proc)});
            busy += dur;
            start += dur;
        }
        const double finish = start + dur;
        busy += dur;
        st.executed[entry_id] = true;
        st.realized_start[entry_id] = start;
        st.realized_finish[entry_id] = finish;
        st.busy_added[entry_id] = busy;
        proc_busy[best_proc] += busy;
        st.proc_free[best_proc] = finish;
        st.done[static_cast<std::size_t>(v)].push_back(
            {finish, static_cast<ProcId>(best_proc)});
        ++st.next_index[best_proc];
        ++st.completed;
        for (LatencyProbe& probe : probes) {
            if (probe.latency < 0.0 && probe.watched[static_cast<std::size_t>(v)]) {
                probe.latency = best_start - probe.crash_time;
            }
        }
    }

    // Assemble the report from the final state.
    report.sim.proc_busy = proc_busy;
    report.sim.finish_times.assign(st.table.entries.size(), kInf);
    for (std::size_t e = 0; e < st.table.entries.size(); ++e) {
        report.sim.finish_times[st.table.entries[e].global_index] = st.realized_finish[e];
        report.sim.makespan = std::max(report.sim.makespan, st.realized_finish[e]);
    }
    // Communication accounting: which instance actually served each input of
    // each primary placement (remote edges counted once per consumer).
    for (std::size_t v = 0; v < st.schedule.num_tasks(); ++v) {
        const Placement& consumer = st.schedule.primary(static_cast<TaskId>(v));
        for (const AdjEdge& e : dag.predecessors(static_cast<TaskId>(v))) {
            double best = kInf;
            ProcId best_from = consumer.proc;
            for (const auto& [finish, from] : st.done[static_cast<std::size_t>(e.task)]) {
                const double avail = finish + comm_time(e.data, from, consumer.proc, finish);
                if (avail < best) {
                    best = avail;
                    best_from = from;
                }
            }
            if (best_from != consumer.proc) {
                ++report.sim.remote_messages;
                report.sim.comm_volume += e.data;
            }
        }
    }
    for (const LatencyProbe& probe : probes) {
        report.repair_latency = std::max(report.repair_latency, std::max(probe.latency, 0.0));
    }
    report.degradation =
        report.static_makespan > 0.0 ? report.sim.makespan / report.static_makespan : 1.0;
    report.repaired = std::move(st.schedule);
    return report;
}

}  // namespace tsched::sim
