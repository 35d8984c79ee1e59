#include "sim/event_sim.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <vector>

#include "obs/obs.hpp"
#include "sim/placement_table.hpp"
#include "trace/trace.hpp"

#ifdef TSCHED_DEBUG_CHECKS
#include "analysis/schedule_lints.hpp"
#endif

namespace tsched::sim {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Event-driven core shared by the exact and noisy runs.  `duration(e)` is
/// the execution time of entry e on its processor; `comm(v, pred_idx, from,
/// to)` the communication time of v's pred_idx-th input edge between the
/// given processors.
template <typename DurationFn, typename CommFn>
SimResult run(const Schedule& schedule, const Problem& problem, DurationFn&& duration,
              CommFn&& comm) {
    const CsrAdjacency& csr = problem.dag().csr();
    const PlacementTable table = build_placement_table(schedule);
    const std::size_t total = table.entries.size();
    TSCHED_COUNT_ADD("sim_events", total);
    const std::size_t procs = schedule.num_procs();

    SimResult result;
    result.proc_busy.assign(procs, 0.0);
    result.finish_times.assign(total, kInf);

    std::vector<std::size_t> next_index(procs, 0);  // cursor into proc_order
    std::vector<double> proc_free(procs, 0.0);
    // Completed instances per task: (finish, proc).
    std::vector<std::vector<std::pair<double, ProcId>>> done(schedule.num_tasks());

    // Earliest time all of v's inputs are available on p from *completed*
    // instances; +inf while some predecessor has no completed instance.
    auto data_ready = [&](TaskId v, ProcId p) {
        double ready = 0.0;
        const auto preds = csr.pred_tasks(v);
        for (std::size_t i = 0; i < preds.size(); ++i) {
            const auto& instances = done[static_cast<std::size_t>(preds[i])];
            if (instances.empty()) return kInf;
            double best = kInf;
            for (const auto& [finish, from] : instances) {
                best = std::min(best, finish + comm(v, i, from, p));
            }
            ready = std::max(ready, best);
        }
        return ready;
    };

    std::size_t completed = 0;
    while (completed < total) {
        // Pick the runnable head placement with the earliest start.
        std::size_t best_proc = procs;
        double best_start = kInf;
        for (std::size_t p = 0; p < procs; ++p) {
            if (next_index[p] >= table.proc_order[p].size()) continue;
            const auto& entry = table.entries[table.proc_order[p][next_index[p]]];
            const double ready = data_ready(entry.planned.task, static_cast<ProcId>(p));
            if (ready == kInf) continue;
            const double start = std::max(proc_free[p], ready);
            if (start < best_start) {
                best_start = start;
                best_proc = p;
            }
        }
        if (best_proc == procs) {
            throw std::invalid_argument(
                "simulate: schedule deadlocked (head placements wait on tasks queued behind "
                "them)");
        }
        const std::size_t entry_id = table.proc_order[best_proc][next_index[best_proc]];
        const auto& entry = table.entries[entry_id];
        const double dur = duration(entry);
        const double finish = best_start + dur;
        result.finish_times[entry.global_index] = finish;
        result.proc_busy[best_proc] += dur;
        proc_free[best_proc] = finish;
        done[static_cast<std::size_t>(entry.planned.task)].push_back(
            {finish, static_cast<ProcId>(best_proc)});
        ++next_index[best_proc];
        ++completed;
        result.makespan = std::max(result.makespan, finish);
    }

    // Communication accounting: which instance actually served each input of
    // each primary placement (remote edges counted once per consumer).
    const LinkModel& links = problem.machine().links();
    for (std::size_t v = 0; v < schedule.num_tasks(); ++v) {
        const Placement& consumer = schedule.primary(static_cast<TaskId>(v));
        const auto preds = csr.pred_tasks(static_cast<TaskId>(v));
        const auto edges = csr.pred_edges(static_cast<TaskId>(v));
        for (std::size_t i = 0; i < preds.size(); ++i) {
            const double data = csr.edge_data()[edges[i]];
            double best = kInf;
            ProcId best_from = consumer.proc;
            for (const auto& [finish, from] : done[static_cast<std::size_t>(preds[i])]) {
                const double avail = finish + links.comm_time(data, from, consumer.proc);
                if (avail < best) {
                    best = avail;
                    best_from = from;
                }
            }
            if (best_from != consumer.proc) {
                ++result.remote_messages;
                result.comm_volume += data;
            }
        }
    }
    return result;
}
}  // namespace

SimResult simulate(const Schedule& schedule, const Problem& problem) {
    TSCHED_OBS_PHASE("sim/simulate_ms");
#ifdef TSCHED_DEBUG_CHECKS
    // Reject invalid inputs up front with coded diagnostics; the simulator's
    // own structural checks only catch missing placements and deadlocks.
    analysis::run_debug_checks(schedule, problem);
#endif
    const LinkModel& links = problem.machine().links();
    const CsrAdjacency& csr = problem.dag().csr();
    return run(
        schedule, problem,
        [&](const auto& entry) {
            return problem.exec_time(entry.planned.task, entry.planned.proc);
        },
        [&](TaskId v, std::size_t pred_idx, ProcId from, ProcId to) {
            return links.comm_time(csr.edge_data()[csr.pred_edges(v)[pred_idx]], from, to);
        });
}

SimResult simulate_noisy(const Schedule& schedule, const Problem& problem, double noise,
                         Rng& rng) {
    TSCHED_OBS_PHASE("sim/simulate_noisy_ms");
    if (!(noise >= 0.0 && noise < 1.0)) {
        throw std::invalid_argument("simulate_noisy: noise must be in [0, 1)");
    }
    const CsrAdjacency& csr = problem.dag().csr();
    const LinkModel& links = problem.machine().links();

    // Pre-draw all factors in a fixed order so results depend only on the
    // rng seed, not on event interleaving.
    std::size_t total_placements = 0;
    for (std::size_t v = 0; v < schedule.num_tasks(); ++v) {
        total_placements += schedule.placements(static_cast<TaskId>(v)).size();
    }
    std::vector<double> dur_factor(total_placements);
    for (auto& f : dur_factor) f = rng.uniform(1.0 - noise, 1.0 + noise);
    std::vector<std::vector<double>> comm_factor(schedule.num_tasks());
    for (std::size_t v = 0; v < schedule.num_tasks(); ++v) {
        comm_factor[v].resize(csr.in_degree(static_cast<TaskId>(v)));
        for (auto& f : comm_factor[v]) f = rng.uniform(1.0 - noise, 1.0 + noise);
    }

    return run(
        schedule, problem,
        [&](const auto& entry) {
            return problem.exec_time(entry.planned.task, entry.planned.proc) *
                   dur_factor[entry.global_index];
        },
        [&](TaskId v, std::size_t pred_idx, ProcId from, ProcId to) {
            return links.comm_time(csr.edge_data()[csr.pred_edges(v)[pred_idx]], from, to) *
                   comm_factor[static_cast<std::size_t>(v)][pred_idx];
        });
}

}  // namespace tsched::sim
