#include "sim/contention.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <vector>

#include "obs/obs.hpp"
#include "sim/placement_table.hpp"
#include "trace/trace.hpp"

namespace tsched::sim {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

struct Ports {
    std::vector<double> send_free;  // per processor outbound port
    std::vector<double> recv_free;  // per processor inbound port
};

struct PlanStats {
    std::size_t transfers = 0;
    double transfer_time = 0.0;
    double max_wait = 0.0;
    std::vector<Transfer> log;
};

/// Plan (and with `commit` also book) the input transfers and start time of
/// placing `task` on `q`.  Transfers are sequenced in predecessor order;
/// within one candidate they interact through the port copies, so two
/// remote inputs into the same consumer serialize on its inbound port.
double plan_start(const Problem& problem, const std::vector<std::vector<std::pair<double, ProcId>>>& done,
                  TaskId task, ProcId q, double proc_free, Ports& ports, bool commit,
                  PlanStats* stats) {
    const Dag& dag = problem.dag();
    const LinkModel& links = problem.machine().links();
    double ready = 0.0;
    for (const AdjEdge& e : dag.predecessors(task)) {
        const auto& instances = done[static_cast<std::size_t>(e.task)];
        if (instances.empty()) return kInf;
        // Producer instance with the best nominal (contention-free) arrival.
        double best_nominal = kInf;
        double best_finish = 0.0;
        ProcId best_src = q;
        for (const auto& [finish, src] : instances) {
            const double nominal = finish + links.comm_time(e.data, src, q);
            if (nominal < best_nominal) {
                best_nominal = nominal;
                best_finish = finish;
                best_src = src;
            }
        }
        double arrival = 0.0;
        if (best_src == q) {
            arrival = best_finish;  // local: no ports involved
        } else {
            const double dur = links.comm_time(e.data, best_src, q);
            const double start = std::max({best_finish,
                                           ports.send_free[static_cast<std::size_t>(best_src)],
                                           ports.recv_free[static_cast<std::size_t>(q)]});
            arrival = start + dur;
            ports.send_free[static_cast<std::size_t>(best_src)] = arrival;
            ports.recv_free[static_cast<std::size_t>(q)] = arrival;
            if (commit && stats != nullptr) {
                ++stats->transfers;
                stats->transfer_time += dur;
                stats->max_wait = std::max(stats->max_wait, start - best_finish);
                stats->log.push_back({e.task, task, best_src, q, start, arrival, e.data});
            }
        }
        ready = std::max(ready, arrival);
    }
    return std::max(ready, proc_free);
}
}  // namespace

ContentionResult simulate_contended(const Schedule& schedule, const Problem& problem) {
    TSCHED_OBS_PHASE("sim/contended_ms");
    const std::size_t procs = schedule.num_procs();

    // Same decision extraction as sim::simulate: the canonical placement
    // enumeration plus each processor's planned run order.
    const PlacementTable table = build_placement_table(schedule);
    const std::size_t total = table.entries.size();

    std::vector<std::size_t> next(procs, 0);
    std::vector<double> proc_free(procs, 0.0);
    Ports ports{std::vector<double>(procs, 0.0), std::vector<double>(procs, 0.0)};
    std::vector<std::vector<std::pair<double, ProcId>>> done(schedule.num_tasks());

    ContentionResult result;
    result.finish_times.assign(total, kInf);
    PlanStats stats;
    std::size_t completed = 0;
    while (completed < total) {
        // Evaluate every runnable head on a copy of the port state; commit
        // the earliest starter.
        std::size_t best_proc = procs;
        double best_start = kInf;
        for (std::size_t p = 0; p < procs; ++p) {
            if (next[p] >= table.proc_order[p].size()) continue;
            const auto& head = table.entries[table.proc_order[p][next[p]]];
            Ports scratch = ports;
            const double start = plan_start(problem, done, head.planned.task,
                                            static_cast<ProcId>(p), proc_free[p], scratch,
                                            false, nullptr);
            if (start < best_start) {
                best_start = start;
                best_proc = p;
            }
        }
        if (best_proc == procs) {
            throw std::invalid_argument(
                "simulate_contended: schedule deadlocked (head placements wait on tasks "
                "queued behind them)");
        }
        const auto& head = table.entries[table.proc_order[best_proc][next[best_proc]]];
        const double start =
            plan_start(problem, done, head.planned.task, static_cast<ProcId>(best_proc),
                       proc_free[best_proc], ports, true, &stats);
        const double finish =
            start + problem.exec_time(head.planned.task, static_cast<ProcId>(best_proc));
        result.finish_times[head.global_index] = finish;
        proc_free[best_proc] = finish;
        done[static_cast<std::size_t>(head.planned.task)].push_back(
            {finish, static_cast<ProcId>(best_proc)});
        ++next[best_proc];
        ++completed;
        result.makespan = std::max(result.makespan, finish);
    }
    result.transfers = stats.transfers;
    result.transfer_time_total = stats.transfer_time;
    result.max_port_wait = stats.max_wait;
    result.transfer_log = std::move(stats.log);
    TSCHED_COUNT_ADD("sim_transfers", result.transfers);
    return result;
}

}  // namespace tsched::sim
