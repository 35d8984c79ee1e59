#include "sched/contention_aware.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "sched/builder.hpp"
#include "sched/ranks.hpp"

namespace tsched {

namespace {
struct Ports {
    std::vector<double> send_free;
    std::vector<double> recv_free;
};

/// Earliest start of `v` on `q` under the one-port model; books the chosen
/// transfers into `ports` when `commit` is set.  Transfers are sequenced in
/// predecessor order; the producer instance per input is chosen by nominal
/// arrival (consistent with sim::simulate_contended).
double port_aware_start(const ScheduleBuilder& builder, TaskId v, ProcId q, Ports& ports,
                        bool commit) {
    const Problem& problem = builder.problem();
    const Dag& dag = problem.dag();
    const LinkModel& links = problem.machine().links();
    double ready = 0.0;
    for (const AdjEdge& e : dag.predecessors(v)) {
        double best_nominal = std::numeric_limits<double>::infinity();
        double best_finish = 0.0;
        ProcId best_src = q;
        for (const Placement& pl : builder.placements(e.task)) {
            const double nominal = pl.finish + links.comm_time(e.data, pl.proc, q);
            if (nominal < best_nominal) {
                best_nominal = nominal;
                best_finish = pl.finish;
                best_src = pl.proc;
            }
        }
        double arrival = 0.0;
        if (best_src == q) {
            arrival = best_finish;
        } else {
            const double dur = links.comm_time(e.data, best_src, q);
            const double start = std::max({best_finish,
                                           ports.send_free[static_cast<std::size_t>(best_src)],
                                           ports.recv_free[static_cast<std::size_t>(q)]});
            arrival = start + dur;
            ports.send_free[static_cast<std::size_t>(best_src)] = arrival;
            ports.recv_free[static_cast<std::size_t>(q)] = arrival;
        }
        ready = std::max(ready, arrival);
    }
    (void)commit;  // commit is expressed through which Ports object is passed
    return std::max(ready, builder.proc_available(q));
}
}  // namespace

Schedule CaHeftScheduler::schedule(const Problem& problem) const {
    const std::size_t procs = problem.num_procs();
    const auto ranks = upward_rank(problem, RankCost::kMean);

    ScheduleBuilder builder(problem);
    Ports ports{std::vector<double>(procs, 0.0), std::vector<double>(procs, 0.0)};
    for (const TaskId v : order_by_decreasing(ranks)) {
        ProcId best_proc = 0;
        double best_eft = std::numeric_limits<double>::infinity();
        for (std::size_t pi = 0; pi < procs; ++pi) {
            const auto p = static_cast<ProcId>(pi);
            Ports scratch = ports;  // evaluation must not book ports
            const double start = port_aware_start(builder, v, p, scratch, false);
            const double eft = start + problem.exec_time(v, p);
            if (eft < best_eft) {
                best_eft = eft;
                best_proc = p;
            }
        }
        const double start = port_aware_start(builder, v, best_proc, ports, true);
        builder.place_at(v, best_proc, start);
    }
    return std::move(builder).take();
}

}  // namespace tsched
