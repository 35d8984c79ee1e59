#include "sched/lookahead_heft.hpp"

#include <algorithm>
#include <limits>

#include "obs/obs.hpp"
#include "sched/builder.hpp"
#include "sched/ranks.hpp"
#include "trace/decision.hpp"
#include "util/stopwatch.hpp"

namespace tsched {

Schedule LookaheadHeftScheduler::schedule(const Problem& problem) const {
    return run(problem, nullptr);
}

Schedule LookaheadHeftScheduler::schedule_traced(const Problem& problem,
                                                 trace::TraceSink* sink) const {
    return run(problem, sink);
}

Schedule LookaheadHeftScheduler::run(const Problem& problem, trace::TraceSink* sink) const {
    TSCHED_OBS_PHASE("sched/lheft_ms");
    const CsrAdjacency& csr = problem.dag().csr();
    const std::size_t procs = problem.num_procs();
    const auto ranks = upward_rank(problem, RankCost::kMean);
    std::vector<TaskId> order;
    {
        TSCHED_OBS_PHASE("sched/phase/priority_ms");
        order = order_by_decreasing(ranks);
    }

    const LinkModel& links = problem.machine().links();

    ScheduleBuilder builder(problem);
    // Per-task scratch: data-ready of each child on each processor from its
    // *other* (already placed) predecessors.  Those arrivals do not depend
    // on where v is tried, so they are computed once per task instead of
    // once per candidate; only v's own arrival varies with the trial
    // placement (max is commutative, so folding it in afterwards gives the
    // same value data_ready_partial would).
    std::vector<double> base_ready;
    // Selection (lookahead trials) and placement (the final commit)
    // accumulate across the run into one histogram sample each, the same
    // boundary-timestamp pattern as HEFT: two clock reads per task.
    double selection_ms = 0.0;
    double placement_ms = 0.0;
    const Stopwatch loop_watch;
    double boundary_ms = 0.0;
    for (const TaskId v : order) {
        const auto succs = csr.succ_tasks(v);
        const auto succ_data = csr.succ_data(v);
        base_ready.assign(succs.size() * procs, 0.0);
        for (std::size_t ci = 0; ci < succs.size(); ++ci) {
            for (std::size_t qi = 0; qi < procs; ++qi) {
                base_ready[ci * procs + qi] =
                    builder.data_ready_partial(succs[ci], static_cast<ProcId>(qi));
            }
        }

        trace::DecisionRecord rec;
        ProcId best_proc = 0;
        double best_score = std::numeric_limits<double>::infinity();
        double best_eft = std::numeric_limits<double>::infinity();
        for (std::size_t pi = 0; pi < procs; ++pi) {
            const auto p = static_cast<ProcId>(pi);
            // Tentatively commit v on p, probe the children, roll back —
            // no per-candidate clone of the schedule state.
            const ScheduleBuilder::Checkpoint mark = builder.checkpoint();
            const Placement pl = builder.place(v, p, /*insertion=*/true);
            // Score: the worst over v's children of their best achievable
            // EFT given this tentative placement; childless tasks score by
            // their own finish.
            double score = pl.finish;
            for (std::size_t ci = 0; ci < succs.size(); ++ci) {
                double child_best = std::numeric_limits<double>::infinity();
                for (std::size_t qi = 0; qi < procs; ++qi) {
                    const auto q = static_cast<ProcId>(qi);
                    const double arrival = pl.finish + links.comm_time(succ_data[ci], p, q);
                    const double ready = std::max(base_ready[ci * procs + qi], arrival);
                    const double w = problem.exec_time(succs[ci], q);
                    const double est = builder.earliest_start(q, ready, w, true);
                    child_best = std::min(child_best, est + w);
                }
                score = std::max(score, child_best);
            }
            builder.rollback(mark);
            if (sink != nullptr) {
                // The lookahead score (worst child EFT after tentatively
                // committing v here) is what the selection minimises; the
                // bias column shows how much of it comes from the children.
                rec.candidates.push_back({p, pl.start, pl.finish, score - pl.finish, score});
            }
            if (score < best_score ||
                (score == best_score && pl.finish < best_eft)) {
                best_score = score;
                best_eft = pl.finish;
                best_proc = p;
            }
        }
        const double select_end_ms = loop_watch.elapsed_ms();
        selection_ms += select_end_ms - boundary_ms;
        const Placement pl = builder.place(v, best_proc, true);
        boundary_ms = loop_watch.elapsed_ms();
        placement_ms += boundary_ms - select_end_ms;
        if (sink != nullptr) {
            rec.task = v;
            rec.rank = ranks[static_cast<std::size_t>(v)];
            rec.chosen = best_proc;
            rec.start = pl.start;
            rec.finish = pl.finish;
            rec.reason = "min worst-child lookahead EFT, ties by own EFT";
            sink->record(std::move(rec));
        }
    }
    TSCHED_OBS_RECORD("sched/phase/selection_ms", selection_ms);
    TSCHED_OBS_RECORD("sched/phase/placement_ms", placement_ms);
    return std::move(builder).take();
}

}  // namespace tsched
