#include "sched/heft.hpp"

#include "obs/obs.hpp"
#include "sched/builder.hpp"
#include "trace/decision.hpp"
#include "util/stopwatch.hpp"

namespace tsched {

std::string HeftScheduler::name() const {
    std::string n = "heft";
    if (rank_cost_ != RankCost::kMean) n += std::string("-") + rank_cost_name(rank_cost_);
    if (!insertion_) n += "-noins";
    return n;
}

Schedule HeftScheduler::schedule(const Problem& problem) const { return run(problem, nullptr); }

Schedule HeftScheduler::schedule_traced(const Problem& problem, trace::TraceSink* sink) const {
    return run(problem, sink);
}

Schedule HeftScheduler::run(const Problem& problem, trace::TraceSink* sink) const {
    TSCHED_OBS_PHASE("sched/heft_ms");
    ScheduleBuilder builder(problem);
    const auto ranks = upward_rank(problem, rank_cost_);
    std::vector<TaskId> order;
    {
        // Priority phase: the rank sort alone, so the rank / priority /
        // selection / placement histograms partition a run's wall time.
        TSCHED_OBS_PHASE("sched/phase/priority_ms");
        order = order_by_decreasing(ranks);
    }
    // Selection (EFT scans) and placement (builder commits) interleave per
    // task, so accumulate each across the run and record one histogram
    // sample per schedule() call — the distribution is over runs, matching
    // the rank-phase granularity.  One watch and two reads per task: the
    // running boundary timestamp splits the interval, halving the clock
    // reads of the naive two-watch pattern (measurable at n = 10k).
    double selection_ms = 0.0;
    double placement_ms = 0.0;
    const Stopwatch loop_watch;
    double boundary_ms = 0.0;
    for (const TaskId v : order) {
        trace::DecisionRecord rec;
        ProcId best_proc = 0;
        double best_eft = builder.eft(v, 0, insertion_);
        if (sink != nullptr) {
            rec.candidates.push_back(
                {0, best_eft - problem.exec_time(v, 0), best_eft, 0.0, best_eft});
        }
        for (std::size_t p = 1; p < problem.num_procs(); ++p) {
            const double candidate = builder.eft(v, static_cast<ProcId>(p), insertion_);
            if (sink != nullptr) {
                rec.candidates.push_back({static_cast<ProcId>(p),
                                          candidate - problem.exec_time(v, static_cast<ProcId>(p)),
                                          candidate, 0.0, candidate});
            }
            if (candidate < best_eft) {
                best_eft = candidate;
                best_proc = static_cast<ProcId>(p);
            }
        }
        const double select_end_ms = loop_watch.elapsed_ms();
        selection_ms += select_end_ms - boundary_ms;
        const Placement pl = builder.place(v, best_proc, insertion_);
        boundary_ms = loop_watch.elapsed_ms();
        placement_ms += boundary_ms - select_end_ms;
        if (sink != nullptr) {
            rec.task = v;
            rec.rank = ranks[static_cast<std::size_t>(v)];
            rec.chosen = best_proc;
            rec.start = pl.start;
            rec.finish = pl.finish;
            rec.reason = insertion_ ? "min EFT (insertion)" : "min EFT (append)";
            sink->record(std::move(rec));
        }
    }
    TSCHED_OBS_RECORD("sched/phase/selection_ms", selection_ms);
    TSCHED_OBS_RECORD("sched/phase/placement_ms", placement_ms);
    return std::move(builder).take();
}

}  // namespace tsched
