#include "sched/peft.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "obs/obs.hpp"
#include "sched/builder.hpp"
#include "sched/ranks.hpp"
#include "trace/decision.hpp"

namespace tsched {

Schedule PeftScheduler::schedule(const Problem& problem) const { return run(problem, nullptr); }

Schedule PeftScheduler::schedule_traced(const Problem& problem, trace::TraceSink* sink) const {
    return run(problem, sink);
}

Schedule PeftScheduler::run(const Problem& problem, trace::TraceSink* sink) const {
    TSCHED_OBS_PHASE("sched/peft_ms");
    const Dag& dag = problem.dag();
    const std::size_t n = problem.num_tasks();
    const std::size_t procs = problem.num_procs();
    const auto oct = optimistic_cost_table(problem);

    // rank_oct(v): mean of the task's OCT row.
    std::vector<double> rank(n, 0.0);
    for (std::size_t v = 0; v < n; ++v) {
        for (std::size_t p = 0; p < procs; ++p) rank[v] += oct[v * procs + p];
        rank[v] /= static_cast<double>(procs);
    }

    // Ready-list scheduling: rank_oct is not monotone along edges, so the
    // ready set (not a global order) drives the loop, as in the paper.
    ScheduleBuilder builder(problem);
    std::vector<std::size_t> pending(n);
    std::vector<TaskId> ready;
    for (std::size_t v = 0; v < n; ++v) {
        pending[v] = dag.in_degree(static_cast<TaskId>(v));
        if (pending[v] == 0) ready.push_back(static_cast<TaskId>(v));
    }
    while (!ready.empty()) {
        std::size_t best = 0;
        for (std::size_t i = 1; i < ready.size(); ++i) {
            const auto a = static_cast<std::size_t>(ready[i]);
            const auto b = static_cast<std::size_t>(ready[best]);
            if (rank[a] > rank[b] || (rank[a] == rank[b] && ready[i] < ready[best])) best = i;
        }
        const TaskId v = ready[best];
        ready.erase(ready.begin() + static_cast<std::ptrdiff_t>(best));

        trace::DecisionRecord rec;
        ProcId best_proc = 0;
        double best_score = std::numeric_limits<double>::infinity();
        for (std::size_t p = 0; p < procs; ++p) {
            const double eft = builder.eft(v, static_cast<ProcId>(p), true);
            const double bias = oct[static_cast<std::size_t>(v) * procs + p];
            const double score = eft + bias;
            if (sink != nullptr) {
                rec.candidates.push_back({static_cast<ProcId>(p),
                                          eft - problem.exec_time(v, static_cast<ProcId>(p)),
                                          eft, bias, score});
            }
            if (score < best_score) {
                best_score = score;
                best_proc = static_cast<ProcId>(p);
            }
        }
        const Placement pl = builder.place(v, best_proc, true);
        if (sink != nullptr) {
            rec.task = v;
            rec.rank = rank[static_cast<std::size_t>(v)];
            rec.chosen = best_proc;
            rec.start = pl.start;
            rec.finish = pl.finish;
            rec.reason = "min EFT+OCT (ready-list by mean OCT rank)";
            sink->record(std::move(rec));
        }
        for (const AdjEdge& e : dag.successors(v)) {
            if (--pending[static_cast<std::size_t>(e.task)] == 0) ready.push_back(e.task);
        }
    }
    return std::move(builder).take();
}

}  // namespace tsched
