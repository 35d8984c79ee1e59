#include "sched/cpop.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <vector>

#include "obs/obs.hpp"
#include "sched/builder.hpp"
#include "sched/ranks.hpp"
#include "trace/decision.hpp"

namespace tsched {

Schedule CpopScheduler::schedule(const Problem& problem) const { return run(problem, nullptr); }

Schedule CpopScheduler::schedule_traced(const Problem& problem, trace::TraceSink* sink) const {
    return run(problem, sink);
}

Schedule CpopScheduler::run(const Problem& problem, trace::TraceSink* sink) const {
    TSCHED_OBS_PHASE("sched/cpop_ms");
    const Dag& dag = problem.dag();
    const std::size_t n = problem.num_tasks();
    const auto ru = upward_rank(problem, RankCost::kMean);
    const auto rd = downward_rank(problem, RankCost::kMean);

    std::vector<double> priority(n);
    for (std::size_t v = 0; v < n; ++v) priority[v] = ru[v] + rd[v];
    const double cp_len = n > 0 ? *std::max_element(priority.begin(), priority.end()) : 0.0;
    const double eps = 1e-9 * std::max(1.0, cp_len);

    // Walk one critical path from an entry task whose priority equals |CP|.
    std::vector<bool> on_cp(n, false);
    TaskId cur = kInvalidTask;
    for (const TaskId v : dag.sources()) {
        if (std::abs(priority[static_cast<std::size_t>(v)] - cp_len) <= eps) {
            cur = v;
            break;
        }
    }
    while (cur != kInvalidTask) {
        on_cp[static_cast<std::size_t>(cur)] = true;
        TaskId next = kInvalidTask;
        for (const AdjEdge& e : dag.successors(cur)) {
            if (std::abs(priority[static_cast<std::size_t>(e.task)] - cp_len) <= eps) {
                next = e.task;
                break;
            }
        }
        cur = next;
    }

    // The CP processor minimises the path's total execution time.
    ProcId cp_proc = 0;
    double best_total = std::numeric_limits<double>::infinity();
    for (std::size_t p = 0; p < problem.num_procs(); ++p) {
        double total = 0.0;
        for (std::size_t v = 0; v < n; ++v) {
            if (on_cp[v]) total += problem.exec_time(static_cast<TaskId>(v),
                                                     static_cast<ProcId>(p));
        }
        if (total < best_total) {
            best_total = total;
            cp_proc = static_cast<ProcId>(p);
        }
    }

    // Ready-list scheduling by decreasing priority.
    ScheduleBuilder builder(problem);
    auto cmp = [&](TaskId a, TaskId b) {
        const double pa = priority[static_cast<std::size_t>(a)];
        const double pb = priority[static_cast<std::size_t>(b)];
        if (pa != pb) return pa < pb;  // max-heap on priority
        return a > b;
    };
    std::priority_queue<TaskId, std::vector<TaskId>, decltype(cmp)> ready(cmp);
    std::vector<std::size_t> pending(n);
    for (std::size_t v = 0; v < n; ++v) {
        pending[v] = dag.in_degree(static_cast<TaskId>(v));
        if (pending[v] == 0) ready.push(static_cast<TaskId>(v));
    }
    while (!ready.empty()) {
        const TaskId v = ready.top();
        ready.pop();
        trace::DecisionRecord rec;
        if (on_cp[static_cast<std::size_t>(v)]) {
            const double eft = sink != nullptr ? builder.eft(v, cp_proc, true) : 0.0;
            const Placement pl = builder.place(v, cp_proc, /*insertion=*/true);
            if (sink != nullptr) {
                rec.candidates.push_back(
                    {cp_proc, eft - problem.exec_time(v, cp_proc), eft, 0.0, eft});
                rec.reason = "critical-path task, pinned to CP processor P" +
                             std::to_string(cp_proc);
                rec.chosen = cp_proc;
                rec.start = pl.start;
                rec.finish = pl.finish;
            }
        } else {
            ProcId best_proc = 0;
            double best_eft = builder.eft(v, 0, true);
            if (sink != nullptr) {
                rec.candidates.push_back(
                    {0, best_eft - problem.exec_time(v, 0), best_eft, 0.0, best_eft});
            }
            for (std::size_t p = 1; p < problem.num_procs(); ++p) {
                const double candidate = builder.eft(v, static_cast<ProcId>(p), true);
                if (sink != nullptr) {
                    rec.candidates.push_back(
                        {static_cast<ProcId>(p),
                         candidate - problem.exec_time(v, static_cast<ProcId>(p)), candidate,
                         0.0, candidate});
                }
                if (candidate < best_eft) {
                    best_eft = candidate;
                    best_proc = static_cast<ProcId>(p);
                }
            }
            const Placement pl = builder.place(v, best_proc, true);
            if (sink != nullptr) {
                rec.reason = "min EFT (insertion)";
                rec.chosen = best_proc;
                rec.start = pl.start;
                rec.finish = pl.finish;
            }
        }
        if (sink != nullptr) {
            rec.task = v;
            rec.rank = priority[static_cast<std::size_t>(v)];
            sink->record(std::move(rec));
        }
        for (const AdjEdge& e : dag.successors(v)) {
            if (--pending[static_cast<std::size_t>(e.task)] == 0) ready.push(e.task);
        }
    }
    return std::move(builder).take();
}

}  // namespace tsched
