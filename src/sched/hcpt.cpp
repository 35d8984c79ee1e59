#include "sched/hcpt.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "graph/algorithms.hpp"
#include "sched/builder.hpp"
#include "sched/ranks.hpp"

namespace tsched {

Schedule HcptScheduler::schedule(const Problem& problem) const {
    const Dag& dag = problem.dag();
    const std::size_t n = problem.num_tasks();

    // Each task's mean execution cost, folded once: mean_exec is O(P).
    std::vector<double> mean_w(n);
    for (std::size_t v = 0; v < n; ++v) mean_w[v] = problem.mean_exec(static_cast<TaskId>(v));

    // AEST: earliest start under mean execution + mean communication costs.
    std::vector<double> aest(n, 0.0);
    const auto topo = topological_order(dag);
    for (const TaskId v : topo) {
        double start = 0.0;
        for (const AdjEdge& e : dag.predecessors(v)) {
            start = std::max(start, aest[static_cast<std::size_t>(e.task)] +
                                        mean_w[static_cast<std::size_t>(e.task)] +
                                        problem.mean_comm_data(e.data));
        }
        aest[static_cast<std::size_t>(v)] = start;
    }
    // ALST: latest start that keeps the mean-cost critical length.
    double horizon = 0.0;
    for (const TaskId v : dag.sinks()) {
        horizon = std::max(horizon, aest[static_cast<std::size_t>(v)] +
                                         mean_w[static_cast<std::size_t>(v)]);
    }
    std::vector<double> alst(n, 0.0);
    for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
        const TaskId v = *it;
        if (dag.out_degree(v) == 0) {
            alst[static_cast<std::size_t>(v)] = horizon - mean_w[static_cast<std::size_t>(v)];
            continue;
        }
        double latest = std::numeric_limits<double>::infinity();
        for (const AdjEdge& e : dag.successors(v)) {
            latest = std::min(latest, alst[static_cast<std::size_t>(e.task)] -
                                          problem.mean_comm_data(e.data));
        }
        alst[static_cast<std::size_t>(v)] = latest - mean_w[static_cast<std::size_t>(v)];
    }

    // Critical tasks: zero slack (up to numeric noise).
    const double eps = 1e-9 * std::max(1.0, horizon);
    std::vector<TaskId> critical;
    for (std::size_t v = 0; v < n; ++v) {
        if (std::abs(alst[v] - aest[v]) <= eps) critical.push_back(static_cast<TaskId>(v));
    }
    // Push in decreasing ALST so the stack top is the smallest-ALST critical
    // task (the chain head), matching the paper's listing order.
    std::sort(critical.begin(), critical.end(), [&](TaskId a, TaskId b) {
        const double la = alst[static_cast<std::size_t>(a)];
        const double lb = alst[static_cast<std::size_t>(b)];
        if (la != lb) return la > lb;
        return a > b;
    });

    std::vector<TaskId> listing;
    listing.reserve(n);
    std::vector<std::uint8_t> listed(n, 0);
    std::vector<TaskId> stack(critical.begin(), critical.end());
    auto unlisted_parent = [&](TaskId v) -> TaskId {
        TaskId best = kInvalidTask;
        for (const AdjEdge& e : dag.predecessors(v)) {
            if (listed[static_cast<std::size_t>(e.task)]) continue;
            if (best == kInvalidTask ||
                alst[static_cast<std::size_t>(e.task)] < alst[static_cast<std::size_t>(best)] ||
                (alst[static_cast<std::size_t>(e.task)] == alst[static_cast<std::size_t>(best)] &&
                 e.task < best)) {
                best = e.task;
            }
        }
        return best;
    };
    while (!stack.empty()) {
        const TaskId top = stack.back();
        if (listed[static_cast<std::size_t>(top)]) {
            stack.pop_back();
            continue;
        }
        const TaskId parent = unlisted_parent(top);
        if (parent != kInvalidTask) {
            stack.push_back(parent);
        } else {
            listed[static_cast<std::size_t>(top)] = 1;
            listing.push_back(top);
            stack.pop_back();
        }
    }
    // Non-critical tasks unreachable from the critical parent trees (possible
    // in disconnected graphs): append in topological order.
    for (const TaskId v : topo) {
        if (!listed[static_cast<std::size_t>(v)]) listing.push_back(v);
    }

    ScheduleBuilder builder(problem);
    for (const TaskId v : listing) {
        ProcId best_proc = 0;
        double best_eft = builder.eft(v, 0, true);
        for (std::size_t p = 1; p < problem.num_procs(); ++p) {
            const double candidate = builder.eft(v, static_cast<ProcId>(p), true);
            if (candidate < best_eft) {
                best_eft = candidate;
                best_proc = static_cast<ProcId>(p);
            }
        }
        builder.place(v, best_proc, true);
    }
    return std::move(builder).take();
}

}  // namespace tsched
