#include "sched/optimal.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "graph/algorithms.hpp"
#include "sched/builder.hpp"
#include "sched/heft.hpp"

namespace tsched {

namespace {
constexpr double kTieEps = 1e-12;

struct SearchState {
    const Problem* problem = nullptr;
    std::vector<double> min_bottom_level;  // min-cost remaining chain incl. the task
    double min_work_total = 0.0;           // sum of per-task minimum costs
    double best_cost = std::numeric_limits<double>::infinity();
    Schedule best;
    std::size_t nodes = 0;
    std::size_t max_nodes = 0;
    bool truncated = false;

    explicit SearchState(const Problem& p)
        : problem(&p), best(p.num_tasks(), p.num_procs()) {}
};

/// Lower bound of any completion of the partial schedule in `builder` with
/// `done_work` committed busy time and `remaining_work` minimum cost of the
/// unscheduled tasks.
double lower_bound(const SearchState& state, const ScheduleBuilder& builder,
                   const std::vector<TaskId>& ready, double done_work, double remaining_work) {
    const Problem& problem = *state.problem;
    double bound = builder.current_makespan();
    // Capacity: all work must fit into P * makespan.
    bound = std::max(bound,
                     (done_work + remaining_work) / static_cast<double>(problem.num_procs()));
    // Chains: each ready task still needs its own minimum remaining path.
    for (const TaskId v : ready) {
        double start = std::numeric_limits<double>::infinity();
        for (std::size_t p = 0; p < problem.num_procs(); ++p) {
            start = std::min(start, builder.data_ready(v, static_cast<ProcId>(p)));
        }
        bound = std::max(bound, start + state.min_bottom_level[static_cast<std::size_t>(v)]);
    }
    return bound;
}

void search(SearchState& state, ScheduleBuilder& builder, std::vector<TaskId>& ready,
            std::vector<std::size_t>& pending, double done_work, double remaining_work) {
    const Problem& problem = *state.problem;
    if (state.truncated) return;
    if (++state.nodes > state.max_nodes) {
        state.truncated = true;
        return;
    }
    if (ready.empty()) {
        const double cost = builder.current_makespan();
        if (cost < state.best_cost - kTieEps) {
            state.best_cost = cost;
            state.best = builder.snapshot();
        }
        return;
    }
    if (lower_bound(state, builder, ready, done_work, remaining_work) >=
        state.best_cost - kTieEps) {
        return;  // cannot improve on the incumbent
    }

    // Branch over (ready task, processor); explore cheaper EFTs first so the
    // incumbent tightens quickly.
    struct Branch {
        std::size_t ready_idx;
        ProcId proc;
        double eft;
    };
    std::vector<Branch> branches;
    branches.reserve(ready.size() * problem.num_procs());
    for (std::size_t i = 0; i < ready.size(); ++i) {
        for (std::size_t p = 0; p < problem.num_procs(); ++p) {
            branches.push_back({i, static_cast<ProcId>(p),
                                builder.eft(ready[i], static_cast<ProcId>(p), false)});
        }
    }
    std::sort(branches.begin(), branches.end(), [](const Branch& a, const Branch& b) {
        if (a.eft != b.eft) return a.eft < b.eft;
        if (a.ready_idx != b.ready_idx) return a.ready_idx < b.ready_idx;
        return a.proc < b.proc;
    });

    const Dag& dag = problem.dag();
    for (const Branch& branch : branches) {
        if (state.truncated) return;
        const TaskId v = ready[branch.ready_idx];
        // Clone-and-commit: builders are value types, so backtracking is a
        // scope exit.  Fine at these instance sizes.
        ScheduleBuilder child = builder;
        const Placement pl = child.place(v, branch.proc, /*insertion=*/false);

        std::vector<TaskId> child_ready = ready;
        child_ready.erase(child_ready.begin() + static_cast<std::ptrdiff_t>(branch.ready_idx));
        for (const AdjEdge& e : dag.successors(v)) {
            if (--pending[static_cast<std::size_t>(e.task)] == 0) {
                child_ready.push_back(e.task);
            }
        }
        search(state, child, child_ready, pending,
               done_work + pl.duration(),
               remaining_work - problem.costs().min(v));
        for (const AdjEdge& e : dag.successors(v)) {
            ++pending[static_cast<std::size_t>(e.task)];
        }
    }
}
}  // namespace

BnbScheduler::Result BnbScheduler::solve(const Problem& problem) const {
    SearchState state(problem);
    state.max_nodes = max_nodes_;

    // Min-cost bottom levels (zero communication): valid remaining-chain
    // lower bounds for any placement.
    const Dag& dag = problem.dag();
    state.min_bottom_level.assign(problem.num_tasks(), 0.0);
    const auto order = topological_order(dag);
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
        const TaskId v = *it;
        double succ_best = 0.0;
        for (const AdjEdge& e : dag.successors(v)) {
            succ_best =
                std::max(succ_best, state.min_bottom_level[static_cast<std::size_t>(e.task)]);
        }
        state.min_bottom_level[static_cast<std::size_t>(v)] =
            problem.costs().min(v) + succ_best;
        state.min_work_total += problem.costs().min(v);
    }

    // Incumbent: HEFT (strong initial bound, and the fallback answer).
    state.best = HeftScheduler().schedule(problem);
    state.best_cost = state.best.makespan();

    ScheduleBuilder builder(problem);
    std::vector<std::size_t> pending(problem.num_tasks());
    std::vector<TaskId> ready;
    for (std::size_t v = 0; v < problem.num_tasks(); ++v) {
        pending[v] = dag.in_degree(static_cast<TaskId>(v));
        if (pending[v] == 0) ready.push_back(static_cast<TaskId>(v));
    }
    search(state, builder, ready, pending, 0.0, state.min_work_total);

    Result result{std::move(state.best), !state.truncated, state.nodes};
    return result;
}

Schedule BnbScheduler::schedule(const Problem& problem) const {
    return solve(problem).schedule;
}

}  // namespace tsched
