#include "graph/algorithms.hpp"

#include <algorithm>
#include <queue>
#include <stdexcept>

namespace tsched {

std::vector<TaskId> topological_order(const Dag& dag) {
    const std::size_t n = dag.num_tasks();
    std::vector<std::size_t> in_deg(n);
    // Min-heap on TaskId makes the order deterministic and independent of
    // edge insertion order.
    std::priority_queue<TaskId, std::vector<TaskId>, std::greater<>> ready;
    for (std::size_t i = 0; i < n; ++i) {
        in_deg[i] = dag.in_degree(static_cast<TaskId>(i));
        if (in_deg[i] == 0) ready.push(static_cast<TaskId>(i));
    }
    std::vector<TaskId> order;
    order.reserve(n);
    while (!ready.empty()) {
        const TaskId v = ready.top();
        ready.pop();
        order.push_back(v);
        for (const AdjEdge& e : dag.successors(v)) {
            if (--in_deg[static_cast<std::size_t>(e.task)] == 0) ready.push(e.task);
        }
    }
    if (order.size() != n) throw std::invalid_argument("topological_order: graph has a cycle");
    return order;
}

std::vector<int> top_levels(const Dag& dag) {
    std::vector<int> level(dag.num_tasks(), 0);
    for (const TaskId v : topological_order(dag)) {
        for (const AdjEdge& e : dag.successors(v)) {
            auto& lv = level[static_cast<std::size_t>(e.task)];
            lv = std::max(lv, level[static_cast<std::size_t>(v)] + 1);
        }
    }
    return level;
}

std::vector<int> bottom_levels(const Dag& dag) {
    std::vector<int> level(dag.num_tasks(), 0);
    const auto order = topological_order(dag);
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
        for (const AdjEdge& e : dag.successors(*it)) {
            auto& lv = level[static_cast<std::size_t>(*it)];
            lv = std::max(lv, level[static_cast<std::size_t>(e.task)] + 1);
        }
    }
    return level;
}

int height(const Dag& dag) {
    if (dag.empty()) return 0;
    const auto levels = top_levels(dag);
    return *std::max_element(levels.begin(), levels.end()) + 1;
}

namespace {
/// Longest-path distance to a sink for every task (work on nodes, optional
/// data on edges), plus the successor chosen on that longest path.
struct LongestPaths {
    std::vector<double> dist;   // dist[v] includes work(v)
    std::vector<TaskId> next;   // successor on the longest path, or kInvalidTask
};

LongestPaths longest_paths_to_sink(const Dag& dag, bool include_edge_data) {
    LongestPaths lp;
    lp.dist.assign(dag.num_tasks(), 0.0);
    lp.next.assign(dag.num_tasks(), kInvalidTask);
    const auto order = topological_order(dag);
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
        const TaskId v = *it;
        double best = 0.0;
        TaskId best_next = kInvalidTask;
        for (const AdjEdge& e : dag.successors(v)) {
            const double via = (include_edge_data ? e.data : 0.0) +
                               lp.dist[static_cast<std::size_t>(e.task)];
            if (via > best || (via == best && best_next != kInvalidTask && e.task < best_next)) {
                best = via;
                best_next = e.task;
            }
        }
        lp.dist[static_cast<std::size_t>(v)] = dag.work(v) + best;
        lp.next[static_cast<std::size_t>(v)] = best_next;
    }
    return lp;
}
}  // namespace

double critical_path_length(const Dag& dag, bool include_edge_data) {
    if (dag.empty()) return 0.0;
    const auto lp = longest_paths_to_sink(dag, include_edge_data);
    return *std::max_element(lp.dist.begin(), lp.dist.end());
}

std::vector<TaskId> critical_path(const Dag& dag, bool include_edge_data) {
    if (dag.empty()) return {};
    const auto lp = longest_paths_to_sink(dag, include_edge_data);
    TaskId start = 0;
    for (std::size_t i = 1; i < lp.dist.size(); ++i) {
        if (lp.dist[i] > lp.dist[static_cast<std::size_t>(start)]) {
            start = static_cast<TaskId>(i);
        }
    }
    std::vector<TaskId> path;
    for (TaskId v = start; v != kInvalidTask; v = lp.next[static_cast<std::size_t>(v)]) {
        path.push_back(v);
    }
    return path;
}

Closure transitive_closure(const Dag& dag) {
    const std::size_t n = dag.num_tasks();
    // Row-per-task bitset over 64-bit words; process in reverse topological
    // order so each row is the union of successor rows.
    const std::size_t words = (n + 63) / 64;
    Closure closure;
    closure.words_ = words;
    std::vector<std::uint64_t>& bits = closure.bits_;
    bits.assign(n * words, 0);
    const auto order = topological_order(dag);
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
        const auto v = static_cast<std::size_t>(*it);
        for (const AdjEdge& e : dag.successors(*it)) {
            const auto s = static_cast<std::size_t>(e.task);
            bits[v * words + s / 64] |= (1ULL << (s % 64));
            for (std::size_t w = 0; w < words; ++w) bits[v * words + w] |= bits[s * words + w];
        }
    }
    return closure;
}

bool reaches(const Dag& dag, TaskId u, TaskId v) {
    if (u == v) return false;
    std::vector<std::uint8_t> seen(dag.num_tasks(), 0);
    std::vector<TaskId> stack{u};
    seen[static_cast<std::size_t>(u)] = 1;
    while (!stack.empty()) {
        const TaskId cur = stack.back();
        stack.pop_back();
        for (const AdjEdge& e : dag.successors(cur)) {
            if (e.task == v) return true;
            if (!seen[static_cast<std::size_t>(e.task)]) {
                seen[static_cast<std::size_t>(e.task)] = 1;
                stack.push_back(e.task);
            }
        }
    }
    return false;
}

Dag transitive_reduction(const Dag& dag) {
    const std::size_t n = dag.num_tasks();
    const auto closure = transitive_closure(dag);
    DagBuilder out;
    for (std::size_t i = 0; i < n; ++i) {
        out.add_task(dag.work(static_cast<TaskId>(i)), dag.name(static_cast<TaskId>(i)));
    }
    for (std::size_t u = 0; u < n; ++u) {
        for (const AdjEdge& e : dag.successors(static_cast<TaskId>(u))) {
            // u -> e.task is redundant iff some other successor w of u
            // reaches e.task.
            bool redundant = false;
            for (const AdjEdge& other : dag.successors(static_cast<TaskId>(u))) {
                if (other.task == e.task) continue;
                if (closure.reaches(other.task, e.task)) {
                    redundant = true;
                    break;
                }
            }
            if (!redundant) out.add_edge(static_cast<TaskId>(u), e.task, e.data);
        }
    }
    return std::move(out).build();
}

std::size_t weakly_connected_components(const Dag& dag) {
    const std::size_t n = dag.num_tasks();
    std::vector<std::uint8_t> seen(n, 0);
    std::size_t components = 0;
    std::vector<TaskId> stack;
    for (std::size_t start = 0; start < n; ++start) {
        if (seen[start]) continue;
        ++components;
        seen[start] = 1;
        stack.push_back(static_cast<TaskId>(start));
        while (!stack.empty()) {
            const TaskId v = stack.back();
            stack.pop_back();
            auto visit = [&](TaskId w) {
                if (!seen[static_cast<std::size_t>(w)]) {
                    seen[static_cast<std::size_t>(w)] = 1;
                    stack.push_back(w);
                }
            };
            for (const AdjEdge& e : dag.successors(v)) visit(e.task);
            for (const AdjEdge& e : dag.predecessors(v)) visit(e.task);
        }
    }
    return components;
}

namespace {
std::vector<TaskId> closure_from(const Dag& dag, TaskId v, bool forward) {
    std::vector<std::uint8_t> seen(dag.num_tasks(), 0);
    std::vector<TaskId> stack{v};
    std::vector<TaskId> out;
    while (!stack.empty()) {
        const TaskId cur = stack.back();
        stack.pop_back();
        const auto adj = forward ? dag.successors(cur) : dag.predecessors(cur);
        for (const AdjEdge& e : adj) {
            if (!seen[static_cast<std::size_t>(e.task)]) {
                seen[static_cast<std::size_t>(e.task)] = 1;
                out.push_back(e.task);
                stack.push_back(e.task);
            }
        }
    }
    std::sort(out.begin(), out.end());
    return out;
}
}  // namespace

std::vector<TaskId> ancestors(const Dag& dag, TaskId v) { return closure_from(dag, v, false); }
std::vector<TaskId> descendants(const Dag& dag, TaskId v) { return closure_from(dag, v, true); }

}  // namespace tsched
