// Pure-structure DAG algorithms shared by generators, schedulers and metrics.
//
// Algorithms here operate only on the graph (work/data weights), never on a
// platform: cost-model-aware quantities (upward rank, SLR lower bound, ...)
// live in sched/ and metrics/.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/dag.hpp"

namespace tsched {

/// Deterministic topological order (Kahn, ties broken by ascending TaskId).
/// Throws std::invalid_argument if the graph has a cycle.
[[nodiscard]] std::vector<TaskId> topological_order(const Dag& dag);

/// top_level[v] = length of the longest edge-count path from any source to v
/// (sources have level 0).
[[nodiscard]] std::vector<int> top_levels(const Dag& dag);

/// bottom_level[v] = length of the longest edge-count path from v to any sink
/// (sinks have level 0).
[[nodiscard]] std::vector<int> bottom_levels(const Dag& dag);

/// Height of the DAG: number of node layers on the longest path (empty -> 0).
[[nodiscard]] int height(const Dag& dag);

/// Weighted longest path from any source to any sink, counting task work on
/// nodes and, when `include_edge_data` is set, data volumes on edges.
/// This is the classic "critical path" of the abstract graph.
[[nodiscard]] double critical_path_length(const Dag& dag, bool include_edge_data);

/// Tasks of one longest (work + optional data) path, source to sink order.
[[nodiscard]] std::vector<TaskId> critical_path(const Dag& dag, bool include_edge_data);

/// Transitive closure of a Dag, one bit per ordered task pair (a row of
/// 64-bit words per task).
class Closure {
public:
    /// True iff there is a directed path u ->* v (u != v).
    [[nodiscard]] bool reaches(TaskId u, TaskId v) const noexcept {
        const auto vi = static_cast<std::size_t>(v);
        return ((bits_[static_cast<std::size_t>(u) * words_ + vi / 64] >> (vi % 64)) & 1U) != 0;
    }

    friend bool operator==(const Closure&, const Closure&) = default;

private:
    friend Closure transitive_closure(const Dag& dag);

    std::size_t words_ = 0;            // per row: ceil(n / 64)
    std::vector<std::uint64_t> bits_;  // n rows
};

/// Bit-packed transitive closure; O(n * m / 64).
[[nodiscard]] Closure transitive_closure(const Dag& dag);

/// True iff there is a directed path u ->* v (u != v) — one-off query,
/// O(n + m) DFS; use transitive_closure for many queries.
[[nodiscard]] bool reaches(const Dag& dag, TaskId u, TaskId v);

/// Copy of `dag` with every transitively redundant edge removed (edge u->v is
/// redundant when a longer path u ->* v exists).  Task ids and weights are
/// preserved; removed edges' data is dropped.
[[nodiscard]] Dag transitive_reduction(const Dag& dag);

/// Number of weakly connected components.
[[nodiscard]] std::size_t weakly_connected_components(const Dag& dag);

/// All ancestors of v (excluding v), ascending by id.
[[nodiscard]] std::vector<TaskId> ancestors(const Dag& dag, TaskId v);

/// All descendants of v (excluding v), ascending by id.
[[nodiscard]] std::vector<TaskId> descendants(const Dag& dag, TaskId v);

}  // namespace tsched
