// Task-graph container.
//
// A Dag models an application as a directed acyclic graph: nodes are tasks
// carrying an abstract work amount (scaled into per-processor execution times
// by the platform's cost matrix), edges carry the data volume communicated
// from producer to consumer (scaled into communication times by the
// platform's link model).
//
// The container is append-only (tasks and edges can be added, never removed)
// which keeps TaskIds stable; structural transformations (e.g. transitive
// reduction) produce new Dags.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "util/thread_annotations.hpp"

namespace tsched {

/// Dense task index; valid ids are [0, num_tasks).
using TaskId = std::int32_t;
inline constexpr TaskId kInvalidTask = -1;

/// One adjacency entry: the neighbour task and the data volume on the edge.
struct AdjEdge {
    TaskId task = kInvalidTask;
    double data = 0.0;

    friend bool operator==(const AdjEdge&, const AdjEdge&) = default;
};

class Dag;

/// Struct-of-arrays adjacency snapshot of a Dag (compressed sparse row, both
/// directions).  The per-node `std::vector<AdjEdge>` layout costs one pointer
/// chase per node; at 10k+ tasks those misses dominate the rank and
/// data-ready sweeps, so the hot paths (ranks, ScheduleBuilder, the
/// simulator) iterate this flat view instead.  Edge order within each node
/// matches the Dag's insertion order exactly — rank and data-ready folds are
/// floating-point max/min reductions whose results depend on operand order,
/// and byte-identical schedules require the same order the AdjEdge walk used.
///
/// Accessors do no bounds checking: ids must be in [0, num_tasks), which
/// every consumer guarantees by iterating the snapshot it was built from.
class CsrAdjacency {
public:
    CsrAdjacency() = default;
    /// Snapshot the current adjacency of `dag` (O(n + m)).
    explicit CsrAdjacency(const Dag& dag);

    [[nodiscard]] std::size_t num_tasks() const noexcept { return num_tasks_; }
    [[nodiscard]] std::size_t num_edges() const noexcept { return succ_task_.size(); }

    [[nodiscard]] std::span<const TaskId> succ_tasks(TaskId v) const noexcept {
        const auto vi = static_cast<std::size_t>(v);
        return {succ_task_.data() + succ_off_[vi], succ_off_[vi + 1] - succ_off_[vi]};
    }
    [[nodiscard]] std::span<const double> succ_data(TaskId v) const noexcept {
        const auto vi = static_cast<std::size_t>(v);
        return {succ_data_.data() + succ_off_[vi], succ_off_[vi + 1] - succ_off_[vi]};
    }
    [[nodiscard]] std::span<const TaskId> pred_tasks(TaskId v) const noexcept {
        const auto vi = static_cast<std::size_t>(v);
        return {pred_task_.data() + pred_off_[vi], pred_off_[vi + 1] - pred_off_[vi]};
    }
    [[nodiscard]] std::span<const double> pred_data(TaskId v) const noexcept {
        const auto vi = static_cast<std::size_t>(v);
        return {pred_data_.data() + pred_off_[vi], pred_off_[vi + 1] - pred_off_[vi]};
    }

    [[nodiscard]] std::size_t out_degree(TaskId v) const noexcept {
        const auto vi = static_cast<std::size_t>(v);
        return succ_off_[vi + 1] - succ_off_[vi];
    }
    [[nodiscard]] std::size_t in_degree(TaskId v) const noexcept {
        const auto vi = static_cast<std::size_t>(v);
        return pred_off_[vi + 1] - pred_off_[vi];
    }

private:
    std::size_t num_tasks_ = 0;
    std::vector<std::size_t> succ_off_;  // n + 1 offsets into succ_task_/succ_data_
    std::vector<std::size_t> pred_off_;  // n + 1 offsets into pred_task_/pred_data_
    std::vector<TaskId> succ_task_;
    std::vector<TaskId> pred_task_;
    std::vector<double> succ_data_;
    std::vector<double> pred_data_;
};

class Dag {
public:
    Dag() = default;
    /// Pre-create `n` tasks with unit work and empty names.
    explicit Dag(std::size_t n) { tasks_.resize(n); }

    // The lazily built CSR cache travels with neither copies nor moves (the
    // destination rebuilds it on first use); both are otherwise the same
    // member-wise operations the compiler used to generate.
    Dag(const Dag& other) : tasks_(other.tasks_), num_edges_(other.num_edges_) {}
    Dag(Dag&& other) noexcept
        : tasks_(std::move(other.tasks_)), num_edges_(other.num_edges_) {}
    Dag& operator=(const Dag& other);
    Dag& operator=(Dag&& other) noexcept;
    ~Dag() = default;

    /// Add a task; returns its id. `work` is the abstract computation amount.
    TaskId add_task(double work = 1.0, std::string name = {});

    /// Add a directed edge u -> v carrying `data` volume.
    /// Throws std::invalid_argument on out-of-range ids, self-loops, or
    /// duplicate edges. Cycle creation is detected lazily by validate().
    void add_edge(TaskId u, TaskId v, double data = 0.0);

    [[nodiscard]] std::size_t num_tasks() const noexcept { return tasks_.size(); }
    [[nodiscard]] std::size_t num_edges() const noexcept { return num_edges_; }
    [[nodiscard]] bool empty() const noexcept { return tasks_.empty(); }

    [[nodiscard]] double work(TaskId v) const { return tasks_.at(check(v)).work; }
    void set_work(TaskId v, double w) { tasks_.at(check(v)).work = w; }

    [[nodiscard]] const std::string& name(TaskId v) const { return tasks_.at(check(v)).name; }
    void set_name(TaskId v, std::string name) { tasks_.at(check(v)).name = std::move(name); }

    /// Successors of v with edge data, in insertion order.
    [[nodiscard]] std::span<const AdjEdge> successors(TaskId v) const {
        return tasks_.at(check(v)).succs;
    }
    /// Predecessors of v with edge data, in insertion order.
    [[nodiscard]] std::span<const AdjEdge> predecessors(TaskId v) const {
        return tasks_.at(check(v)).preds;
    }

    [[nodiscard]] std::size_t out_degree(TaskId v) const { return successors(v).size(); }
    [[nodiscard]] std::size_t in_degree(TaskId v) const { return predecessors(v).size(); }

    /// Flat struct-of-arrays adjacency view, built lazily on first call and
    /// cached until the next mutation (add_task/add_edge/set_edge_data/
    /// scale_edge_data).
    /// Concurrent csr() calls on a const Dag are safe; the returned reference
    /// is invalidated by any mutation, exactly like the successors() spans.
    [[nodiscard]] const CsrAdjacency& csr() const TSCHED_EXCLUDES(csr_mutex_);

    [[nodiscard]] bool has_edge(TaskId u, TaskId v) const;
    /// Data volume on edge u -> v; throws std::out_of_range if absent.
    [[nodiscard]] double edge_data(TaskId u, TaskId v) const;
    /// Overwrite the data volume of an existing edge; throws
    /// std::out_of_range if absent.
    void set_edge_data(TaskId u, TaskId v, double data);
    /// Multiply every edge's data volume by `factor` in one sweep (the CCR
    /// calibration in workload/) — exactly the value
    /// set_edge_data(u, v, data * factor) would store per edge.
    /// Throws std::invalid_argument (leaving the Dag unchanged) when
    /// `factor` is negative or non-finite or a scaled volume overflows.
    void scale_edge_data(double factor);

    /// Tasks with no predecessors / successors, ascending by id.
    [[nodiscard]] std::vector<TaskId> sources() const;
    [[nodiscard]] std::vector<TaskId> sinks() const;

    /// Sum of all task work / all edge data.
    [[nodiscard]] double total_work() const noexcept;
    [[nodiscard]] double total_data() const noexcept;

    /// True when the edge set is acyclic (a Dag built only through add_edge
    /// can still encode a cycle; generators call this as a postcondition).
    [[nodiscard]] bool is_acyclic() const;

    /// Check invariants (acyclicity, non-negative work/data); returns an
    /// empty string when valid, otherwise a diagnostic.
    [[nodiscard]] std::string validate() const;

    friend bool operator==(const Dag& a, const Dag& b);

private:
    struct TaskNode {
        double work = 1.0;
        std::string name;
        std::vector<AdjEdge> succs;
        std::vector<AdjEdge> preds;
    };

    [[nodiscard]] std::size_t check(TaskId v) const;
    void invalidate_csr() TSCHED_EXCLUDES(csr_mutex_);

    std::vector<TaskNode> tasks_;
    std::size_t num_edges_ = 0;
    // Lazily built flat adjacency; csr_mutex_ serialises concurrent readers
    // racing to build it.  Mutators are single-threaded by contract, so they
    // need the lock only to reset a snapshot that exists: csr_built_ is set
    // under the lock when csr() builds one and cleared under it on reset,
    // letting a generator's thousands of add_task/add_edge calls on a
    // never-snapshotted Dag skip the lock entirely.
    mutable Mutex csr_mutex_;
    mutable std::unique_ptr<CsrAdjacency> csr_cache_ TSCHED_GUARDED_BY(csr_mutex_);
    mutable std::atomic<bool> csr_built_{false};
};

}  // namespace tsched
