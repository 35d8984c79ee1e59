// Task-graph container.
//
// A Dag models an application as a directed acyclic graph: nodes are tasks
// carrying an abstract work amount (scaled into per-processor execution times
// by the platform's cost matrix), edges carry the data volume communicated
// from producer to consumer (scaled into communication times by the
// platform's link model).
//
// A Dag is built once by a DagBuilder and is structurally immutable after
// that: tasks and edges are fixed, which keeps TaskIds stable and lets the
// edges live in one compressed-sparse-row store.  Only values (work, names,
// edge volumes) can change afterwards.  Structural transformations (e.g.
// transitive reduction) build new Dags.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <vector>

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

/// One adjacency row (a task's successors or predecessors) as a read-only
/// range of AdjEdge values, read from the flat CSR arrays.  Edge volumes are
/// stored once, in successor order: a successor row reads them in place, a
/// predecessor row through its per-entry edge index.
class AdjRange {
public:
    class iterator {
    public:
        using value_type = AdjEdge;
        using difference_type = std::ptrdiff_t;
        using iterator_concept = std::forward_iterator_tag;

        iterator() = default;
        iterator(const TaskId* task, const double* data, const std::uint32_t* edge)
            : task_(task), data_(data), edge_(edge) {}

        AdjEdge operator*() const noexcept {
            return {*task_, edge_ == nullptr ? *data_ : data_[*edge_]};
        }
        iterator& operator++() noexcept {
            ++task_;
            if (edge_ == nullptr) {
                ++data_;
            } else {
                ++edge_;
            }
            return *this;
        }
        iterator operator++(int) noexcept {
            iterator old = *this;
            ++*this;
            return old;
        }
        friend bool operator==(const iterator& a, const iterator& b) noexcept {
            return a.task_ == b.task_;
        }

    private:
        const TaskId* task_ = nullptr;
        const double* data_ = nullptr;        // the row's volumes, or all volumes when edge_ is set
        const std::uint32_t* edge_ = nullptr;  // per-entry index into data_, or null
    };

    /// A row whose volumes are `data` itself, entry by entry.
    AdjRange(std::span<const TaskId> tasks, const double* data) noexcept
        : tasks_(tasks), data_(data) {}
    /// A row whose i-th volume is all_data[edge[i]].
    AdjRange(std::span<const TaskId> tasks, const double* all_data,
             const std::uint32_t* edge) noexcept
        : tasks_(tasks), data_(all_data), edge_(edge) {}

    [[nodiscard]] std::size_t size() const noexcept { return tasks_.size(); }
    [[nodiscard]] bool empty() const noexcept { return tasks_.empty(); }
    [[nodiscard]] AdjEdge operator[](std::size_t i) const noexcept {
        return {tasks_[i], edge_ == nullptr ? data_[i] : data_[edge_[i]]};
    }
    [[nodiscard]] iterator begin() const noexcept { return {tasks_.data(), data_, edge_}; }
    /// Iterators compare by task position only, so the end one keeps the bases.
    [[nodiscard]] iterator end() const noexcept {
        return {tasks_.data() + tasks_.size(), data_, edge_};
    }

private:
    std::span<const TaskId> tasks_;
    const double* data_ = nullptr;
    const std::uint32_t* edge_ = nullptr;
};

/// Most edges a Dag can hold: CSR offsets and edge indices are 32-bit.
inline constexpr std::size_t kMaxEdges = std::numeric_limits<std::uint32_t>::max();

/// Struct-of-arrays adjacency of a Dag (compressed sparse row, both
/// directions) and the only store of its edges.  The hot paths (ranks,
/// ScheduleBuilder, the simulator) iterate these flat arrays directly; at
/// 10k+ tasks a per-node list would cost one pointer chase per node.  Edge
/// order within each row is the DagBuilder's insertion order exactly — rank
/// and data-ready folds are floating-point max/min reductions whose results
/// depend on operand order, and byte-identical schedules require it.
///
/// Each edge's volume is stored once, in successor order (the order the
/// fingerprint and the upward ranks read); a predecessor entry holds the
/// index of its edge in that order instead of a second copy.  Offsets and
/// edge indices are 32-bit, so a Dag holds at most kMaxEdges edges.
///
/// Accessors do no bounds checking: ids must be in [0, num_tasks), which
/// every consumer guarantees by iterating the Dag the CSR belongs to.
class CsrAdjacency {
public:
    [[nodiscard]] std::size_t num_tasks() const noexcept { return succ_off_.size() - 1; }
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
    /// For each predecessor entry of v, the index of the same edge in
    /// successor order: its volume is edge_data()[pred_edges(v)[i]].
    [[nodiscard]] std::span<const std::uint32_t> pred_edges(TaskId v) const noexcept {
        const auto vi = static_cast<std::size_t>(v);
        return {pred_edge_.data() + pred_off_[vi], pred_off_[vi + 1] - pred_off_[vi]};
    }
    /// Every edge's data volume, in successor order (row u is succ_data(u)).
    [[nodiscard]] std::span<const double> edge_data() const noexcept { return succ_data_; }
    /// Position of v's first entry in predecessor order: row v spans
    /// [pred_begin(v), pred_begin(v) + in_degree(v)), so a consumer can keep
    /// its own per-edge array in that order.
    [[nodiscard]] std::size_t pred_begin(TaskId v) const noexcept {
        return pred_off_[static_cast<std::size_t>(v)];
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
    friend class Dag;
    friend class DagBuilder;

    std::vector<std::uint32_t> succ_off_ = {0};  // n + 1 offsets into succ_task_/succ_data_
    std::vector<std::uint32_t> pred_off_ = {0};  // n + 1 offsets into pred_task_/pred_edge_
    std::vector<TaskId> succ_task_;
    std::vector<TaskId> pred_task_;
    std::vector<double> succ_data_;         // the only copy of each edge's volume
    std::vector<std::uint32_t> pred_edge_;  // per pred entry: its edge's succ_data_ index
};

class Dag {
public:
    [[nodiscard]] std::size_t num_tasks() const noexcept { return work_.size(); }
    [[nodiscard]] std::size_t num_edges() const noexcept { return csr_.num_edges(); }
    [[nodiscard]] bool empty() const noexcept { return work_.empty(); }

    [[nodiscard]] double work(TaskId v) const { return work_[check(v)]; }
    void set_work(TaskId v, double w) { work_[check(v)] = w; }

    /// Task name; empty when unnamed.  A view into the Dag, invalidated by
    /// the next set_name.
    [[nodiscard]] std::string_view name(TaskId v) const;
    /// O(total name bytes): every later name in the packed buffer moves.
    /// Throws std::length_error when the names would exceed 2^32 - 1 bytes.
    void set_name(TaskId v, std::string_view name);
    /// False while no task has a name: names are stored only from the first
    /// non-empty one on.
    [[nodiscard]] bool has_names() const noexcept { return !name_off_.empty(); }

    /// Successors of v with edge data, in insertion order.
    [[nodiscard]] AdjRange successors(TaskId v) const {
        (void)check(v);
        return {csr_.succ_tasks(v), csr_.succ_data(v).data()};
    }
    /// Predecessors of v with edge data, in insertion order.
    [[nodiscard]] AdjRange predecessors(TaskId v) const {
        (void)check(v);
        return {csr_.pred_tasks(v), csr_.succ_data_.data(), csr_.pred_edges(v).data()};
    }

    [[nodiscard]] std::size_t out_degree(TaskId v) const { return successors(v).size(); }
    [[nodiscard]] std::size_t in_degree(TaskId v) const { return predecessors(v).size(); }

    /// The flat struct-of-arrays adjacency the Dag stores its edges in.
    [[nodiscard]] const CsrAdjacency& csr() const noexcept { return csr_; }

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

    /// True when the edge set is acyclic (a DagBuilder accepts any edge set
    /// without self-loops or duplicates; generators call this as a
    /// postcondition).
    [[nodiscard]] bool is_acyclic() const;

    /// Check invariants (acyclicity, non-negative work/data); returns an
    /// empty string when valid, otherwise a diagnostic.
    [[nodiscard]] std::string validate() const;

    friend bool operator==(const Dag& a, const Dag& b);

private:
    friend class DagBuilder;

    /// `v` as an index; throws std::out_of_range unless it is in [0, num_tasks).
    [[nodiscard]] std::size_t check(TaskId v) const;

    std::vector<double> work_;
    // Task names packed into one buffer: name v is
    // name_chars_[name_off_[v], name_off_[v + 1]).  Both are empty while no
    // task is named; from the first name on name_off_ has n + 1 entries.
    std::string name_chars_;
    std::vector<std::uint32_t> name_off_;
    CsrAdjacency csr_;
};

/// Accumulates tasks and edges and packs them into a Dag's CSR in one pass.
/// Rows keep insertion order: a stable counting sort places each edge after
/// every earlier edge of the same source (successor row) and of the same
/// target (predecessor row).
class DagBuilder {
public:
    DagBuilder() = default;
    /// Pre-create `n` tasks with unit work and empty names.
    explicit DagBuilder(std::size_t n)
        : work_(n, 1.0), out_head_(n, kNoEdge), out_deg_(n, 0), in_deg_(n, 0) {}

    /// Add a task; returns its id. `work` is the abstract computation amount.
    TaskId add_task(double work = 1.0, std::string_view name = {});

    /// Add a directed edge u -> v carrying `data` volume.
    /// Throws std::invalid_argument on self-loops, bad data or duplicate
    /// edges and std::out_of_range on out-of-range ids.  Cycle creation is
    /// detected lazily by Dag::validate().
    void add_edge(TaskId u, TaskId v, double data = 0.0);

    [[nodiscard]] std::size_t num_tasks() const noexcept { return work_.size(); }
    [[nodiscard]] std::size_t num_edges() const noexcept { return edges_.size(); }
    [[nodiscard]] std::size_t out_degree(TaskId v) const { return out_deg_[check(v)]; }
    [[nodiscard]] std::size_t in_degree(TaskId v) const { return in_deg_[check(v)]; }
    [[nodiscard]] bool has_edge(TaskId u, TaskId v) const;

    /// Pack everything added so far into a Dag (O(n + m)).  Throws
    /// std::length_error (via check_edge_count) above kMaxEdges edges.
    [[nodiscard]] Dag build() &&;

    /// Throws std::length_error when `num_edges` exceeds kMaxEdges, the
    /// most a Dag's 32-bit CSR can index.
    static void check_edge_count(std::size_t num_edges);

private:
    static constexpr std::size_t kNoEdge = static_cast<std::size_t>(-1);

    struct Edge {
        TaskId from;
        TaskId to;
        double data;
        std::size_t next_out;  // previous edge out of `from`, or kNoEdge
    };

    /// As Dag::check, over the tasks added so far.
    [[nodiscard]] std::size_t check(TaskId v) const;

    std::vector<double> work_;
    std::string name_chars_;               // packed as in Dag; empty if no task is named
    std::vector<std::uint32_t> name_off_;  // from the first named task on, one per task + 1
    std::vector<std::size_t> out_head_;  // latest edge out of each task, or kNoEdge
    std::vector<std::size_t> out_deg_;
    std::vector<std::size_t> in_deg_;
    std::vector<Edge> edges_;
};

}  // namespace tsched
