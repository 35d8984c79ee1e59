// Per-task, per-processor execution-time matrix W (the HEFT "computation
// cost matrix").  Row v holds w(v, p) for every processor p.
//
// Two construction styles:
//   * from_speeds — consistent (related-machines) costs w(v,p) = work/speed;
//   * explicit matrix — arbitrary (unrelated-machines) costs, e.g. the
//     beta-heterogeneity randomization done by workload::make_cost_matrix.
#pragma once

#include <vector>

#include "graph/dag.hpp"
#include "platform/machine.hpp"

namespace tsched {

class CostMatrix {
public:
    /// Explicit matrix; `costs` is row-major (num_tasks x num_procs), every
    /// entry finite and > 0.
    CostMatrix(std::size_t num_tasks, std::size_t num_procs, std::vector<double> costs);

    /// Consistent costs derived from the machine's speeds.
    [[nodiscard]] static CostMatrix from_speeds(const Dag& dag, const Machine& machine);

    /// Identical cost (the task's work) on every processor.
    [[nodiscard]] static CostMatrix uniform(const Dag& dag, std::size_t num_procs);

    [[nodiscard]] std::size_t num_tasks() const noexcept { return num_tasks_; }
    [[nodiscard]] std::size_t num_procs() const noexcept { return num_procs_; }

    [[nodiscard]] double operator()(TaskId v, ProcId p) const {
        return costs_[index(v, p)];
    }
    void set(TaskId v, ProcId p, double cost);

    /// Mean / min / max of row v across processors, computed from the row on
    /// each call (O(P)); the matrix stores nothing but its costs.
    [[nodiscard]] double mean(TaskId v) const;
    [[nodiscard]] double min(TaskId v) const;
    [[nodiscard]] double max(TaskId v) const;
    /// Sample standard deviation of row v (0 for a single processor).
    [[nodiscard]] double stddev(TaskId v) const;
    /// Median of row v.
    [[nodiscard]] double median(TaskId v) const;

    /// Processor with the smallest cost for v (lowest id wins ties).
    [[nodiscard]] ProcId fastest_proc(TaskId v) const;

    /// Total work of the whole graph on processor p (serial execution time).
    [[nodiscard]] double serial_time(ProcId p) const;
    /// min over p of serial_time(p) — the speedup baseline of the literature.
    [[nodiscard]] double best_serial_time() const;

    /// True when every row is constant (homogeneous execution behaviour).
    /// O(n * P).
    [[nodiscard]] bool is_homogeneous() const noexcept;

private:
    // Inline: operator() is the innermost call of every EFT evaluation, and
    // an out-of-line index() showed up as a real call in the schedulers'
    // profiles (the checks themselves predict perfectly).
    [[nodiscard]] std::size_t index(TaskId v, ProcId p) const {
        if (v < 0 || static_cast<std::size_t>(v) >= num_tasks_) {
            throw std::out_of_range("CostMatrix: task out of range");
        }
        if (p < 0 || static_cast<std::size_t>(p) >= num_procs_) {
            throw std::out_of_range("CostMatrix: processor out of range");
        }
        return static_cast<std::size_t>(v) * num_procs_ + static_cast<std::size_t>(p);
    }
    /// Row v's P costs; throws std::out_of_range for a bad task.
    [[nodiscard]] const double* row(TaskId v) const;

    std::size_t num_tasks_;
    std::size_t num_procs_;
    std::vector<double> costs_;  // row-major
};

}  // namespace tsched
