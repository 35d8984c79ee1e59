// Problem: the complete input a static scheduler consumes — task graph,
// machine, and execution-cost matrix — plus the derived quantities the
// HEFT-family heuristics query constantly (mean execution costs, mean
// communication costs per edge, critical-path lower bound).
//
// Problem shares ownership of its three components so instances are cheap to
// copy into parallel experiment workers.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "graph/dag.hpp"
#include "platform/cost_matrix.hpp"
#include "platform/machine.hpp"

namespace tsched {

class Problem {
public:
    Problem(std::shared_ptr<const Dag> dag, std::shared_ptr<const Machine> machine,
            std::shared_ptr<const CostMatrix> costs);

    /// Convenience constructor that copies the inputs into shared state.
    Problem(Dag dag, Machine machine, CostMatrix costs);

    [[nodiscard]] const Dag& dag() const noexcept { return *dag_; }
    [[nodiscard]] const Machine& machine() const noexcept { return *machine_; }
    [[nodiscard]] const CostMatrix& costs() const noexcept { return *costs_; }

    [[nodiscard]] std::size_t num_tasks() const noexcept { return dag_->num_tasks(); }
    [[nodiscard]] std::size_t num_procs() const noexcept { return machine_->num_procs(); }

    /// Execution time of task v on processor p.
    [[nodiscard]] double exec_time(TaskId v, ProcId p) const { return (*costs_)(v, p); }
    /// Mean execution time of v across processors (HEFT's w̄).
    [[nodiscard]] double mean_exec(TaskId v) const { return costs_->mean(v); }

    /// Communication time of edge u -> v when placed on (p, q); 0 when p==q.
    [[nodiscard]] double comm_time(TaskId u, TaskId v, ProcId p, ProcId q) const;
    /// Same but with the edge's data volume already known (avoids a lookup).
    [[nodiscard]] double comm_time_data(double data, ProcId p, ProcId q) const {
        return machine_->links().comm_time(data, p, q);
    }

    /// Mean communication time of edge u -> v over all distinct processor
    /// pairs (HEFT's c̄); cached per edge on first use.
    [[nodiscard]] double mean_comm(TaskId u, TaskId v) const;
    [[nodiscard]] double mean_comm_data(double data) const {
        return machine_->links().mean_comm_time(data, num_procs());
    }

    /// Communication-to-computation ratio actually realised by this problem:
    /// (mean comm over edges) / (mean exec over tasks).
    [[nodiscard]] double realized_ccr() const;

    /// Communication-free critical path using per-task *minimum* execution
    /// times: the classic SLR denominator and an absolute makespan lower
    /// bound.
    [[nodiscard]] double cp_lower_bound() const;

    /// The tasks of one critical path under mean execution + mean
    /// communication costs (used by CPOP and for diagnostics).
    [[nodiscard]] std::vector<TaskId> mean_critical_path() const;

    /// 64-bit FNV-1a fingerprint of the content — graph, cost matrix and
    /// machine, canonicalized by the rules in serve/request.hpp (task names
    /// excluded, link model hashed by behaviour).  Computed on the first call
    /// and memoized: the components are immutable once the Problem is built,
    /// so a caller that submits one Problem repeatedly hashes it once.
    /// Thread-safe; copies carry the memo.
    [[nodiscard]] std::uint64_t content_fingerprint() const;

private:
    // Relaxed atomic so concurrent first calls are race-free (both store the
    // same value); 0 means "not computed yet" — a true fingerprint of 0 is
    // simply recomputed on every call.
    struct FingerprintMemo {
        std::atomic<std::uint64_t> value{0};
        FingerprintMemo() = default;
        FingerprintMemo(const FingerprintMemo& other) noexcept
            : value(other.value.load(std::memory_order_relaxed)) {}
        FingerprintMemo& operator=(const FingerprintMemo& other) noexcept {
            value.store(other.value.load(std::memory_order_relaxed), std::memory_order_relaxed);
            return *this;
        }
    };

    std::shared_ptr<const Dag> dag_;
    std::shared_ptr<const Machine> machine_;
    std::shared_ptr<const CostMatrix> costs_;
    mutable double cached_cp_lower_bound_ = -1.0;
    mutable FingerprintMemo fingerprint_memo_;
};

}  // namespace tsched
