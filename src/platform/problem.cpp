#include "platform/problem.hpp"

#include <algorithm>
#include <stdexcept>

#include "graph/algorithms.hpp"
#include "trace/trace.hpp"
#include "util/fingerprint.hpp"

namespace tsched {

namespace {

// The canonical encoding is the serving layer's cache-key contract
// (serve/request.hpp): changing any absorb order or field changes every
// fingerprint and needs a kFingerprintVersion bump there.

void absorb_dag(Fnv1a& h, const Dag& dag) {
    h.u64(dag.num_tasks());
    h.u64(dag.num_edges());
    for (TaskId v = 0; v < static_cast<TaskId>(dag.num_tasks()); ++v) {
        h.f64(dag.work(v));
        const auto succs = dag.successors(v);
        h.u64(succs.size());
        for (const AdjEdge& e : succs) {
            h.i64(e.task);
            h.f64(e.data);
        }
    }
}

void absorb_costs(Fnv1a& h, const CostMatrix& costs) {
    h.u64(costs.num_tasks());
    h.u64(costs.num_procs());
    for (TaskId v = 0; v < static_cast<TaskId>(costs.num_tasks()); ++v)
        for (ProcId p = 0; p < static_cast<ProcId>(costs.num_procs()); ++p) h.f64(costs(v, p));
}

void absorb_machine(Fnv1a& h, const Machine& machine) {
    const auto procs = static_cast<ProcId>(machine.num_procs());
    h.u64(machine.num_procs());
    for (const double s : machine.speeds()) h.f64(s);
    // Behavioral link-model canonicalization: two sample volumes pin the
    // affine comm-time function per ordered pair (see serve/request.hpp).
    const LinkModel& links = machine.links();
    for (ProcId p = 0; p < procs; ++p) {
        for (ProcId q = 0; q < procs; ++q) {
            if (p == q) continue;
            h.f64(links.comm_time(0.0, p, q));
            h.f64(links.comm_time(1.0, p, q));
        }
    }
    h.f64(links.mean_comm_time(1.0, machine.num_procs()));
}

}  // namespace

Problem::Problem(std::shared_ptr<const Dag> dag, std::shared_ptr<const Machine> machine,
                 std::shared_ptr<const CostMatrix> costs)
    : dag_(std::move(dag)), machine_(std::move(machine)), costs_(std::move(costs)) {
    if (!dag_ || !machine_ || !costs_) {
        throw std::invalid_argument("Problem: components must not be null");
    }
    if (costs_->num_tasks() != dag_->num_tasks()) {
        throw std::invalid_argument("Problem: cost matrix rows != task count");
    }
    if (costs_->num_procs() != machine_->num_procs()) {
        throw std::invalid_argument("Problem: cost matrix columns != processor count");
    }
}

Problem::Problem(Dag dag, Machine machine, CostMatrix costs)
    : Problem(std::make_shared<const Dag>(std::move(dag)),
              std::make_shared<const Machine>(std::move(machine)),
              std::make_shared<const CostMatrix>(std::move(costs))) {}

double Problem::comm_time(TaskId u, TaskId v, ProcId p, ProcId q) const {
    if (p == q) return 0.0;
    return machine_->links().comm_time(dag_->edge_data(u, v), p, q);
}

double Problem::mean_comm(TaskId u, TaskId v) const {
    return mean_comm_data(dag_->edge_data(u, v));
}

double Problem::realized_ccr() const {
    if (dag_->num_tasks() == 0) return 0.0;
    double exec_sum = 0.0;
    for (std::size_t v = 0; v < dag_->num_tasks(); ++v) {
        exec_sum += costs_->mean(static_cast<TaskId>(v));
    }
    const double exec_mean = exec_sum / static_cast<double>(dag_->num_tasks());
    if (dag_->num_edges() == 0 || exec_mean <= 0.0) return 0.0;
    double comm_sum = 0.0;
    for (std::size_t u = 0; u < dag_->num_tasks(); ++u) {
        for (const AdjEdge& e : dag_->successors(static_cast<TaskId>(u))) {
            comm_sum += mean_comm_data(e.data);
        }
    }
    const double comm_mean = comm_sum / static_cast<double>(dag_->num_edges());
    return comm_mean / exec_mean;
}

double Problem::cp_lower_bound() const {
    if (cached_cp_lower_bound_ >= 0.0) return cached_cp_lower_bound_;
    // Longest path over min execution costs, ignoring communication — the
    // standard SLR denominator (Topcuoglu et al.).
    const std::size_t n = dag_->num_tasks();
    std::vector<double> dist(n, 0.0);
    double best = 0.0;
    const auto order = topological_order(*dag_);
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
        const TaskId v = *it;
        double succ_best = 0.0;
        for (const AdjEdge& e : dag_->successors(v)) {
            succ_best = std::max(succ_best, dist[static_cast<std::size_t>(e.task)]);
        }
        dist[static_cast<std::size_t>(v)] = costs_->min(v) + succ_best;
        best = std::max(best, dist[static_cast<std::size_t>(v)]);
    }
    cached_cp_lower_bound_ = best;
    return best;
}

std::vector<TaskId> Problem::mean_critical_path() const {
    // Longest path under mean execution + mean communication costs.
    const std::size_t n = dag_->num_tasks();
    std::vector<double> dist(n, 0.0);
    std::vector<TaskId> next(n, kInvalidTask);
    const auto order = topological_order(*dag_);
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
        const TaskId v = *it;
        double best = 0.0;
        TaskId best_next = kInvalidTask;
        for (const AdjEdge& e : dag_->successors(v)) {
            const double via = mean_comm_data(e.data) + dist[static_cast<std::size_t>(e.task)];
            if (via > best) {
                best = via;
                best_next = e.task;
            }
        }
        dist[static_cast<std::size_t>(v)] = costs_->mean(v) + best;
        next[static_cast<std::size_t>(v)] = best_next;
    }
    if (n == 0) return {};
    TaskId start = 0;
    for (std::size_t v = 1; v < n; ++v) {
        if (dist[v] > dist[static_cast<std::size_t>(start)]) start = static_cast<TaskId>(v);
    }
    std::vector<TaskId> path;
    for (TaskId v = start; v != kInvalidTask; v = next[static_cast<std::size_t>(v)]) {
        path.push_back(v);
    }
    return path;
}

std::uint64_t Problem::content_fingerprint() const {
    if (const std::uint64_t memo = fingerprint_memo_.value.load(std::memory_order_relaxed))
        return memo;
    TSCHED_COUNT("problem_content_hashes");
    Fnv1a h;
    absorb_dag(h, *dag_);
    absorb_costs(h, *costs_);
    absorb_machine(h, *machine_);
    fingerprint_memo_.value.store(h.value(), std::memory_order_relaxed);
    return h.value();
}

}  // namespace tsched
