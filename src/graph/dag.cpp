#include "graph/dag.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace tsched {

CsrAdjacency::CsrAdjacency(const Dag& dag) {
    num_tasks_ = dag.num_tasks();
    const std::size_t m = dag.num_edges();
    succ_off_.assign(num_tasks_ + 1, 0);
    pred_off_.assign(num_tasks_ + 1, 0);
    succ_task_.resize(m);
    pred_task_.resize(m);
    succ_data_.resize(m);
    pred_data_.resize(m);
    for (std::size_t i = 0; i < num_tasks_; ++i) {
        const auto v = static_cast<TaskId>(i);
        succ_off_[i + 1] = succ_off_[i] + dag.out_degree(v);
        pred_off_[i + 1] = pred_off_[i] + dag.in_degree(v);
    }
    for (std::size_t i = 0; i < num_tasks_; ++i) {
        const auto v = static_cast<TaskId>(i);
        std::size_t s = succ_off_[i];
        for (const AdjEdge& e : dag.successors(v)) {
            succ_task_[s] = e.task;
            succ_data_[s] = e.data;
            ++s;
        }
        std::size_t p = pred_off_[i];
        for (const AdjEdge& e : dag.predecessors(v)) {
            pred_task_[p] = e.task;
            pred_data_[p] = e.data;
            ++p;
        }
    }
}

Dag& Dag::operator=(const Dag& other) {
    if (this != &other) {
        tasks_ = other.tasks_;
        num_edges_ = other.num_edges_;
        invalidate_csr();
    }
    return *this;
}

Dag& Dag::operator=(Dag&& other) noexcept {
    if (this != &other) {
        tasks_ = std::move(other.tasks_);
        num_edges_ = other.num_edges_;
        invalidate_csr();
    }
    return *this;
}

const CsrAdjacency& Dag::csr() const {
    LockGuard lock(csr_mutex_);
    if (!csr_cache_) {
        csr_cache_ = std::make_unique<CsrAdjacency>(*this);
        csr_built_.store(true, std::memory_order_release);
    }
    return *csr_cache_;
}

void Dag::invalidate_csr() {
    if (!csr_built_.load(std::memory_order_acquire)) return;
    LockGuard lock(csr_mutex_);
    csr_cache_.reset();
    csr_built_.store(false, std::memory_order_relaxed);
}

std::size_t Dag::check(TaskId v) const {
    if (v < 0 || static_cast<std::size_t>(v) >= tasks_.size()) {
        throw std::out_of_range("Dag: invalid TaskId " + std::to_string(v));
    }
    return static_cast<std::size_t>(v);
}

TaskId Dag::add_task(double work, std::string name) {
    if (!(work >= 0.0) || !std::isfinite(work)) {
        throw std::invalid_argument("Dag::add_task: work must be finite and non-negative");
    }
    if (tasks_.size() >= static_cast<std::size_t>(std::numeric_limits<TaskId>::max())) {
        throw std::length_error("Dag::add_task: too many tasks");
    }
    TaskNode node;
    node.work = work;
    node.name = std::move(name);
    tasks_.push_back(std::move(node));
    invalidate_csr();
    return static_cast<TaskId>(tasks_.size() - 1);
}

void Dag::add_edge(TaskId u, TaskId v, double data) {
    const std::size_t ui = check(u);
    const std::size_t vi = check(v);
    if (u == v) throw std::invalid_argument("Dag::add_edge: self-loop on task " + std::to_string(u));
    if (!(data >= 0.0) || !std::isfinite(data)) {
        throw std::invalid_argument("Dag::add_edge: data must be finite and non-negative");
    }
    if (has_edge(u, v)) {
        throw std::invalid_argument("Dag::add_edge: duplicate edge " + std::to_string(u) + " -> " +
                                    std::to_string(v));
    }
    tasks_[ui].succs.push_back({v, data});
    tasks_[vi].preds.push_back({u, data});
    ++num_edges_;
    invalidate_csr();
}

bool Dag::has_edge(TaskId u, TaskId v) const {
    for (const AdjEdge& e : successors(u)) {
        if (e.task == v) return true;
    }
    (void)check(v);
    return false;
}

double Dag::edge_data(TaskId u, TaskId v) const {
    for (const AdjEdge& e : successors(u)) {
        if (e.task == v) return e.data;
    }
    throw std::out_of_range("Dag::edge_data: no edge " + std::to_string(u) + " -> " +
                            std::to_string(v));
}

void Dag::set_edge_data(TaskId u, TaskId v, double data) {
    const std::size_t ui = check(u);
    const std::size_t vi = check(v);
    if (!(data >= 0.0) || !std::isfinite(data)) {
        throw std::invalid_argument("Dag::set_edge_data: data must be finite and non-negative");
    }
    bool found = false;
    for (AdjEdge& e : tasks_[ui].succs) {
        if (e.task == v) {
            e.data = data;
            found = true;
            break;
        }
    }
    if (!found) {
        throw std::out_of_range("Dag::set_edge_data: no edge " + std::to_string(u) + " -> " +
                                std::to_string(v));
    }
    for (AdjEdge& e : tasks_[vi].preds) {
        if (e.task == u) {
            e.data = data;
            break;
        }
    }
    invalidate_csr();
}

void Dag::scale_edge_data(double factor) {
    // Scaling by a non-negative factor is monotone, so checking the largest
    // product covers every edge before anything is written.
    double max_data = 0.0;
    for (const TaskNode& t : tasks_) {
        for (const AdjEdge& e : t.succs) max_data = std::max(max_data, e.data);
    }
    if (!(factor >= 0.0) || !std::isfinite(factor) || !std::isfinite(max_data * factor)) {
        throw std::invalid_argument(
            "Dag::scale_edge_data: factor must keep every data volume finite and non-negative");
    }
    // Each edge's two copies hold the same volume, so scaling both in place
    // stores the one product set_edge_data would write to both.
    for (TaskNode& t : tasks_) {
        for (AdjEdge& e : t.succs) e.data *= factor;
        for (AdjEdge& e : t.preds) e.data *= factor;
    }
    invalidate_csr();
}

std::vector<TaskId> Dag::sources() const {
    std::vector<TaskId> out;
    for (std::size_t i = 0; i < tasks_.size(); ++i) {
        if (tasks_[i].preds.empty()) out.push_back(static_cast<TaskId>(i));
    }
    return out;
}

std::vector<TaskId> Dag::sinks() const {
    std::vector<TaskId> out;
    for (std::size_t i = 0; i < tasks_.size(); ++i) {
        if (tasks_[i].succs.empty()) out.push_back(static_cast<TaskId>(i));
    }
    return out;
}

double Dag::total_work() const noexcept {
    double sum = 0.0;
    for (const auto& t : tasks_) sum += t.work;
    return sum;
}

double Dag::total_data() const noexcept {
    double sum = 0.0;
    for (const auto& t : tasks_) {
        for (const AdjEdge& e : t.succs) sum += e.data;
    }
    return sum;
}

bool Dag::is_acyclic() const {
    // Kahn's algorithm: the graph is acyclic iff every task gets popped.
    std::vector<std::size_t> in_deg(tasks_.size());
    std::vector<TaskId> ready;
    for (std::size_t i = 0; i < tasks_.size(); ++i) {
        in_deg[i] = tasks_[i].preds.size();
        if (in_deg[i] == 0) ready.push_back(static_cast<TaskId>(i));
    }
    std::size_t popped = 0;
    while (!ready.empty()) {
        const TaskId v = ready.back();
        ready.pop_back();
        ++popped;
        for (const AdjEdge& e : tasks_[static_cast<std::size_t>(v)].succs) {
            if (--in_deg[static_cast<std::size_t>(e.task)] == 0) ready.push_back(e.task);
        }
    }
    return popped == tasks_.size();
}

std::string Dag::validate() const {
    for (std::size_t i = 0; i < tasks_.size(); ++i) {
        if (!(tasks_[i].work >= 0.0) || !std::isfinite(tasks_[i].work)) {
            return "task " + std::to_string(i) + " has invalid work";
        }
        for (const AdjEdge& e : tasks_[i].succs) {
            if (!(e.data >= 0.0) || !std::isfinite(e.data)) {
                std::ostringstream os;
                os << "edge " << i << " -> " << e.task << " has invalid data";
                return os.str();
            }
        }
    }
    if (!is_acyclic()) return "graph contains a cycle";
    return {};
}

bool operator==(const Dag& a, const Dag& b) {
    if (a.tasks_.size() != b.tasks_.size() || a.num_edges_ != b.num_edges_) return false;
    for (std::size_t i = 0; i < a.tasks_.size(); ++i) {
        const auto& ta = a.tasks_[i];
        const auto& tb = b.tasks_[i];
        if (ta.work != tb.work || ta.name != tb.name || ta.succs != tb.succs) return false;
    }
    return true;
}

}  // namespace tsched
