#include "graph/dag.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace tsched {

namespace {
std::size_t checked_index(TaskId v, std::size_t num_tasks) {
    if (v < 0 || static_cast<std::size_t>(v) >= num_tasks) {
        throw std::out_of_range("Dag: invalid TaskId " + std::to_string(v));
    }
    return static_cast<std::size_t>(v);
}
}  // namespace

std::size_t Dag::check(TaskId v) const { return checked_index(v, work_.size()); }

std::string_view Dag::name(TaskId v) const {
    const std::size_t vi = check(v);
    if (name_off_.empty()) return {};
    return std::string_view(name_chars_).substr(name_off_[vi], name_off_[vi + 1] - name_off_[vi]);
}

void Dag::set_name(TaskId v, std::string_view name) {
    const std::size_t vi = check(v);
    if (name_off_.empty()) {
        if (name.empty()) return;
        name_off_.assign(work_.size() + 1, 0);
    }
    const std::size_t begin = name_off_[vi];
    const std::size_t old_len = name_off_[vi + 1] - begin;
    if (name_chars_.size() - old_len + name.size() > std::numeric_limits<std::uint32_t>::max()) {
        throw std::length_error("Dag::set_name: names exceed 2^32 - 1 bytes");
    }
    // `name` may view this Dag's own buffer, so copy it before the splice.
    name_chars_.replace(begin, old_len, std::string(name));
    for (std::size_t i = vi + 1; i < name_off_.size(); ++i) {
        name_off_[i] = static_cast<std::uint32_t>(name_off_[i] - old_len + name.size());
    }
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
    (void)check(v);
    if (!(data >= 0.0) || !std::isfinite(data)) {
        throw std::invalid_argument("Dag::set_edge_data: data must be finite and non-negative");
    }
    for (std::size_t s = csr_.succ_off_[ui]; s < csr_.succ_off_[ui + 1]; ++s) {
        if (csr_.succ_task_[s] == v) {
            csr_.succ_data_[s] = data;  // the edge's only copy
            return;
        }
    }
    throw std::out_of_range("Dag::set_edge_data: no edge " + std::to_string(u) + " -> " +
                            std::to_string(v));
}

void Dag::scale_edge_data(double factor) {
    // Scaling by a non-negative factor is monotone, so checking the largest
    // product covers every edge before anything is written.
    double max_data = 0.0;
    for (const double d : csr_.succ_data_) max_data = std::max(max_data, d);
    if (!(factor >= 0.0) || !std::isfinite(factor) || !std::isfinite(max_data * factor)) {
        throw std::invalid_argument(
            "Dag::scale_edge_data: factor must keep every data volume finite and non-negative");
    }
    for (double& d : csr_.succ_data_) d *= factor;
}

std::vector<TaskId> Dag::sources() const {
    std::vector<TaskId> out;
    for (TaskId v = 0; v < static_cast<TaskId>(num_tasks()); ++v) {
        if (csr_.in_degree(v) == 0) out.push_back(v);
    }
    return out;
}

std::vector<TaskId> Dag::sinks() const {
    std::vector<TaskId> out;
    for (TaskId v = 0; v < static_cast<TaskId>(num_tasks()); ++v) {
        if (csr_.out_degree(v) == 0) out.push_back(v);
    }
    return out;
}

double Dag::total_work() const noexcept {
    double sum = 0.0;
    for (const double w : work_) sum += w;
    return sum;
}

double Dag::total_data() const noexcept {
    double sum = 0.0;
    for (const double d : csr_.succ_data_) sum += d;
    return sum;
}

bool Dag::is_acyclic() const {
    // Kahn's algorithm: the graph is acyclic iff every task gets popped.
    const std::size_t n = num_tasks();
    std::vector<std::size_t> in_deg(n);
    std::vector<TaskId> ready;
    for (std::size_t i = 0; i < n; ++i) {
        in_deg[i] = csr_.in_degree(static_cast<TaskId>(i));
        if (in_deg[i] == 0) ready.push_back(static_cast<TaskId>(i));
    }
    std::size_t popped = 0;
    while (!ready.empty()) {
        const TaskId v = ready.back();
        ready.pop_back();
        ++popped;
        for (const TaskId s : csr_.succ_tasks(v)) {
            if (--in_deg[static_cast<std::size_t>(s)] == 0) ready.push_back(s);
        }
    }
    return popped == n;
}

std::string Dag::validate() const {
    for (TaskId v = 0; v < static_cast<TaskId>(num_tasks()); ++v) {
        const double w = work_[static_cast<std::size_t>(v)];
        if (!(w >= 0.0) || !std::isfinite(w)) {
            return "task " + std::to_string(v) + " has invalid work";
        }
        for (const AdjEdge& e : successors(v)) {
            if (!(e.data >= 0.0) || !std::isfinite(e.data)) {
                std::ostringstream os;
                os << "edge " << v << " -> " << e.task << " has invalid data";
                return os.str();
            }
        }
    }
    if (!is_acyclic()) return "graph contains a cycle";
    return {};
}

bool operator==(const Dag& a, const Dag& b) {
    if (a.work_ != b.work_ || a.num_edges() != b.num_edges()) return false;
    for (TaskId v = 0; v < static_cast<TaskId>(a.num_tasks()); ++v) {
        if (a.name(v) != b.name(v)) return false;
        const auto sa = a.successors(v);
        const auto sb = b.successors(v);
        if (!std::ranges::equal(sa, sb)) return false;
    }
    return true;
}

std::size_t DagBuilder::check(TaskId v) const { return checked_index(v, work_.size()); }

TaskId DagBuilder::add_task(double work, std::string_view name) {
    if (!(work >= 0.0) || !std::isfinite(work)) {
        throw std::invalid_argument("Dag::add_task: work must be finite and non-negative");
    }
    if (work_.size() >= static_cast<std::size_t>(std::numeric_limits<TaskId>::max())) {
        throw std::length_error("Dag::add_task: too many tasks");
    }
    const std::size_t id = work_.size();
    work_.push_back(work);
    out_head_.push_back(kNoEdge);
    out_deg_.push_back(0);
    in_deg_.push_back(0);
    if (name_off_.empty()) {
        if (name.empty()) return static_cast<TaskId>(id);
        name_off_.assign(id + 1, 0);  // every earlier task is unnamed
    }
    if (name_chars_.size() + name.size() > std::numeric_limits<std::uint32_t>::max()) {
        throw std::length_error("Dag::add_task: names exceed 2^32 - 1 bytes");
    }
    name_chars_ += name;
    name_off_.push_back(static_cast<std::uint32_t>(name_chars_.size()));
    return static_cast<TaskId>(id);
}

void DagBuilder::add_edge(TaskId u, TaskId v, double data) {
    const std::size_t ui = check(u);
    const std::size_t vi = check(v);
    if (u == v) {
        throw std::invalid_argument("Dag::add_edge: self-loop on task " + std::to_string(u));
    }
    if (!(data >= 0.0) || !std::isfinite(data)) {
        throw std::invalid_argument("Dag::add_edge: data must be finite and non-negative");
    }
    if (has_edge(u, v)) {
        throw std::invalid_argument("Dag::add_edge: duplicate edge " + std::to_string(u) + " -> " +
                                    std::to_string(v));
    }
    edges_.push_back({u, v, data, out_head_[ui]});
    out_head_[ui] = edges_.size() - 1;
    ++out_deg_[ui];
    ++in_deg_[vi];
}

bool DagBuilder::has_edge(TaskId u, TaskId v) const {
    for (std::size_t e = out_head_[check(u)]; e != kNoEdge; e = edges_[e].next_out) {
        if (edges_[e].to == v) return true;
    }
    (void)check(v);
    return false;
}

void DagBuilder::check_edge_count(std::size_t num_edges) {
    if (num_edges > kMaxEdges) {
        throw std::length_error("DagBuilder::build: " + std::to_string(num_edges) +
                                " edges exceed the 32-bit CSR limit of " +
                                std::to_string(kMaxEdges));
    }
}

Dag DagBuilder::build() && {
    const std::size_t m = edges_.size();
    check_edge_count(m);
    const std::size_t n = work_.size();
    Dag dag;
    CsrAdjacency& c = dag.csr_;
    c.succ_off_.assign(n + 1, 0);
    c.pred_off_.assign(n + 1, 0);
    for (std::size_t i = 0; i < n; ++i) {
        c.succ_off_[i + 1] = c.succ_off_[i] + static_cast<std::uint32_t>(out_deg_[i]);
        c.pred_off_[i + 1] = c.pred_off_[i] + static_cast<std::uint32_t>(in_deg_[i]);
    }
    c.succ_task_.resize(m);
    c.succ_data_.resize(m);
    c.pred_task_.resize(m);
    c.pred_edge_.resize(m);
    // Stable counting sort: walking the edges in insertion order and
    // filling each row front to back keeps every row in insertion order.
    // The degree arrays become the per-row fill cursors.
    std::copy(c.succ_off_.begin(), c.succ_off_.end() - 1, out_deg_.begin());
    std::copy(c.pred_off_.begin(), c.pred_off_.end() - 1, in_deg_.begin());
    for (const Edge& e : edges_) {
        const std::size_t s = out_deg_[static_cast<std::size_t>(e.from)]++;
        c.succ_task_[s] = e.to;
        c.succ_data_[s] = e.data;
        const std::size_t p = in_deg_[static_cast<std::size_t>(e.to)]++;
        c.pred_task_[p] = e.from;
        c.pred_edge_[p] = static_cast<std::uint32_t>(s);
    }
    // The task arrays grew by doubling; a Dag lives long, so trim them.
    dag.work_ = std::move(work_);
    dag.work_.shrink_to_fit();
    if (!name_off_.empty()) {
        name_off_.shrink_to_fit();
        name_chars_.shrink_to_fit();
        dag.name_off_ = std::move(name_off_);
        dag.name_chars_ = std::move(name_chars_);
    }
    *this = DagBuilder();
    return dag;
}

}  // namespace tsched
