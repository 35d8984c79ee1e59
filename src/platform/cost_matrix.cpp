#include "platform/cost_matrix.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace tsched {

CostMatrix::CostMatrix(std::size_t num_tasks, std::size_t num_procs, std::vector<double> costs)
    : num_tasks_(num_tasks), num_procs_(num_procs), costs_(std::move(costs)) {
    if (num_procs_ == 0) throw std::invalid_argument("CostMatrix: need at least one processor");
    if (costs_.size() != num_tasks_ * num_procs_) {
        throw std::invalid_argument("CostMatrix: size mismatch");
    }
    for (const double c : costs_) {
        if (!(c > 0.0) || !std::isfinite(c)) {
            throw std::invalid_argument("CostMatrix: costs must be finite and > 0");
        }
    }
}

CostMatrix CostMatrix::from_speeds(const Dag& dag, const Machine& machine) {
    const std::size_t n = dag.num_tasks();
    const std::size_t p = machine.num_procs();
    std::vector<double> costs(n * p);
    for (std::size_t v = 0; v < n; ++v) {
        const double work = std::max(dag.work(static_cast<TaskId>(v)),
                                     std::numeric_limits<double>::min());
        for (std::size_t q = 0; q < p; ++q) {
            costs[v * p + q] = work / machine.speed(static_cast<ProcId>(q));
        }
    }
    return CostMatrix(n, p, std::move(costs));
}

CostMatrix CostMatrix::uniform(const Dag& dag, std::size_t num_procs) {
    const std::size_t n = dag.num_tasks();
    std::vector<double> costs(n * num_procs);
    for (std::size_t v = 0; v < n; ++v) {
        const double work = std::max(dag.work(static_cast<TaskId>(v)),
                                     std::numeric_limits<double>::min());
        for (std::size_t q = 0; q < num_procs; ++q) costs[v * num_procs + q] = work;
    }
    return CostMatrix(n, num_procs, std::move(costs));
}

namespace {
// The row statistics keep the accumulation order of the per-row pass the
// matrix once cached them with: a running sum / min / max from +-inf in
// processor order, then the two-pass sample variance around the mean.
double row_sum(const double* row, std::size_t procs) {
    double sum = 0.0;
    for (std::size_t p = 0; p < procs; ++p) sum += row[p];
    return sum;
}

double row_min(const double* row, std::size_t procs) {
    double lo = std::numeric_limits<double>::infinity();
    for (std::size_t p = 0; p < procs; ++p) lo = std::min(lo, row[p]);
    return lo;
}

double row_max(const double* row, std::size_t procs) {
    double hi = -std::numeric_limits<double>::infinity();
    for (std::size_t p = 0; p < procs; ++p) hi = std::max(hi, row[p]);
    return hi;
}
}  // namespace

void CostMatrix::set(TaskId v, ProcId p, double cost) {
    if (!(cost > 0.0) || !std::isfinite(cost)) {
        throw std::invalid_argument("CostMatrix::set: cost must be finite and > 0");
    }
    costs_[index(v, p)] = cost;
}

const double* CostMatrix::row(TaskId v) const {
    if (v < 0 || static_cast<std::size_t>(v) >= num_tasks_) {
        throw std::out_of_range("CostMatrix: task out of range");
    }
    return costs_.data() + static_cast<std::size_t>(v) * num_procs_;
}

double CostMatrix::mean(TaskId v) const {
    return row_sum(row(v), num_procs_) / static_cast<double>(num_procs_);
}

double CostMatrix::min(TaskId v) const { return row_min(row(v), num_procs_); }

double CostMatrix::max(TaskId v) const { return row_max(row(v), num_procs_); }

double CostMatrix::stddev(TaskId v) const {
    const double* r = row(v);
    const double mean = row_sum(r, num_procs_) / static_cast<double>(num_procs_);
    double m2 = 0.0;
    for (std::size_t p = 0; p < num_procs_; ++p) {
        const double d = r[p] - mean;
        m2 += d * d;
    }
    return num_procs_ > 1 ? std::sqrt(m2 / static_cast<double>(num_procs_ - 1)) : 0.0;
}

double CostMatrix::median(TaskId v) const {
    const double* r = row(v);
    std::vector<double> vals(r, r + num_procs_);
    std::sort(vals.begin(), vals.end());
    const std::size_t mid = vals.size() / 2;
    return vals.size() % 2 == 1 ? vals[mid] : 0.5 * (vals[mid - 1] + vals[mid]);
}

ProcId CostMatrix::fastest_proc(TaskId v) const {
    const double* r = row(v);
    ProcId best = 0;
    for (std::size_t p = 1; p < num_procs_; ++p) {
        if (r[p] < r[static_cast<std::size_t>(best)]) best = static_cast<ProcId>(p);
    }
    return best;
}

double CostMatrix::serial_time(ProcId p) const {
    if (p < 0 || static_cast<std::size_t>(p) >= num_procs_) {
        throw std::out_of_range("CostMatrix::serial_time: processor out of range");
    }
    double sum = 0.0;
    for (std::size_t v = 0; v < num_tasks_; ++v) {
        sum += costs_[v * num_procs_ + static_cast<std::size_t>(p)];
    }
    return sum;
}

double CostMatrix::best_serial_time() const {
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t p = 0; p < num_procs_; ++p) {
        best = std::min(best, serial_time(static_cast<ProcId>(p)));
    }
    return num_tasks_ > 0 ? best : 0.0;
}

bool CostMatrix::is_homogeneous() const noexcept {
    for (std::size_t v = 0; v < num_tasks_; ++v) {
        const double* r = costs_.data() + v * num_procs_;
        if (row_min(r, num_procs_) != row_max(r, num_procs_)) return false;
    }
    return true;
}

}  // namespace tsched
