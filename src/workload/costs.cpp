#include "workload/costs.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

namespace tsched::workload {

CostMatrix make_cost_matrix(const Dag& dag, const CostParams& params, Rng& rng) {
    if (params.num_procs == 0) throw std::invalid_argument("make_cost_matrix: num_procs >= 1");
    if (!(params.avg_exec > 0.0)) throw std::invalid_argument("make_cost_matrix: avg_exec > 0");
    if (!(params.beta >= 0.0 && params.beta < 2.0)) {
        throw std::invalid_argument("make_cost_matrix: beta must be in [0, 2)");
    }
    const std::size_t n = dag.num_tasks();
    const std::size_t p = params.num_procs;

    // Baselines: keep the DAG's relative work, normalise the mean to avg_exec.
    double work_sum = 0.0;
    for (std::size_t v = 0; v < n; ++v) work_sum += dag.work(static_cast<TaskId>(v));
    const double work_mean = n > 0 ? work_sum / static_cast<double>(n) : 1.0;
    const double scale = work_mean > 0.0 ? params.avg_exec / work_mean : params.avg_exec;

    std::vector<double> speeds;
    if (params.consistent) {
        speeds.resize(p);
        for (auto& s : speeds) s = rng.uniform(1.0 - params.beta / 2.0, 1.0 + params.beta / 2.0);
    }

    constexpr double kMinCost = 1e-9;
    std::vector<double> costs(n * p);
    for (std::size_t v = 0; v < n; ++v) {
        const double base = std::max(dag.work(static_cast<TaskId>(v)) * scale, kMinCost);
        for (std::size_t q = 0; q < p; ++q) {
            double c = 0.0;
            if (params.consistent) {
                c = base / speeds[q];
            } else {
                c = rng.uniform(base * (1.0 - params.beta / 2.0), base * (1.0 + params.beta / 2.0));
            }
            costs[v * p + q] = std::max(c, kMinCost);
        }
    }
    return CostMatrix(n, p, std::move(costs));
}

void calibrate_ccr(Dag& dag, const LinkModel& links, std::size_t num_procs, double ccr,
                   double avg_exec) {
    if (!(ccr >= 0.0)) throw std::invalid_argument("calibrate_ccr: ccr must be >= 0");
    if (!(avg_exec > 0.0)) throw std::invalid_argument("calibrate_ccr: avg_exec must be > 0");
    if (dag.num_edges() == 0 || num_procs < 2) return;

    // Current mean comm cost given the generator's data volumes.
    double comm_sum = 0.0;
    double data_sum = 0.0;
    for (std::size_t u = 0; u < dag.num_tasks(); ++u) {
        for (const AdjEdge& e : dag.successors(static_cast<TaskId>(u))) {
            comm_sum += links.mean_comm_time(e.data, num_procs);
            data_sum += e.data;
        }
    }
    const auto m = static_cast<double>(dag.num_edges());
    const double target_mean = ccr * avg_exec;

    // Mean comm cost is affine in the data volume for all our link models:
    // mean_comm(d) = mean_comm(0) + d * rate.  Solve for a single scale
    // factor on the data volumes; when even zero data overshoots (latency
    // floor above the target), zero the volumes.
    const double zero_comm = links.mean_comm_time(0.0, num_procs) * m;
    const double data_dependent = comm_sum - zero_comm;
    double factor = 0.0;
    if (data_dependent > 0.0 && data_sum > 0.0) {
        factor = std::max(0.0, (target_mean * m - zero_comm) / data_dependent);
    }
    dag.scale_edge_data(factor);
}

}  // namespace tsched::workload
