#include "sched/clustering.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <vector>

#include "graph/algorithms.hpp"
#include "sched/builder.hpp"
#include "sched/ranks.hpp"

namespace tsched {

namespace {
/// Longest path over the unclustered subgraph (mean exec on nodes, mean
/// comm on edges), returned source-to-sink; empty when all tasks clustered.
std::vector<TaskId> critical_path_of_remainder(const Problem& problem,
                                               const std::vector<double>& mean_w,
                                               const std::vector<std::uint8_t>& clustered,
                                               const std::vector<TaskId>& topo) {
    const Dag& dag = problem.dag();
    const std::size_t n = dag.num_tasks();
    std::vector<double> dist(n, 0.0);
    std::vector<TaskId> next(n, kInvalidTask);
    double best = -1.0;
    TaskId start = kInvalidTask;
    for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
        const TaskId v = *it;
        const auto vi = static_cast<std::size_t>(v);
        if (clustered[vi]) continue;
        double succ_best = 0.0;
        TaskId succ_next = kInvalidTask;
        for (const AdjEdge& e : dag.successors(v)) {
            const auto si = static_cast<std::size_t>(e.task);
            if (clustered[si]) continue;
            const double via = problem.mean_comm_data(e.data) + dist[si];
            if (via > succ_best) {
                succ_best = via;
                succ_next = e.task;
            }
        }
        dist[vi] = mean_w[vi] + succ_best;
        next[vi] = succ_next;
        if (dist[vi] > best) {
            best = dist[vi];
            start = v;
        }
    }
    std::vector<TaskId> path;
    for (TaskId v = start; v != kInvalidTask; v = next[static_cast<std::size_t>(v)]) {
        path.push_back(v);
    }
    return path;
}
}  // namespace

Schedule LinearClusteringScheduler::schedule(const Problem& problem) const {
    const std::size_t n = problem.num_tasks();
    const std::size_t procs = problem.num_procs();
    const auto topo = topological_order(problem.dag());
    // Each task's mean execution cost, folded once (mean_exec is O(P)) for
    // the repeated critical-path passes and the cluster weights.
    std::vector<double> mean_w(n);
    for (std::size_t v = 0; v < n; ++v) mean_w[v] = problem.mean_exec(static_cast<TaskId>(v));

    // Phase 1: linear clustering by repeated critical-path extraction.
    std::vector<std::uint8_t> clustered(n, 0);
    std::vector<std::vector<TaskId>> clusters;
    for (;;) {
        const auto path = critical_path_of_remainder(problem, mean_w, clustered, topo);
        if (path.empty()) break;
        for (const TaskId v : path) clustered[static_cast<std::size_t>(v)] = 1;
        clusters.push_back(path);
    }

    // Phase 2: LPT mapping of clusters onto processors by mean work.
    std::vector<double> cluster_work(clusters.size(), 0.0);
    for (std::size_t c = 0; c < clusters.size(); ++c) {
        for (const TaskId v : clusters[c]) cluster_work[c] += mean_w[static_cast<std::size_t>(v)];
    }
    std::vector<std::size_t> cluster_order(clusters.size());
    std::iota(cluster_order.begin(), cluster_order.end(), 0);
    std::sort(cluster_order.begin(), cluster_order.end(), [&](std::size_t a, std::size_t b) {
        if (cluster_work[a] != cluster_work[b]) return cluster_work[a] > cluster_work[b];
        return a < b;
    });
    std::vector<double> load(procs, 0.0);
    std::vector<ProcId> assignment(n, 0);
    for (const std::size_t c : cluster_order) {
        const auto proc = static_cast<ProcId>(
            std::min_element(load.begin(), load.end()) - load.begin());
        for (const TaskId v : clusters[c]) assignment[static_cast<std::size_t>(v)] = proc;
        load[static_cast<std::size_t>(proc)] += cluster_work[c];
    }

    // Phase 3: time the placements in decreasing upward-rank order.
    const auto rank = upward_rank(problem, RankCost::kMean);
    ScheduleBuilder builder(problem);
    for (const TaskId v : order_by_decreasing(rank)) {
        builder.place(v, assignment[static_cast<std::size_t>(v)], /*insertion=*/true);
    }
    return std::move(builder).take();
}

}  // namespace tsched
