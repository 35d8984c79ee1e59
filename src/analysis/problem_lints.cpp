#include "analysis/problem_lints.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <unordered_set>

#include "graph/algorithms.hpp"

namespace tsched::analysis {

namespace {

std::string fmt(double x) {
    std::ostringstream os;
    os << x;
    return os.str();
}

/// Tasks that cannot be topologically ordered (they lie on or behind a
/// cycle).  Kahn's algorithm; empty result means acyclic.
std::vector<TaskId> cycle_tasks(const Dag& dag) {
    const std::size_t n = dag.num_tasks();
    std::vector<std::size_t> indegree(n);
    std::vector<TaskId> queue;
    for (std::size_t v = 0; v < n; ++v) {
        indegree[v] = dag.in_degree(static_cast<TaskId>(v));
        if (indegree[v] == 0) queue.push_back(static_cast<TaskId>(v));
    }
    std::size_t popped = 0;
    while (popped < queue.size()) {
        const TaskId u = queue[popped++];
        for (const AdjEdge& e : dag.successors(u)) {
            if (--indegree[static_cast<std::size_t>(e.task)] == 0) queue.push_back(e.task);
        }
    }
    std::vector<TaskId> stuck;
    for (std::size_t v = 0; v < n; ++v) {
        if (indegree[v] > 0) stuck.push_back(static_cast<TaskId>(v));
    }
    return stuck;
}

}  // namespace

void lint_dag(const Dag& dag, Diagnostics& diags, std::size_t redundancy_task_limit) {
    const std::size_t n = dag.num_tasks();
    if (n == 0) return;

    const std::vector<TaskId> stuck = cycle_tasks(dag);
    if (!stuck.empty()) {
        diags.add(Code::kDagCycle, SourceLoc{stuck.front(), kInvalidProc, -1},
                  "task graph contains a directed cycle (" + std::to_string(stuck.size()) +
                      " task(s) unorderable, first: task " + std::to_string(stuck.front()) +
                      ")");
    }

    for (std::size_t vi = 0; vi < n; ++vi) {
        const auto v = static_cast<TaskId>(vi);
        const double w = dag.work(v);
        if (!std::isfinite(w) || w < 0.0) {
            diags.add(Code::kDagBadWork, SourceLoc{v, kInvalidProc, -1},
                      "task " + std::to_string(vi) + " has invalid work " + fmt(w));
        } else if (w == 0.0) {
            diags.add(Code::kDagZeroWork, SourceLoc{v, kInvalidProc, -1},
                      "task " + std::to_string(vi) + " has zero work");
        }
        if (n > 1 && dag.in_degree(v) == 0 && dag.out_degree(v) == 0) {
            diags.add(Code::kDagIsolatedTask, SourceLoc{v, kInvalidProc, -1},
                      "task " + std::to_string(vi) + " has no predecessors and no successors");
        }
        std::unordered_set<TaskId> seen;
        for (const AdjEdge& e : dag.successors(v)) {
            const std::string edge = "edge " + std::to_string(vi) + " -> " +
                                     std::to_string(e.task);
            if (!std::isfinite(e.data) || e.data < 0.0) {
                diags.add(Code::kDagBadEdgeData, SourceLoc{v, kInvalidProc, -1},
                          edge + " has invalid data volume " + fmt(e.data));
            }
            if (e.task == v) {
                diags.add(Code::kDagSelfEdge, SourceLoc{v, kInvalidProc, -1},
                          edge + " is a self-edge");
            } else if (!seen.insert(e.task).second) {
                diags.add(Code::kDagDuplicateEdge, SourceLoc{v, kInvalidProc, -1},
                          edge + " is recorded more than once");
            }
        }
    }

    if (const std::size_t components = weakly_connected_components(dag); components > 1) {
        diags.add(Code::kDagDisconnected, SourceLoc{},
                  "task graph has " + std::to_string(components) +
                      " weakly connected components");
    }

    // Transitively redundant edges: u -> v with a longer path u ->* v.  Only
    // meaningful (and only safe to compute) on acyclic graphs.
    if (stuck.empty() && n <= redundancy_task_limit) {
        const Closure closure = transitive_closure(dag);
        for (std::size_t ui = 0; ui < n; ++ui) {
            const auto u = static_cast<TaskId>(ui);
            for (const AdjEdge& e : dag.successors(u)) {
                if (e.task == u) continue;
                bool redundant = false;
                for (const AdjEdge& mid : dag.successors(u)) {
                    if (mid.task == e.task || mid.task == u) continue;
                    if (closure.reaches(mid.task, e.task)) {
                        redundant = true;
                        break;
                    }
                }
                if (redundant) {
                    diags.add(Code::kDagRedundantEdge, SourceLoc{u, kInvalidProc, -1},
                              "edge " + std::to_string(ui) + " -> " + std::to_string(e.task) +
                                  " is implied by a longer path");
                }
            }
        }
    }
}

double estimate_beta(const CostMatrix& costs) {
    const std::size_t n = costs.num_tasks();
    const std::size_t p = costs.num_procs();
    if (n == 0 || p < 2) return 0.0;
    // For k iid draws from U(m(1-b/2), m(1+b/2)) the expected range is
    // b*m*(k-1)/(k+1); invert per row and average.
    double sum = 0.0;
    std::size_t rows = 0;
    for (std::size_t vi = 0; vi < n; ++vi) {
        const auto v = static_cast<TaskId>(vi);
        const double mean = costs.mean(v);
        if (!(mean > 0.0) || !std::isfinite(mean)) continue;
        sum += (costs.max(v) - costs.min(v)) / mean * (static_cast<double>(p) + 1.0) /
               (static_cast<double>(p) - 1.0);
        ++rows;
    }
    return rows ? sum / static_cast<double>(rows) : 0.0;
}

void lint_cost_matrix(const CostMatrix& costs, Diagnostics& diags,
                      std::optional<double> declared_beta) {
    const std::size_t n = costs.num_tasks();
    const std::size_t p = costs.num_procs();
    std::size_t degenerate_rows = 0;
    for (std::size_t vi = 0; vi < n; ++vi) {
        const auto v = static_cast<TaskId>(vi);
        for (std::size_t pi = 0; pi < p; ++pi) {
            const double c = costs(v, static_cast<ProcId>(pi));
            const SourceLoc loc{v, static_cast<ProcId>(pi), -1};
            if (!std::isfinite(c)) {
                diags.add(Code::kCostNonFinite, loc,
                          "w(" + std::to_string(vi) + ", P" + std::to_string(pi) +
                              ") = " + fmt(c) + " is not finite");
            } else if (c <= 0.0) {
                diags.add(Code::kCostNonPositive, loc,
                          "w(" + std::to_string(vi) + ", P" + std::to_string(pi) +
                              ") = " + fmt(c) + " is not positive");
            }
        }
        if (p > 1 && declared_beta && *declared_beta > 0.0 && costs.stddev(v) == 0.0) {
            ++degenerate_rows;
            if (degenerate_rows <= 4) {
                diags.add(Code::kCostDegenerateRow, SourceLoc{v, kInvalidProc, -1},
                          "task " + std::to_string(vi) +
                              " has identical cost on every processor although beta = " +
                              fmt(*declared_beta));
            }
        }
    }
    if (degenerate_rows > 4) {
        diags.add(Code::kCostDegenerateRow, SourceLoc{},
                  std::to_string(degenerate_rows - 4) + " further degenerate cost row(s)");
    }

    if (declared_beta && p > 1 && n > 0) {
        const double realized = estimate_beta(costs);
        const double declared = *declared_beta;
        // The range estimator is noisy on few tasks/processors; use a loose
        // absolute floor on top of the relative band.
        const double slack = std::max(0.25 * declared, 0.15);
        if (std::abs(realized - declared) > slack) {
            diags.add(Code::kCostBetaMismatch, SourceLoc{},
                      "realized heterogeneity ~" + fmt(realized) + " but beta = " +
                          fmt(declared) + " was declared");
        }
    }
}

bool check_dimensions(const Dag& dag, const Machine& machine, const CostMatrix& costs,
                      Diagnostics& diags) {
    bool ok = true;
    if (costs.num_tasks() != dag.num_tasks()) {
        diags.add(Code::kCostDimMismatch, SourceLoc{},
                  "cost matrix has " + std::to_string(costs.num_tasks()) + " rows but the DAG " +
                      std::to_string(dag.num_tasks()) + " tasks");
        ok = false;
    }
    if (costs.num_procs() != machine.num_procs()) {
        diags.add(Code::kCostDimMismatch, SourceLoc{},
                  "cost matrix has " + std::to_string(costs.num_procs()) +
                      " columns but the machine " + std::to_string(machine.num_procs()) +
                      " processors");
        ok = false;
    }
    return ok;
}

void lint_calibration(const Problem& problem, Diagnostics& diags,
                      const InstanceExpectations& expect) {
    if (expect.ccr && *expect.ccr > 0.0 && problem.dag().num_edges() > 0) {
        const double realized = problem.realized_ccr();
        const double requested = *expect.ccr;
        if (std::abs(realized - requested) > expect.tolerance * requested) {
            diags.add(Code::kInstanceCcrMismatch, SourceLoc{},
                      "realized CCR " + fmt(realized) + " deviates from requested " +
                          fmt(requested) + " by more than " +
                          std::to_string(static_cast<int>(expect.tolerance * 100)) + "%");
        }
    }

    if (expect.avg_exec && *expect.avg_exec > 0.0 && problem.num_tasks() > 0) {
        double sum = 0.0;
        for (std::size_t v = 0; v < problem.num_tasks(); ++v) {
            sum += problem.costs().mean(static_cast<TaskId>(v));
        }
        const double realized = sum / static_cast<double>(problem.num_tasks());
        const double requested = *expect.avg_exec;
        if (std::abs(realized - requested) > expect.tolerance * requested) {
            diags.add(Code::kInstanceAvgExecMismatch, SourceLoc{},
                      "realized mean execution cost " + fmt(realized) +
                          " deviates from requested " + fmt(requested));
        }
    }
}

void lint_problem(const Problem& problem, Diagnostics& diags,
                  const InstanceExpectations& expect) {
    lint_dag(problem.dag(), diags);
    lint_cost_matrix(problem.costs(), diags, expect.beta);
    lint_calibration(problem, diags, expect);
}

}  // namespace tsched::analysis
