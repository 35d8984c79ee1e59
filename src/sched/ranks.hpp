// Task prioritisation quantities of the list-scheduling literature.
//
// All ranks collapse each task's per-processor cost row to a scalar first
// (RankCost selects how) and use the link model's mean communication cost on
// edges, exactly as defined by the HEFT paper and its follow-ups.
#pragma once

#include <vector>

#include "platform/problem.hpp"

namespace tsched {

class ThreadPool;

/// Reusable scratch for the rank computations: the FIFO-Kahn topological
/// sweep and the level index behind the parallel overloads.  A caller that
/// ranks many problems (the serve engine, benchmarks) keeps one workspace
/// and amortises every allocation; the plain overloads below use a
/// thread_local instance so repeated calls allocate nothing after warm-up.
struct RankWorkspace {
    std::vector<std::size_t> indeg;  ///< Kahn in-degree scratch
    std::vector<TaskId> topo;        ///< forward topological order (FIFO Kahn)
    std::vector<std::size_t> level;  ///< per-task level (parallel overloads)
    std::vector<TaskId> level_tasks;  ///< tasks bucketed by level
    std::vector<std::size_t> level_off;  ///< level bucket offsets
    std::vector<double> finish;  ///< downward rank + scalar cost of each finished task
};

/// How to collapse w(v, *) into the scalar used by a rank.
enum class RankCost {
    kMean,    ///< average over processors (HEFT's default)
    kMedian,  ///< median over processors
    kWorst,   ///< max over processors (pessimistic)
    kBest,    ///< min over processors (optimistic)
};

[[nodiscard]] const char* rank_cost_name(RankCost rc) noexcept;

/// Scalar execution cost of v under the chosen collapse.
[[nodiscard]] double scalar_cost(const Problem& problem, TaskId v, RankCost rc);

/// Upward rank: rank_u(v) = w(v) + max over succ s of (c̄(v,s) + rank_u(s)).
/// Exit tasks: rank_u = w.  Decreasing rank_u is a topological order.
[[nodiscard]] std::vector<double> upward_rank(const Problem& problem,
                                              RankCost rc = RankCost::kMean);

/// Allocation-free variant: computes into `out` using caller scratch.
void upward_rank(const Problem& problem, RankCost rc, RankWorkspace& ws,
                 std::vector<double>& out);

/// Level-synchronous parallel variant: tasks at equal height from the exit
/// set have no rank dependency, so each level fans out over the pool.  The
/// per-task fold is unchanged, hence bit-identical results to the serial
/// sweep; small levels are computed inline to avoid dispatch overhead.
[[nodiscard]] std::vector<double> upward_rank(const Problem& problem, ThreadPool& pool,
                                              RankCost rc = RankCost::kMean);

/// Downward rank: rank_d(v) = max over pred u of (rank_d(u) + w(u) + c̄(u,v));
/// entry tasks have rank_d = 0.
[[nodiscard]] std::vector<double> downward_rank(const Problem& problem,
                                                RankCost rc = RankCost::kMean);

/// Allocation-free variant: computes into `out` using caller scratch.
void downward_rank(const Problem& problem, RankCost rc, RankWorkspace& ws,
                   std::vector<double>& out);

/// Static level: like rank_u but ignoring communication (DLS, HLFET).
[[nodiscard]] std::vector<double> static_level(const Problem& problem,
                                               RankCost rc = RankCost::kMean);

/// Allocation-free variant: computes into `out` using caller scratch.
void static_level(const Problem& problem, RankCost rc, RankWorkspace& ws,
                  std::vector<double>& out);

/// ALAP start times under mean costs with communication: alap(v) =
/// CP_length - rank_u(v), where CP_length = max rank_u (MCP's priority).
[[nodiscard]] std::vector<double> alap_start(const Problem& problem,
                                             RankCost rc = RankCost::kMean);

/// Optimistic cost table (Arabnejad & Barbosa's PEFT table; also the basis
/// of ILS's downstream-aware selection): OCT(v, p) is the best-case length
/// of the remaining chain from v to an exit task given v runs on p and every
/// descendant picks its ideal processor.  Row-major (task x processor);
/// exit-task rows are zero.  O(m * P^2); O(m * P) on a UniformLinkModel.
[[nodiscard]] std::vector<double> optimistic_cost_table(const Problem& problem);

/// Allocation-free variant: computes into `out` using caller scratch.
void optimistic_cost_table(const Problem& problem, RankWorkspace& ws, std::vector<double>& out);

/// Level-synchronous parallel variant (see the upward_rank overload); each
/// task's P-cell row is one unit of pool work.
[[nodiscard]] std::vector<double> optimistic_cost_table(const Problem& problem,
                                                        ThreadPool& pool);

/// Task order by decreasing key; ties broken by ascending TaskId so every
/// scheduler in the library is deterministic.
[[nodiscard]] std::vector<TaskId> order_by_decreasing(const std::vector<double>& key);

/// Task order by increasing key; ties broken by ascending TaskId.
[[nodiscard]] std::vector<TaskId> order_by_increasing(const std::vector<double>& key);

}  // namespace tsched
