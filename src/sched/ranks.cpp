#include "sched/ranks.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <stdexcept>

#include "obs/obs.hpp"
#include "platform/link_model.hpp"
#include "trace/trace.hpp"
#include "util/thread_pool.hpp"

namespace tsched {

const char* rank_cost_name(RankCost rc) noexcept {
    switch (rc) {
        case RankCost::kMean: return "mean";
        case RankCost::kMedian: return "median";
        case RankCost::kWorst: return "worst";
        case RankCost::kBest: return "best";
    }
    return "?";
}

double scalar_cost(const Problem& problem, TaskId v, RankCost rc) {
    const CostMatrix& costs = problem.costs();
    switch (rc) {
        case RankCost::kMean: return costs.mean(v);
        case RankCost::kMedian: return costs.median(v);
        case RankCost::kWorst: return costs.max(v);
        case RankCost::kBest: return costs.min(v);
    }
    return costs.mean(v);
}

namespace {

/// Forward topological order by FIFO Kahn over the CSR view, into caller
/// scratch.  Every rank below is a recurrence whose per-task fold runs over
/// that task's own adjacency list (order fixed by the CSR), so the
/// values are identical under *any* topological processing order — FIFO is
/// simply the cheapest deterministic one.  The public topological_order()
/// (priority-queue Kahn, id tie-breaks) is unchanged for callers that
/// consume the order itself.
void topo_order_csr(const CsrAdjacency& csr, std::vector<std::size_t>& indeg,
                    std::vector<TaskId>& out) {
    const std::size_t n = csr.num_tasks();
    indeg.resize(n);
    out.clear();
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        indeg[i] = csr.in_degree(static_cast<TaskId>(i));
        if (indeg[i] == 0) out.push_back(static_cast<TaskId>(i));
    }
    for (std::size_t head = 0; head < out.size(); ++head) {
        for (const TaskId s : csr.succ_tasks(out[head])) {
            if (--indeg[static_cast<std::size_t>(s)] == 0) out.push_back(s);
        }
    }
    if (out.size() != n) throw std::invalid_argument("topological_order: graph has a cycle");
}

RankWorkspace& tls_workspace() {
    thread_local RankWorkspace ws;
    return ws;
}

/// Bucket tasks by longest path length (edge count) from the exit set:
/// level 0 holds the sinks, level L tasks depend only on levels < L, so one
/// level is an embarrassingly parallel wavefront for the upward recurrences.
/// Fills ws.level / ws.level_tasks / ws.level_off (buckets ascending by id).
void level_index_from_sinks(const CsrAdjacency& csr, RankWorkspace& ws) {
    const std::size_t n = csr.num_tasks();
    topo_order_csr(csr, ws.indeg, ws.topo);
    ws.level.assign(n, 0);
    std::size_t max_level = 0;
    for (auto it = ws.topo.rbegin(); it != ws.topo.rend(); ++it) {
        const auto vi = static_cast<std::size_t>(*it);
        std::size_t h = 0;
        for (const TaskId s : csr.succ_tasks(*it)) {
            h = std::max(h, ws.level[static_cast<std::size_t>(s)] + 1);
        }
        ws.level[vi] = h;
        max_level = std::max(max_level, h);
    }
    ws.level_off.assign(max_level + 2, 0);
    for (std::size_t i = 0; i < n; ++i) ++ws.level_off[ws.level[i] + 1];
    for (std::size_t l = 1; l < ws.level_off.size(); ++l) ws.level_off[l] += ws.level_off[l - 1];
    ws.level_tasks.resize(n);
    std::vector<std::size_t> cursor(ws.level_off.begin(), ws.level_off.end() - 1);
    for (std::size_t i = 0; i < n; ++i) {
        ws.level_tasks[cursor[ws.level[i]]++] = static_cast<TaskId>(i);
    }
}

/// Levels smaller than this are computed inline: pool dispatch costs more
/// than the handful of folds it would spread.
constexpr std::size_t kParallelLevelCutoff = 256;

template <typename PerTask>
void run_levels(ThreadPool& pool, const RankWorkspace& ws, const PerTask& per_task) {
    for (std::size_t l = 0; l + 1 < ws.level_off.size(); ++l) {
        const std::size_t begin = ws.level_off[l];
        const std::size_t count = ws.level_off[l + 1] - begin;
        if (count < kParallelLevelCutoff || pool.size() <= 1) {
            for (std::size_t i = 0; i < count; ++i) per_task(ws.level_tasks[begin + i]);
        } else {
            parallel_for(pool, count,
                         [&](std::size_t i) { per_task(ws.level_tasks[begin + i]); });
        }
    }
}

}  // namespace

void upward_rank(const Problem& problem, RankCost rc, RankWorkspace& ws,
                 std::vector<double>& out) {
    // The per-call rank cost; every rank entry point records here (DESIGN §9).
    TSCHED_OBS_PHASE("sched/phase/rank_ms");
    const CsrAdjacency& csr = problem.dag().csr();
    out.assign(csr.num_tasks(), 0.0);
    topo_order_csr(csr, ws.indeg, ws.topo);
    for (auto it = ws.topo.rbegin(); it != ws.topo.rend(); ++it) {
        const TaskId v = *it;
        const auto succs = csr.succ_tasks(v);
        const auto data = csr.succ_data(v);
        double best = 0.0;
        for (std::size_t i = 0; i < succs.size(); ++i) {
            best = std::max(best, problem.mean_comm_data(data[i]) +
                                      out[static_cast<std::size_t>(succs[i])]);
        }
        out[static_cast<std::size_t>(v)] = scalar_cost(problem, v, rc) + best;
    }
}

std::vector<double> upward_rank(const Problem& problem, RankCost rc) {
    std::vector<double> rank;
    upward_rank(problem, rc, tls_workspace(), rank);
    return rank;
}

std::vector<double> upward_rank(const Problem& problem, ThreadPool& pool, RankCost rc) {
    TSCHED_OBS_PHASE("sched/phase/rank_ms");
    const CsrAdjacency& csr = problem.dag().csr();
    std::vector<double> rank(csr.num_tasks(), 0.0);
    if (csr.num_tasks() == 0) return rank;
    RankWorkspace& ws = tls_workspace();
    level_index_from_sinks(csr, ws);
    run_levels(pool, ws, [&](TaskId v) {
        const auto succs = csr.succ_tasks(v);
        const auto data = csr.succ_data(v);
        double best = 0.0;
        for (std::size_t i = 0; i < succs.size(); ++i) {
            best = std::max(best, problem.mean_comm_data(data[i]) +
                                      rank[static_cast<std::size_t>(succs[i])]);
        }
        rank[static_cast<std::size_t>(v)] = scalar_cost(problem, v, rc) + best;
    });
    return rank;
}

void downward_rank(const Problem& problem, RankCost rc, RankWorkspace& ws,
                   std::vector<double>& out) {
    TSCHED_OBS_PHASE("sched/phase/rank_ms");
    const CsrAdjacency& csr = problem.dag().csr();
    out.assign(csr.num_tasks(), 0.0);
    topo_order_csr(csr, ws.indeg, ws.topo);
    // rank_d(u) + w(u) once per task, not once per out-edge: the row
    // statistic behind w(u) is an O(P) fold.  The per-edge sum keeps its
    // (rank_d(u) + w(u)) + c(u, v) association, so the ranks are unchanged.
    ws.finish.resize(csr.num_tasks());
    const auto data = csr.edge_data();
    for (const TaskId v : ws.topo) {
        const auto vi = static_cast<std::size_t>(v);
        const auto preds = csr.pred_tasks(v);
        const auto edges = csr.pred_edges(v);
        double best = 0.0;
        for (std::size_t i = 0; i < preds.size(); ++i) {
            best = std::max(best, ws.finish[static_cast<std::size_t>(preds[i])] +
                                      problem.mean_comm_data(data[edges[i]]));
        }
        out[vi] = best;
        ws.finish[vi] = best + scalar_cost(problem, v, rc);
    }
}

std::vector<double> downward_rank(const Problem& problem, RankCost rc) {
    std::vector<double> rank;
    downward_rank(problem, rc, tls_workspace(), rank);
    return rank;
}

void static_level(const Problem& problem, RankCost rc, RankWorkspace& ws,
                  std::vector<double>& out) {
    TSCHED_OBS_PHASE("sched/phase/rank_ms");
    const CsrAdjacency& csr = problem.dag().csr();
    out.assign(csr.num_tasks(), 0.0);
    topo_order_csr(csr, ws.indeg, ws.topo);
    for (auto it = ws.topo.rbegin(); it != ws.topo.rend(); ++it) {
        const TaskId v = *it;
        double best = 0.0;
        for (const TaskId s : csr.succ_tasks(v)) {
            best = std::max(best, out[static_cast<std::size_t>(s)]);
        }
        out[static_cast<std::size_t>(v)] = scalar_cost(problem, v, rc) + best;
    }
}

std::vector<double> static_level(const Problem& problem, RankCost rc) {
    std::vector<double> level;
    static_level(problem, rc, tls_workspace(), level);
    return level;
}

std::vector<double> alap_start(const Problem& problem, RankCost rc) {
    std::vector<double> rank = upward_rank(problem, rc);
    const double cp = rank.empty() ? 0.0 : *std::max_element(rank.begin(), rank.end());
    for (double& r : rank) r = cp - r;
    return rank;
}

namespace {

/// One OCT row: the per-(task, processor) fold, shared by every variant so
/// the serial, workspace, and parallel tables are bit-identical.
///
/// `uniform` is the problem's UniformLinkModel (nullptr for any other
/// model), detected once per table by the callers.  Uniform links charge
/// one remote cost r >= 0 per edge for every distinct pair, so the inner
/// min over q folds in O(P) instead of O(P^2).  With
///   local[q]  = (0 + w(c, q)) + OCT(c, q)
///   remote[q] = (r + w(c, q)) + OCT(c, q)
/// the generic loop's min over q for row processor p is
/// min(local[p], min over q != p of remote[q]).  Rounded addition is
/// monotone, so remote[p] >= local[p] and letting q = p into the remote min
/// cannot change the result: it is min(local[p], min over all q of
/// remote[q]), one shared min per edge.  Each candidate keeps the generic
/// loop's (comm + exec) + oct association and min/max pick one of their
/// operands without rounding, so the row is bit-identical to the generic
/// loop's.
void oct_row(const Problem& problem, const CsrAdjacency& csr, const LinkModel& links,
             const UniformLinkModel* uniform, std::size_t procs, TaskId v,
             std::vector<double>& oct) {
    const auto vi = static_cast<std::size_t>(v);
    const auto succs = csr.succ_tasks(v);
    const auto data = csr.succ_data(v);
    double* row = oct.data() + vi * procs;
    if (uniform != nullptr) {
        for (std::size_t pi = 0; pi < procs; ++pi) row[pi] = 0.0;
        for (std::size_t si = 0; si < succs.size(); ++si) {
            const TaskId c = succs[si];
            const double* child = oct.data() + static_cast<std::size_t>(c) * procs;
            const double r = uniform->comm_time(data[si], 0, 1);
            double min_remote = std::numeric_limits<double>::infinity();
            for (std::size_t qi = 0; qi < procs; ++qi) {
                min_remote = std::min(
                    min_remote, (r + problem.exec_time(c, static_cast<ProcId>(qi))) + child[qi]);
            }
            for (std::size_t pi = 0; pi < procs; ++pi) {
                const double local =
                    (0.0 + problem.exec_time(c, static_cast<ProcId>(pi))) + child[pi];
                row[pi] = std::max(row[pi], std::min(local, min_remote));
            }
        }
        return;
    }
    for (std::size_t pi = 0; pi < procs; ++pi) {
        double worst_child = 0.0;
        for (std::size_t si = 0; si < succs.size(); ++si) {
            const auto ci = static_cast<std::size_t>(succs[si]);
            double best_q = std::numeric_limits<double>::infinity();
            for (std::size_t qi = 0; qi < procs; ++qi) {
                const double via = links.comm_time(data[si], static_cast<ProcId>(pi),
                                                   static_cast<ProcId>(qi)) +
                                   problem.exec_time(succs[si], static_cast<ProcId>(qi)) +
                                   oct[ci * procs + qi];
                best_q = std::min(best_q, via);
            }
            worst_child = std::max(worst_child, best_q);
        }
        row[pi] = worst_child;
    }
}

}  // namespace

void optimistic_cost_table(const Problem& problem, RankWorkspace& ws, std::vector<double>& out) {
    TSCHED_OBS_PHASE("sched/phase/rank_ms");
    const CsrAdjacency& csr = problem.dag().csr();
    const std::size_t n = csr.num_tasks();
    const std::size_t procs = problem.num_procs();
    TSCHED_COUNT_ADD("oct_cells", n * procs);
    const LinkModel& links = problem.machine().links();
    const auto* uniform = dynamic_cast<const UniformLinkModel*>(&links);
    out.assign(n * procs, 0.0);
    topo_order_csr(csr, ws.indeg, ws.topo);
    for (auto it = ws.topo.rbegin(); it != ws.topo.rend(); ++it) {
        oct_row(problem, csr, links, uniform, procs, *it, out);
    }
}

std::vector<double> optimistic_cost_table(const Problem& problem) {
    std::vector<double> oct;
    optimistic_cost_table(problem, tls_workspace(), oct);
    return oct;
}

std::vector<double> optimistic_cost_table(const Problem& problem, ThreadPool& pool) {
    TSCHED_OBS_PHASE("sched/phase/rank_ms");
    const CsrAdjacency& csr = problem.dag().csr();
    const std::size_t n = csr.num_tasks();
    const std::size_t procs = problem.num_procs();
    TSCHED_COUNT_ADD("oct_cells", n * procs);
    const LinkModel& links = problem.machine().links();
    const auto* uniform = dynamic_cast<const UniformLinkModel*>(&links);
    std::vector<double> oct(n * procs, 0.0);
    if (n == 0) return oct;
    RankWorkspace& ws = tls_workspace();
    level_index_from_sinks(csr, ws);
    run_levels(pool, ws,
               [&](TaskId v) { oct_row(problem, csr, links, uniform, procs, v, oct); });
    return oct;
}

namespace {
/// Order-preserving unsigned image of a key: comparing images as integers
/// compares the doubles, with -0.0 mapped onto +0.0 (the two compare equal)
/// and -inf / +inf at the ends.  Keys are never NaN (ranks are sums and
/// maxima of finite costs), which have no place in a total order.
std::uint64_t order_bits(double x) noexcept {
    const auto b = std::bit_cast<std::uint64_t>(x == 0.0 ? 0.0 : x);
    return (b >> 63) != 0 ? ~b : b | (std::uint64_t{1} << 63);
}

/// The ascending-id stable sort by key, as one std::sort over (key image,
/// id) pairs: the comparator (key, then id) is a total order, so the sort
/// needs no stability to land on the same permutation.
std::vector<TaskId> ordered(const std::vector<double>& key, bool decreasing) {
    struct Item {
        std::uint64_t bits;
        TaskId id;
    };
    const std::size_t n = key.size();
    std::vector<Item> items(n);
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t b = order_bits(key[i]);
        items[i] = {decreasing ? ~b : b, static_cast<TaskId>(i)};
    }
    std::sort(items.begin(), items.end(), [](const Item& a, const Item& b) {
        return a.bits != b.bits ? a.bits < b.bits : a.id < b.id;
    });
    std::vector<TaskId> order(n);
    for (std::size_t i = 0; i < n; ++i) order[i] = items[i].id;
    return order;
}
}  // namespace

std::vector<TaskId> order_by_decreasing(const std::vector<double>& key) {
    return ordered(key, true);
}

std::vector<TaskId> order_by_increasing(const std::vector<double>& key) {
    return ordered(key, false);
}

}  // namespace tsched
