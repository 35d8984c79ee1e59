// Unit tests for the rank computations (sched/ranks.hpp) and the ILS rank /
// optimistic cost table (core/ils.hpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "core/ils.hpp"
#include "sched/ranks.hpp"
#include "util/thread_pool.hpp"
#include "workload/instance.hpp"

namespace tsched {
namespace {

/// Chain 0 -> 1 -> 2, data 4 per edge; 2 procs; cost rows {2,4}, {6,6}, {1,3};
/// uniform links latency 0 bandwidth 2 (mean comm of data 4 = 2).
Problem chain_problem() {
    DagBuilder builder;
    builder.add_task(1.0);
    builder.add_task(1.0);
    builder.add_task(1.0);
    builder.add_edge(0, 1, 4.0);
    builder.add_edge(1, 2, 4.0);
    Dag dag = std::move(builder).build();
    const auto links = std::make_shared<UniformLinkModel>(0.0, 2.0);
    Machine machine = Machine::homogeneous(2, links);
    CostMatrix costs(3, 2, {2.0, 4.0, 6.0, 6.0, 1.0, 3.0});
    return Problem(std::move(dag), std::move(machine), std::move(costs));
}

TEST(ScalarCost, AllVariants) {
    const Problem p = chain_problem();
    EXPECT_DOUBLE_EQ(scalar_cost(p, 0, RankCost::kMean), 3.0);
    EXPECT_DOUBLE_EQ(scalar_cost(p, 0, RankCost::kMedian), 3.0);
    EXPECT_DOUBLE_EQ(scalar_cost(p, 0, RankCost::kWorst), 4.0);
    EXPECT_DOUBLE_EQ(scalar_cost(p, 0, RankCost::kBest), 2.0);
}

TEST(UpwardRank, HandComputedChain) {
    const Problem p = chain_problem();
    const auto ru = upward_rank(p, RankCost::kMean);
    // rank(2) = 2; rank(1) = 6 + (2 + 2) = 10; rank(0) = 3 + (2 + 10) = 15.
    EXPECT_DOUBLE_EQ(ru[2], 2.0);
    EXPECT_DOUBLE_EQ(ru[1], 10.0);
    EXPECT_DOUBLE_EQ(ru[0], 15.0);
}

TEST(DownwardRank, HandComputedChain) {
    const Problem p = chain_problem();
    const auto rd = downward_rank(p, RankCost::kMean);
    // rd(0) = 0; rd(1) = 0 + 3 + 2 = 5; rd(2) = 5 + 6 + 2 = 13.
    EXPECT_DOUBLE_EQ(rd[0], 0.0);
    EXPECT_DOUBLE_EQ(rd[1], 5.0);
    EXPECT_DOUBLE_EQ(rd[2], 13.0);
}

TEST(Ranks, UpDownSumConstantOnCriticalPath) {
    const Problem p = chain_problem();
    const auto ru = upward_rank(p);
    const auto rd = downward_rank(p);
    // On a chain every task is critical: ru + rd == CP length.
    const double cp = ru[0];
    for (std::size_t v = 0; v < 3; ++v) EXPECT_DOUBLE_EQ(ru[v] + rd[v], cp);
}

TEST(StaticLevel, IgnoresCommunication) {
    const Problem p = chain_problem();
    const auto sl = static_level(p, RankCost::kMean);
    EXPECT_DOUBLE_EQ(sl[2], 2.0);
    EXPECT_DOUBLE_EQ(sl[1], 8.0);
    EXPECT_DOUBLE_EQ(sl[0], 11.0);
}

TEST(AlapStart, ZeroOnCriticalEntry) {
    const Problem p = chain_problem();
    const auto alap = alap_start(p, RankCost::kMean);
    EXPECT_DOUBLE_EQ(alap[0], 0.0);
    EXPECT_DOUBLE_EQ(alap[1], 5.0);
    EXPECT_DOUBLE_EQ(alap[2], 13.0);
}

TEST(OrderBy, DeterministicTieBreaks) {
    const std::vector<double> key{3.0, 1.0, 3.0, 2.0};
    EXPECT_EQ(order_by_decreasing(key), (std::vector<TaskId>{0, 2, 3, 1}));
    EXPECT_EQ(order_by_increasing(key), (std::vector<TaskId>{1, 3, 0, 2}));
}

TEST(UpwardRank, DecreasingOrderIsTopological) {
    workload::InstanceParams params;
    params.size = 80;
    const Problem p = workload::make_instance(params, 17);
    const auto ru = upward_rank(p);
    const auto order = order_by_decreasing(ru);
    std::vector<std::size_t> pos(p.num_tasks());
    for (std::size_t i = 0; i < order.size(); ++i) pos[static_cast<std::size_t>(order[i])] = i;
    for (std::size_t u = 0; u < p.num_tasks(); ++u) {
        for (const AdjEdge& e : p.dag().successors(static_cast<TaskId>(u))) {
            EXPECT_LT(pos[u], pos[static_cast<std::size_t>(e.task)]);
        }
    }
}

TEST(IlsRank, ReducesToUpwardRankWhenHomogeneous) {
    workload::InstanceParams params;
    params.size = 50;
    params.beta = 0.0;  // homogeneous costs: sigma == 0
    const Problem p = workload::make_instance(params, 23);
    const auto ils = IlsScheduler::ils_rank(p, /*variance_rank=*/true);
    const auto heft = upward_rank(p, RankCost::kMean);
    ASSERT_EQ(ils.size(), heft.size());
    for (std::size_t v = 0; v < ils.size(); ++v) EXPECT_NEAR(ils[v], heft[v], 1e-9);
}

TEST(IlsRank, VarianceRaisesRiskyTasks) {
    const Problem p = chain_problem();
    const auto with_var = IlsScheduler::ils_rank(p, true);
    const auto without = IlsScheduler::ils_rank(p, false);
    // Task 0 has stddev sqrt(2); task 1 has stddev 0.
    EXPECT_GT(with_var[0], without[0]);
    EXPECT_DOUBLE_EQ(with_var[1] - without[1], with_var[2] - without[2]);
}

TEST(OptimisticCostTable, HandComputedChain) {
    const Problem p = chain_problem();
    const auto oct = IlsScheduler::optimistic_cost_table(p);
    // OCT(2, *) = 0.
    EXPECT_DOUBLE_EQ(oct[2 * 2 + 0], 0.0);
    EXPECT_DOUBLE_EQ(oct[2 * 2 + 1], 0.0);
    // OCT(1, p) = min over q of comm(p,q) + w(2,q): comm = 2 when p != q.
    // p0: min(0 + 1, 2 + 3) = 1;  p1: min(2 + 1, 0 + 3) = 3.
    EXPECT_DOUBLE_EQ(oct[1 * 2 + 0], 1.0);
    EXPECT_DOUBLE_EQ(oct[1 * 2 + 1], 3.0);
    // OCT(0, p) = min over q of comm + w(1,q) + OCT(1,q):
    // p0: min(0+6+1, 2+6+3) = 7;  p1: min(2+6+1, 0+6+3) = 9.
    EXPECT_DOUBLE_EQ(oct[0 * 2 + 0], 7.0);
    EXPECT_DOUBLE_EQ(oct[0 * 2 + 1], 9.0);
}

TEST(OptimisticCostTable, ExitRowsZeroEverywhere) {
    workload::InstanceParams params;
    params.size = 40;
    const Problem p = workload::make_instance(params, 31);
    const auto oct = IlsScheduler::optimistic_cost_table(p);
    for (const TaskId sink : p.dag().sinks()) {
        for (std::size_t q = 0; q < p.num_procs(); ++q) {
            EXPECT_DOUBLE_EQ(oct[static_cast<std::size_t>(sink) * p.num_procs() + q], 0.0);
        }
    }
}

/// The generic O(m * P^2) OCT fold, written out independently of the
/// library: the oracle the uniform-links O(P) fold must match bit for bit.
std::vector<double> reference_oct(const Problem& problem) {
    const std::size_t n = problem.num_tasks();
    const std::size_t procs = problem.num_procs();
    const LinkModel& links = problem.machine().links();
    std::vector<double> oct(n * procs, 0.0);
    const CsrAdjacency& csr = problem.dag().csr();
    const std::vector<double> rank = upward_rank(problem);
    for (const TaskId v : order_by_increasing(rank)) {  // successors first
        const auto succs = csr.succ_tasks(v);
        const auto data = csr.succ_data(v);
        for (std::size_t p = 0; p < procs; ++p) {
            double worst = 0.0;
            for (std::size_t i = 0; i < succs.size(); ++i) {
                double best = std::numeric_limits<double>::infinity();
                for (std::size_t q = 0; q < procs; ++q) {
                    best = std::min(best, links.comm_time(data[i], static_cast<ProcId>(p),
                                                          static_cast<ProcId>(q)) +
                                              problem.exec_time(succs[i], static_cast<ProcId>(q)) +
                                              oct[static_cast<std::size_t>(succs[i]) * procs + q]);
                }
                worst = std::max(worst, best);
            }
            oct[static_cast<std::size_t>(v) * procs + p] = worst;
        }
    }
    return oct;
}

void expect_same_bits(const std::vector<double>& got, const std::vector<double>& want,
                      const char* what) {
    ASSERT_EQ(got.size(), want.size()) << what;
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i]), std::bit_cast<std::uint64_t>(want[i]))
            << what << " entry " << i << ": " << got[i] << " vs " << want[i];
    }
}

TEST(OptimisticCostTable, UniformFoldMatchesQuadraticFoldBitForBit) {
    // Heterogeneous costs exercise distinct minima; homogeneous ones (beta
    // 0) make the candidates of an edge tie.  A nonzero latency keeps
    // r = latency + data / bandwidth a two-term sum, as on real platforms.
    ThreadPool pool(2);
    for (const std::size_t procs : {1u, 2u, 8u}) {
        for (const double beta : {0.0, 0.5, 1.5}) {
            workload::InstanceParams params;
            params.size = 300;
            params.num_procs = procs;
            params.latency = 0.3;
            params.ccr = 5.0;
            params.beta = beta;
            const Problem p = workload::make_instance(params, 4242 + procs);
            ASSERT_NE(dynamic_cast<const UniformLinkModel*>(&p.machine().links()), nullptr);
            const std::vector<double> want = reference_oct(p);
            expect_same_bits(optimistic_cost_table(p), want, "serial");
            expect_same_bits(optimistic_cost_table(p, pool), want, "parallel");
        }
    }
}

TEST(RankCostName, Names) {
    EXPECT_STREQ(rank_cost_name(RankCost::kMean), "mean");
    EXPECT_STREQ(rank_cost_name(RankCost::kMedian), "median");
    EXPECT_STREQ(rank_cost_name(RankCost::kWorst), "worst");
    EXPECT_STREQ(rank_cost_name(RankCost::kBest), "best");
}

/// Wide fork-join: source -> `width` middle tasks -> sink.  The middle level
/// exceeds the parallel cutoff (256), so the pool overloads actually run
/// their level phases on worker threads.
Problem wide_problem(std::size_t width) {
    DagBuilder builder;
    const TaskId src = builder.add_task(1.0);
    std::vector<TaskId> mid(width);
    for (std::size_t i = 0; i < width; ++i) {
        mid[i] = builder.add_task(1.0 + static_cast<double>(i % 7));
        builder.add_edge(src, mid[i], static_cast<double>(i % 5) + 1.0);
    }
    const TaskId sink = builder.add_task(2.0);
    for (std::size_t i = 0; i < width; ++i) {
        builder.add_edge(mid[i], sink, static_cast<double>(i % 3) + 1.0);
    }
    const auto links = std::make_shared<UniformLinkModel>(0.5, 2.0);
    Machine machine = Machine::homogeneous(4, links);
    const std::size_t n = builder.num_tasks();
    Dag dag = std::move(builder).build();
    std::vector<double> costs(n * 4);
    for (std::size_t i = 0; i < costs.size(); ++i) {
        costs[i] = 1.0 + static_cast<double>((i * 37) % 11);
    }
    return Problem(std::move(dag), std::move(machine), CostMatrix(n, 4, std::move(costs)));
}

TEST(ParallelRank, UpwardRankMatchesSerialBitForBit) {
    const Problem p = wide_problem(600);
    ThreadPool pool(4);
    for (const RankCost rc :
         {RankCost::kMean, RankCost::kMedian, RankCost::kWorst, RankCost::kBest}) {
        const auto serial = upward_rank(p, rc);
        const auto par = upward_rank(p, pool, rc);
        ASSERT_EQ(serial.size(), par.size());
        for (std::size_t i = 0; i < serial.size(); ++i) {
            EXPECT_EQ(serial[i], par[i]) << "task " << i;  // exact, not near
        }
    }
}

TEST(ParallelRank, OptimisticCostTableMatchesSerialBitForBit) {
    const Problem p = wide_problem(600);
    ThreadPool pool(4);
    const auto serial = optimistic_cost_table(p);
    const auto par = optimistic_cost_table(p, pool);
    ASSERT_EQ(serial.size(), par.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i], par[i]) << "entry " << i;
    }
}

TEST(ParallelRank, SingleThreadPoolFallsBackToSerialPath) {
    const Problem p = wide_problem(300);
    ThreadPool pool(1);
    const auto serial = upward_rank(p);
    const auto par = upward_rank(p, pool);
    EXPECT_EQ(serial, par);
}

TEST(ParallelRank, WorkspaceOverloadsReuseScratchAcrossCalls) {
    const Problem a = chain_problem();
    const Problem b = wide_problem(40);
    RankWorkspace ws;
    std::vector<double> out;
    upward_rank(a, RankCost::kMean, ws, out);
    EXPECT_EQ(out, upward_rank(a, RankCost::kMean));
    upward_rank(b, RankCost::kMean, ws, out);  // workspace resized, not stale
    EXPECT_EQ(out, upward_rank(b, RankCost::kMean));
    downward_rank(a, RankCost::kMean, ws, out);
    EXPECT_EQ(out, downward_rank(a, RankCost::kMean));
    static_level(b, RankCost::kMean, ws, out);
    EXPECT_EQ(out, static_level(b));
    optimistic_cost_table(a, ws, out);
    EXPECT_EQ(out, optimistic_cost_table(a));
}

}  // namespace
}  // namespace tsched
