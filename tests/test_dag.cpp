// Unit tests for the DAG container (graph/dag.hpp).
#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "graph/dag.hpp"

namespace tsched {
namespace {

TEST(Dag, StartsEmpty) {
    Dag dag;
    EXPECT_TRUE(dag.empty());
    EXPECT_EQ(dag.num_tasks(), 0u);
    EXPECT_EQ(dag.num_edges(), 0u);
}

TEST(Dag, AddTaskAssignsDenseIds) {
    Dag dag;
    EXPECT_EQ(dag.add_task(1.0, "a"), 0);
    EXPECT_EQ(dag.add_task(2.0), 1);
    EXPECT_EQ(dag.add_task(), 2);
    EXPECT_EQ(dag.num_tasks(), 3u);
    EXPECT_EQ(dag.name(0), "a");
    EXPECT_EQ(dag.name(1), "");
    EXPECT_DOUBLE_EQ(dag.work(1), 2.0);
    EXPECT_DOUBLE_EQ(dag.work(2), 1.0);
}

TEST(Dag, PresizedConstructor) {
    Dag dag(4);
    EXPECT_EQ(dag.num_tasks(), 4u);
    EXPECT_DOUBLE_EQ(dag.work(3), 1.0);
}

TEST(Dag, AddEdgeWiresBothDirections) {
    Dag dag(3);
    dag.add_edge(0, 1, 5.0);
    dag.add_edge(0, 2, 7.0);
    ASSERT_EQ(dag.successors(0).size(), 2u);
    EXPECT_EQ(dag.successors(0)[0].task, 1);
    EXPECT_DOUBLE_EQ(dag.successors(0)[0].data, 5.0);
    ASSERT_EQ(dag.predecessors(2).size(), 1u);
    EXPECT_EQ(dag.predecessors(2)[0].task, 0);
    EXPECT_DOUBLE_EQ(dag.predecessors(2)[0].data, 7.0);
    EXPECT_EQ(dag.out_degree(0), 2u);
    EXPECT_EQ(dag.in_degree(1), 1u);
    EXPECT_EQ(dag.num_edges(), 2u);
}

TEST(Dag, RejectsBadEdges) {
    Dag dag(2);
    EXPECT_THROW(dag.add_edge(0, 0, 1.0), std::invalid_argument);       // self loop
    EXPECT_THROW(dag.add_edge(0, 5, 1.0), std::out_of_range);           // bad target
    EXPECT_THROW(dag.add_edge(-1, 1, 1.0), std::out_of_range);          // bad source
    EXPECT_THROW(dag.add_edge(0, 1, -1.0), std::invalid_argument);      // negative data
    dag.add_edge(0, 1, 1.0);
    EXPECT_THROW(dag.add_edge(0, 1, 2.0), std::invalid_argument);       // duplicate
}

TEST(Dag, RejectsBadWork) {
    Dag dag;
    EXPECT_THROW(dag.add_task(-1.0), std::invalid_argument);
    EXPECT_THROW(dag.add_task(std::numeric_limits<double>::infinity()), std::invalid_argument);
}

TEST(Dag, EdgeDataLookup) {
    Dag dag(2);
    dag.add_edge(0, 1, 3.5);
    EXPECT_DOUBLE_EQ(dag.edge_data(0, 1), 3.5);
    EXPECT_THROW((void)dag.edge_data(1, 0), std::out_of_range);
    EXPECT_TRUE(dag.has_edge(0, 1));
    EXPECT_FALSE(dag.has_edge(1, 0));
}

TEST(Dag, SetEdgeDataUpdatesBothSides) {
    Dag dag(2);
    dag.add_edge(0, 1, 1.0);
    dag.set_edge_data(0, 1, 9.0);
    EXPECT_DOUBLE_EQ(dag.successors(0)[0].data, 9.0);
    EXPECT_DOUBLE_EQ(dag.predecessors(1)[0].data, 9.0);
    EXPECT_THROW(dag.set_edge_data(1, 0, 1.0), std::out_of_range);
    EXPECT_THROW(dag.set_edge_data(0, 1, -2.0), std::invalid_argument);
}

TEST(Dag, ScaleEdgeDataMatchesPerEdgeSetEdgeData) {
    Dag a(4);
    a.add_edge(0, 1, 1.5);
    a.add_edge(0, 2, 0.1);
    a.add_edge(2, 3, 7.0);
    a.add_edge(1, 3, 0.0);
    Dag b(a);
    const double factor = 0.37;
    a.scale_edge_data(factor);
    for (TaskId u = 0; u < 4; ++u) {
        for (const AdjEdge& e : b.successors(u)) b.set_edge_data(u, e.task, e.data * factor);
    }
    EXPECT_EQ(a, b);
    for (TaskId v = 0; v < 4; ++v) {  // predecessor copies scaled too
        const auto pa = a.predecessors(v);
        const auto pb = b.predecessors(v);
        ASSERT_EQ(pa.size(), pb.size());
        for (std::size_t i = 0; i < pa.size(); ++i) EXPECT_EQ(pa[i], pb[i]);
    }
}

TEST(Dag, ScaleEdgeDataRejectsBadFactorsWithoutChanges) {
    Dag dag(2);
    dag.add_edge(0, 1, 1e300);
    const Dag before(dag);
    EXPECT_THROW(dag.scale_edge_data(-1.0), std::invalid_argument);
    EXPECT_THROW(dag.scale_edge_data(std::numeric_limits<double>::infinity()),
                 std::invalid_argument);
    EXPECT_THROW(dag.scale_edge_data(std::numeric_limits<double>::quiet_NaN()),
                 std::invalid_argument);
    EXPECT_THROW(dag.scale_edge_data(1e10), std::invalid_argument);  // overflows
    EXPECT_EQ(dag, before);
    dag.scale_edge_data(0.0);
    EXPECT_DOUBLE_EQ(dag.edge_data(0, 1), 0.0);
}

TEST(Dag, SourcesAndSinks) {
    Dag dag(4);
    dag.add_edge(0, 2, 1.0);
    dag.add_edge(1, 2, 1.0);
    dag.add_edge(2, 3, 1.0);
    EXPECT_EQ(dag.sources(), (std::vector<TaskId>{0, 1}));
    EXPECT_EQ(dag.sinks(), (std::vector<TaskId>{3}));
}

TEST(Dag, Totals) {
    Dag dag;
    dag.add_task(2.0);
    dag.add_task(3.0);
    dag.add_edge(0, 1, 4.0);
    EXPECT_DOUBLE_EQ(dag.total_work(), 5.0);
    EXPECT_DOUBLE_EQ(dag.total_data(), 4.0);
}

TEST(Dag, AcyclicityDetection) {
    Dag dag(3);
    dag.add_edge(0, 1, 1.0);
    dag.add_edge(1, 2, 1.0);
    EXPECT_TRUE(dag.is_acyclic());
    dag.add_edge(2, 0, 1.0);  // closes a cycle (structurally allowed)
    EXPECT_FALSE(dag.is_acyclic());
    EXPECT_NE(dag.validate().find("cycle"), std::string::npos);
}

TEST(Dag, ValidateOkOnProperGraph) {
    Dag dag(3);
    dag.add_edge(0, 1, 1.0);
    dag.add_edge(0, 2, 1.0);
    EXPECT_EQ(dag.validate(), "");
}

TEST(Dag, EqualityComparesStructureAndWeights) {
    Dag a(2);
    a.add_edge(0, 1, 1.0);
    Dag b(2);
    b.add_edge(0, 1, 1.0);
    EXPECT_EQ(a, b);
    b.set_edge_data(0, 1, 2.0);
    EXPECT_FALSE(a == b);
    Dag c(2);
    EXPECT_FALSE(a == c);
}

TEST(Dag, OutOfRangeAccessorsThrow) {
    Dag dag(1);
    EXPECT_THROW((void)dag.work(1), std::out_of_range);
    EXPECT_THROW((void)dag.successors(-1), std::out_of_range);
    EXPECT_THROW((void)dag.name(2), std::out_of_range);
}

TEST(Csr, MirrorsAdjacencyInInsertionOrder) {
    // Edge insertion order is what the FP folds in the rank kernels see, so
    // the CSR must reproduce it exactly in both directions.
    Dag dag(4);
    dag.add_edge(0, 2, 5.0);
    dag.add_edge(0, 1, 3.0);
    dag.add_edge(1, 3, 7.0);
    dag.add_edge(2, 3, 9.0);
    dag.add_edge(0, 3, 11.0);
    const CsrAdjacency& csr = dag.csr();
    EXPECT_EQ(csr.num_tasks(), 4u);
    for (TaskId v = 0; v < 4; ++v) {
        const auto& adj = dag.successors(v);
        const auto tasks = csr.succ_tasks(v);
        const auto data = csr.succ_data(v);
        ASSERT_EQ(tasks.size(), adj.size()) << "task " << v;
        ASSERT_EQ(csr.out_degree(v), adj.size());
        for (std::size_t i = 0; i < adj.size(); ++i) {
            EXPECT_EQ(tasks[i], adj[i].task) << "task " << v << " edge " << i;
            EXPECT_EQ(data[i], adj[i].data) << "task " << v << " edge " << i;
        }
        const auto& padj = dag.predecessors(v);
        const auto ptasks = csr.pred_tasks(v);
        const auto pdata = csr.pred_data(v);
        ASSERT_EQ(ptasks.size(), padj.size()) << "task " << v;
        ASSERT_EQ(csr.in_degree(v), padj.size());
        for (std::size_t i = 0; i < padj.size(); ++i) {
            EXPECT_EQ(ptasks[i], padj[i].task) << "task " << v << " edge " << i;
            EXPECT_EQ(pdata[i], padj[i].data) << "task " << v << " edge " << i;
        }
    }
}

TEST(Csr, CachedSnapshotIsInvalidatedByMutation) {
    Dag dag(2);
    dag.add_edge(0, 1, 1.0);
    EXPECT_EQ(dag.csr().out_degree(0), 1u);
    dag.add_edge(0, dag.add_task(), 2.0);  // mutation after csr() was taken
    EXPECT_EQ(dag.csr().out_degree(0), 2u);
    dag.set_edge_data(0, 1, 4.0);
    EXPECT_DOUBLE_EQ(dag.csr().succ_data(0)[0], 4.0);
    dag.scale_edge_data(0.5);
    EXPECT_DOUBLE_EQ(dag.csr().succ_data(0)[0], 2.0);
    EXPECT_DOUBLE_EQ(dag.csr().pred_data(1)[0], 2.0);
}

TEST(Csr, SnapshotStableWhileDagUnchanged) {
    Dag dag(3);
    dag.add_edge(0, 1, 1.0);
    dag.add_edge(1, 2, 2.0);
    const CsrAdjacency* first = &dag.csr();
    EXPECT_EQ(&dag.csr(), first);  // same cached snapshot, not a rebuild
}

TEST(Csr, ConcurrentFirstCallsShareOneSnapshotAndMutationStillInvalidates) {
    // Readers racing on a never-snapshotted Dag build exactly one snapshot
    // under the lock; the flag that lets mutators skip the lock must then
    // be seen set, so the next mutation still drops the stale snapshot.
    Dag dag(64);
    for (TaskId v = 1; v < 64; ++v) dag.add_edge(v - 1, v, 1.0);
    std::vector<const CsrAdjacency*> seen(4, nullptr);
    {
        std::vector<std::thread> readers;
        for (std::size_t i = 0; i < seen.size(); ++i) {
            readers.emplace_back([&dag, &seen, i] { seen[i] = &dag.csr(); });
        }
        for (std::thread& t : readers) t.join();
    }
    for (const CsrAdjacency* csr : seen) EXPECT_EQ(csr, seen.front());
    EXPECT_EQ(seen.front()->num_edges(), 63u);
    dag.add_edge(0, 63, 2.0);
    EXPECT_EQ(dag.csr().num_edges(), 64u);
    EXPECT_EQ(dag.csr().out_degree(0), 2u);
}

TEST(Csr, CopyAndAssignmentRebuildIndependentSnapshots) {
    Dag a(3);
    a.add_edge(0, 1, 1.0);
    (void)a.csr();  // populate a's cache before copying
    Dag b(a);
    EXPECT_EQ(b.csr().out_degree(0), 1u);
    b.add_edge(1, 2, 2.0);
    EXPECT_EQ(b.csr().out_degree(1), 1u);
    EXPECT_EQ(a.csr().out_degree(1), 0u);  // a's snapshot untouched by b
    Dag c(1);
    c = a;
    EXPECT_EQ(c.csr().num_tasks(), 3u);
    EXPECT_EQ(c.csr().out_degree(0), 1u);
    Dag d(std::move(c));
    EXPECT_EQ(d.csr().out_degree(0), 1u);
}

TEST(Csr, EmptyDagYieldsEmptySnapshot) {
    Dag dag;
    EXPECT_EQ(dag.csr().num_tasks(), 0u);
    Dag one(1);
    EXPECT_EQ(one.csr().in_degree(0), 0u);
    EXPECT_TRUE(one.csr().succ_tasks(0).empty());
}

}  // namespace
}  // namespace tsched
