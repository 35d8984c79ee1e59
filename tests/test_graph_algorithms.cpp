// Unit + property tests for graph/algorithms.hpp.
//
// Hand-checked small cases plus parameterized property sweeps over random
// DAGs (topological-order validity, closure-vs-DFS agreement, reduction
// preserving reachability).
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "graph/algorithms.hpp"
#include "workload/random_dag.hpp"

namespace tsched {
namespace {

/// Diamond: 0 -> {1, 2} -> 3, plus a long arm 0 -> 4 -> 3.
Dag diamond_with_arm() {
    DagBuilder builder;
    for (int i = 0; i < 5; ++i) builder.add_task(1.0);
    builder.add_edge(0, 1, 1.0);
    builder.add_edge(0, 2, 2.0);
    builder.add_edge(1, 3, 1.0);
    builder.add_edge(2, 3, 1.0);
    builder.add_edge(0, 4, 1.0);
    builder.add_edge(4, 3, 5.0);
    Dag dag = std::move(builder).build();
    return dag;
}

TEST(TopologicalOrder, RespectsEdgesAndIsDeterministic) {
    const Dag dag = diamond_with_arm();
    const auto order = topological_order(dag);
    ASSERT_EQ(order.size(), dag.num_tasks());
    std::vector<std::size_t> pos(dag.num_tasks());
    for (std::size_t i = 0; i < order.size(); ++i) pos[static_cast<std::size_t>(order[i])] = i;
    for (std::size_t u = 0; u < dag.num_tasks(); ++u) {
        for (const AdjEdge& e : dag.successors(static_cast<TaskId>(u))) {
            EXPECT_LT(pos[u], pos[static_cast<std::size_t>(e.task)]);
        }
    }
    EXPECT_EQ(order, topological_order(dag));  // deterministic
}

TEST(TopologicalOrder, ThrowsOnCycle) {
    DagBuilder builder(2);
    builder.add_edge(0, 1, 1.0);
    builder.add_edge(1, 0, 1.0);
    Dag dag = std::move(builder).build();
    EXPECT_THROW((void)topological_order(dag), std::invalid_argument);
}

TEST(Levels, TopAndBottom) {
    const Dag dag = diamond_with_arm();
    const auto top = top_levels(dag);
    EXPECT_EQ(top[0], 0);
    EXPECT_EQ(top[1], 1);
    EXPECT_EQ(top[2], 1);
    EXPECT_EQ(top[4], 1);
    EXPECT_EQ(top[3], 2);
    const auto bottom = bottom_levels(dag);
    EXPECT_EQ(bottom[3], 0);
    EXPECT_EQ(bottom[1], 1);
    EXPECT_EQ(bottom[0], 2);
    EXPECT_EQ(height(dag), 3);
}

TEST(Levels, EmptyGraphHeightZero) {
    EXPECT_EQ(height(Dag{}), 0);
}

TEST(CriticalPath, WithAndWithoutEdgeData) {
    const Dag dag = diamond_with_arm();
    // Work-only: any source-to-sink 3-node path has length 3.
    EXPECT_DOUBLE_EQ(critical_path_length(dag, false), 3.0);
    // With edge data the 0 -> 4 -> 3 arm dominates: 1 + 1 + 1 + 5 + 1 = 9.
    EXPECT_DOUBLE_EQ(critical_path_length(dag, true), 9.0);
    const auto path = critical_path(dag, true);
    EXPECT_EQ(path, (std::vector<TaskId>{0, 4, 3}));
}

TEST(CriticalPath, SingleNode) {
    DagBuilder builder;
    builder.add_task(7.5);
    Dag dag = std::move(builder).build();
    EXPECT_DOUBLE_EQ(critical_path_length(dag, true), 7.5);
    EXPECT_EQ(critical_path(dag, true), (std::vector<TaskId>{0}));
}

TEST(Reachability, ClosureMatchesHandCase) {
    const Dag dag = diamond_with_arm();
    const auto closure = transitive_closure(dag);
    EXPECT_TRUE(closure.reaches(0, 3));
    EXPECT_TRUE(closure.reaches(0, 4));
    EXPECT_TRUE(closure.reaches(4, 3));
    EXPECT_FALSE(closure.reaches(1, 2));
    EXPECT_FALSE(closure.reaches(3, 0));
    EXPECT_FALSE(closure.reaches(0, 0));  // no self-reachability reported
}

TEST(Reachability, ReachesAgrees) {
    const Dag dag = diamond_with_arm();
    EXPECT_TRUE(reaches(dag, 0, 3));
    EXPECT_FALSE(reaches(dag, 3, 0));
    EXPECT_FALSE(reaches(dag, 1, 1));
}

TEST(TransitiveReduction, RemovesShortcutEdge) {
    DagBuilder builder(3);
    builder.add_edge(0, 1, 1.0);
    builder.add_edge(1, 2, 1.0);
    builder.add_edge(0, 2, 9.0);  // redundant shortcut
    Dag dag = std::move(builder).build();
    const Dag reduced = transitive_reduction(dag);
    EXPECT_EQ(reduced.num_edges(), 2u);
    EXPECT_FALSE(reduced.has_edge(0, 2));
    EXPECT_TRUE(reduced.has_edge(0, 1));
    EXPECT_TRUE(reduced.has_edge(1, 2));
}

TEST(WeaklyConnectedComponents, CountsIslands) {
    DagBuilder builder(5);
    builder.add_edge(0, 1, 1.0);
    builder.add_edge(2, 3, 1.0);
    Dag dag = std::move(builder).build();
    EXPECT_EQ(weakly_connected_components(dag), 3u);  // {0,1} {2,3} {4}
}

TEST(AncestorsDescendants, HandCase) {
    const Dag dag = diamond_with_arm();
    EXPECT_EQ(ancestors(dag, 3), (std::vector<TaskId>{0, 1, 2, 4}));
    EXPECT_EQ(descendants(dag, 0), (std::vector<TaskId>{1, 2, 3, 4}));
    EXPECT_TRUE(ancestors(dag, 0).empty());
    EXPECT_TRUE(descendants(dag, 3).empty());
}

// ---------------------------------------------------------------------------
// Property sweep over random DAGs.
// ---------------------------------------------------------------------------

class GraphPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GraphPropertyTest, InvariantsHoldOnRandomDags) {
    Rng rng(GetParam());
    workload::LayeredDagParams params;
    params.n = 60;
    const Dag dag = workload::layered_random(params, rng);
    ASSERT_EQ(dag.validate(), "");

    // Topological order covers all tasks and respects every edge.
    const auto order = topological_order(dag);
    ASSERT_EQ(order.size(), dag.num_tasks());
    std::vector<std::size_t> pos(dag.num_tasks());
    for (std::size_t i = 0; i < order.size(); ++i) pos[static_cast<std::size_t>(order[i])] = i;
    for (std::size_t u = 0; u < dag.num_tasks(); ++u) {
        for (const AdjEdge& e : dag.successors(static_cast<TaskId>(u))) {
            EXPECT_LT(pos[u], pos[static_cast<std::size_t>(e.task)]);
        }
    }

    // Closure agrees with one-off DFS reachability on sampled pairs.
    const auto closure = transitive_closure(dag);
    const std::size_t n = dag.num_tasks();
    for (int trial = 0; trial < 50; ++trial) {
        const auto u = static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n - 1)));
        const auto v = static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n - 1)));
        if (u == v) continue;
        EXPECT_EQ(closure.reaches(static_cast<TaskId>(u), static_cast<TaskId>(v)),
                  reaches(dag, static_cast<TaskId>(u), static_cast<TaskId>(v)));
    }

    // Transitive reduction preserves reachability with no redundant edges.
    const Dag reduced = transitive_reduction(dag);
    EXPECT_LE(reduced.num_edges(), dag.num_edges());
    const auto reduced_closure = transitive_closure(reduced);
    EXPECT_EQ(closure, reduced_closure);

    // Critical path length bounds: at least the max work, at most total work
    // (+ total data when counting edges).
    const double cp_plain = critical_path_length(dag, false);
    EXPECT_LE(cp_plain, dag.total_work() + 1e-9);
    const double cp_data = critical_path_length(dag, true);
    EXPECT_GE(cp_data, cp_plain);
    EXPECT_LE(cp_data, dag.total_work() + dag.total_data() + 1e-9);

    // The reported critical path realises the reported length.
    const auto path = critical_path(dag, true);
    double along = 0.0;
    for (std::size_t i = 0; i < path.size(); ++i) {
        along += dag.work(path[i]);
        if (i + 1 < path.size()) along += dag.edge_data(path[i], path[i + 1]);
    }
    EXPECT_NEAR(along, cp_data, 1e-9);

    // Levels are consistent with height.
    const auto top = top_levels(dag);
    const auto bottom = bottom_levels(dag);
    const int h = height(dag);
    for (std::size_t v = 0; v < n; ++v) {
        EXPECT_LT(top[v] + bottom[v], h);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GraphPropertyTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u));

}  // namespace
}  // namespace tsched
