// Unit tests for the DAG container and its builder (graph/dag.hpp).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "graph/dag.hpp"
#include "graph/serialize.hpp"
#include "util/fingerprint.hpp"
#include "util/rng.hpp"
#include "workload/instance.hpp"

namespace tsched {
namespace {

TEST(Dag, StartsEmpty) {
    Dag dag;
    EXPECT_TRUE(dag.empty());
    EXPECT_EQ(dag.num_tasks(), 0u);
    EXPECT_EQ(dag.num_edges(), 0u);
    const Dag built = DagBuilder().build();
    EXPECT_TRUE(built.empty());
    EXPECT_EQ(built, dag);
}

TEST(Dag, AddTaskAssignsDenseIds) {
    DagBuilder builder;
    EXPECT_EQ(builder.add_task(1.0, "a"), 0);
    EXPECT_EQ(builder.add_task(2.0), 1);
    EXPECT_EQ(builder.add_task(), 2);
    EXPECT_EQ(builder.num_tasks(), 3u);
    const Dag dag = std::move(builder).build();
    EXPECT_EQ(dag.num_tasks(), 3u);
    EXPECT_EQ(dag.name(0), "a");
    EXPECT_EQ(dag.name(1), "");
    EXPECT_DOUBLE_EQ(dag.work(1), 2.0);
    EXPECT_DOUBLE_EQ(dag.work(2), 1.0);
}

TEST(Dag, PresizedConstructor) {
    const Dag dag = DagBuilder(4).build();
    EXPECT_EQ(dag.num_tasks(), 4u);
    EXPECT_DOUBLE_EQ(dag.work(3), 1.0);
}

TEST(Dag, AddEdgeWiresBothDirections) {
    DagBuilder builder(3);
    builder.add_edge(0, 1, 5.0);
    builder.add_edge(0, 2, 7.0);
    const Dag dag = std::move(builder).build();
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
    DagBuilder builder(2);
    EXPECT_THROW(builder.add_edge(0, 0, 1.0), std::invalid_argument);   // self loop
    EXPECT_THROW(builder.add_edge(0, 5, 1.0), std::out_of_range);       // bad target
    EXPECT_THROW(builder.add_edge(-1, 1, 1.0), std::out_of_range);      // bad source
    EXPECT_THROW(builder.add_edge(0, 1, -1.0), std::invalid_argument);  // negative data
    builder.add_edge(0, 1, 1.0);
    EXPECT_THROW(builder.add_edge(0, 1, 2.0), std::invalid_argument);  // duplicate
    EXPECT_EQ(builder.num_edges(), 1u);  // rejected edges leave no trace
    EXPECT_EQ(std::move(builder).build().num_edges(), 1u);
}

TEST(Dag, RejectsBadWork) {
    DagBuilder builder;
    EXPECT_THROW(builder.add_task(-1.0), std::invalid_argument);
    EXPECT_THROW(builder.add_task(std::numeric_limits<double>::infinity()),
                 std::invalid_argument);
    EXPECT_EQ(builder.num_tasks(), 0u);
}

TEST(DagBuilder, AnswersMidBuildQueries) {
    DagBuilder builder(3);
    builder.add_edge(0, 1, 1.0);
    builder.add_edge(0, 2, 1.0);
    builder.add_edge(1, 2, 1.0);
    EXPECT_EQ(builder.num_tasks(), 3u);
    EXPECT_EQ(builder.num_edges(), 3u);
    EXPECT_EQ(builder.out_degree(0), 2u);
    EXPECT_EQ(builder.in_degree(2), 2u);
    EXPECT_EQ(builder.in_degree(0), 0u);
    EXPECT_TRUE(builder.has_edge(0, 2));
    EXPECT_FALSE(builder.has_edge(2, 0));
    EXPECT_THROW((void)builder.has_edge(3, 0), std::out_of_range);
    EXPECT_THROW((void)builder.has_edge(0, 3), std::out_of_range);
    EXPECT_THROW((void)builder.in_degree(-1), std::out_of_range);
}

TEST(Dag, EdgeDataLookup) {
    DagBuilder builder(2);
    builder.add_edge(0, 1, 3.5);
    const Dag dag = std::move(builder).build();
    EXPECT_DOUBLE_EQ(dag.edge_data(0, 1), 3.5);
    EXPECT_THROW((void)dag.edge_data(1, 0), std::out_of_range);
    EXPECT_TRUE(dag.has_edge(0, 1));
    EXPECT_FALSE(dag.has_edge(1, 0));
}

TEST(Dag, SetEdgeDataUpdatesBothSides) {
    DagBuilder builder(2);
    builder.add_edge(0, 1, 1.0);
    Dag dag = std::move(builder).build();
    dag.set_edge_data(0, 1, 9.0);
    EXPECT_DOUBLE_EQ(dag.successors(0)[0].data, 9.0);
    EXPECT_DOUBLE_EQ(dag.predecessors(1)[0].data, 9.0);
    EXPECT_THROW(dag.set_edge_data(1, 0, 1.0), std::out_of_range);
    EXPECT_THROW(dag.set_edge_data(0, 1, -2.0), std::invalid_argument);
}

TEST(Dag, ScaleEdgeDataMatchesPerEdgeSetEdgeData) {
    DagBuilder builder(4);
    builder.add_edge(0, 1, 1.5);
    builder.add_edge(0, 2, 0.1);
    builder.add_edge(2, 3, 7.0);
    builder.add_edge(1, 3, 0.0);
    Dag a = std::move(builder).build();
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
    DagBuilder builder(2);
    builder.add_edge(0, 1, 1e300);
    Dag dag = std::move(builder).build();
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
    DagBuilder builder(4);
    builder.add_edge(0, 2, 1.0);
    builder.add_edge(1, 2, 1.0);
    builder.add_edge(2, 3, 1.0);
    const Dag dag = std::move(builder).build();
    EXPECT_EQ(dag.sources(), (std::vector<TaskId>{0, 1}));
    EXPECT_EQ(dag.sinks(), (std::vector<TaskId>{3}));
}

TEST(Dag, Totals) {
    DagBuilder builder;
    builder.add_task(2.0);
    builder.add_task(3.0);
    builder.add_edge(0, 1, 4.0);
    const Dag dag = std::move(builder).build();
    EXPECT_DOUBLE_EQ(dag.total_work(), 5.0);
    EXPECT_DOUBLE_EQ(dag.total_data(), 4.0);
}

TEST(Dag, AcyclicityDetection) {
    DagBuilder builder(3);
    builder.add_edge(0, 1, 1.0);
    builder.add_edge(1, 2, 1.0);
    EXPECT_TRUE(DagBuilder(builder).build().is_acyclic());
    builder.add_edge(2, 0, 1.0);  // closes a cycle (structurally allowed)
    const Dag dag = std::move(builder).build();
    EXPECT_FALSE(dag.is_acyclic());
    EXPECT_NE(dag.validate().find("cycle"), std::string::npos);
}

TEST(Dag, ValidateOkOnProperGraph) {
    DagBuilder builder(3);
    builder.add_edge(0, 1, 1.0);
    builder.add_edge(0, 2, 1.0);
    EXPECT_EQ(std::move(builder).build().validate(), "");
}

TEST(Dag, EqualityComparesStructureAndWeights) {
    DagBuilder builder(2);
    builder.add_edge(0, 1, 1.0);
    const Dag a = DagBuilder(builder).build();
    Dag b = std::move(builder).build();
    EXPECT_EQ(a, b);
    b.set_edge_data(0, 1, 2.0);
    EXPECT_FALSE(a == b);
    const Dag c = DagBuilder(2).build();
    EXPECT_FALSE(a == c);
}

TEST(Dag, OutOfRangeAccessorsThrow) {
    const Dag dag = DagBuilder(1).build();
    EXPECT_THROW((void)dag.work(1), std::out_of_range);
    EXPECT_THROW((void)dag.successors(-1), std::out_of_range);
    EXPECT_THROW((void)dag.predecessors(1), std::out_of_range);
    EXPECT_THROW((void)dag.name(2), std::out_of_range);
}

TEST(Dag, AllUnnamedDagStoresNoNames) {
    DagBuilder builder(2);
    builder.add_task(1.0, "");
    Dag dag = std::move(builder).build();
    EXPECT_FALSE(dag.has_names());
    EXPECT_EQ(dag.name(2), "");
    dag.set_name(1, "");  // an empty name still stores nothing
    EXPECT_FALSE(dag.has_names());
    dag.set_name(1, "b");
    EXPECT_TRUE(dag.has_names());
    EXPECT_EQ(dag.name(0), "");
    EXPECT_EQ(dag.name(1), "b");
    EXPECT_EQ(dag.name(2), "");

    DagBuilder named;
    named.add_task();
    named.add_task(1.0, "x");
    named.add_task();  // after the last named task
    const Dag partly = std::move(named).build();
    EXPECT_TRUE(partly.has_names());
    EXPECT_EQ(partly.name(1), "x");
    EXPECT_EQ(partly.name(2), "");
}

/// Volume of v's i-th predecessor edge, read through the CSR's edge index.
double pred_volume(const CsrAdjacency& csr, TaskId v, std::size_t i) {
    return csr.edge_data()[csr.pred_edges(v)[i]];
}

TEST(Csr, MirrorsAdjacencyInInsertionOrder) {
    // Edge insertion order is what the FP folds in the rank kernels see, so
    // the CSR must reproduce it exactly in both directions.  Task 3's
    // predecessors arrive as 1, 2, 0: not sorted by source.
    DagBuilder builder(4);
    builder.add_edge(0, 2, 5.0);
    builder.add_edge(1, 3, 7.0);
    builder.add_edge(0, 1, 3.0);
    builder.add_edge(2, 3, 9.0);
    builder.add_edge(0, 3, 11.0);
    const Dag dag = std::move(builder).build();
    const CsrAdjacency& csr = dag.csr();
    EXPECT_EQ(csr.num_tasks(), 4u);
    EXPECT_EQ(csr.num_edges(), 5u);
    const std::vector<std::vector<AdjEdge>> succs = {
        {{2, 5.0}, {1, 3.0}, {3, 11.0}}, {{3, 7.0}}, {{3, 9.0}}, {}};
    const std::vector<std::vector<AdjEdge>> preds = {
        {}, {{0, 3.0}}, {{0, 5.0}}, {{1, 7.0}, {2, 9.0}, {0, 11.0}}};
    for (TaskId v = 0; v < 4; ++v) {
        const auto vi = static_cast<std::size_t>(v);
        const auto adj = dag.successors(v);
        const auto tasks = csr.succ_tasks(v);
        const auto data = csr.succ_data(v);
        ASSERT_EQ(adj.size(), succs[vi].size()) << "task " << v;
        ASSERT_EQ(tasks.size(), adj.size()) << "task " << v;
        ASSERT_EQ(csr.out_degree(v), adj.size());
        for (std::size_t i = 0; i < adj.size(); ++i) {
            EXPECT_EQ(adj[i], succs[vi][i]) << "task " << v << " edge " << i;
            EXPECT_EQ(tasks[i], adj[i].task) << "task " << v << " edge " << i;
            EXPECT_EQ(data[i], adj[i].data) << "task " << v << " edge " << i;
        }
        const auto padj = dag.predecessors(v);
        const auto ptasks = csr.pred_tasks(v);
        ASSERT_EQ(padj.size(), preds[vi].size()) << "task " << v;
        ASSERT_EQ(ptasks.size(), padj.size()) << "task " << v;
        ASSERT_EQ(csr.in_degree(v), padj.size());
        std::size_t i = 0;
        for (const AdjEdge& e : padj) {  // the range-for walk sees the same row
            EXPECT_EQ(e, preds[vi][i]) << "task " << v << " edge " << i;
            EXPECT_EQ(ptasks[i], e.task) << "task " << v << " edge " << i;
            EXPECT_EQ(pred_volume(csr, v, i), e.data) << "task " << v << " edge " << i;
            ++i;
        }
    }
}

TEST(Csr, ValueMutationsAreVisibleInBothDirections) {
    DagBuilder builder(3);
    builder.add_edge(0, 1, 1.0);
    builder.add_edge(2, 1, 3.0);
    Dag dag = std::move(builder).build();
    const CsrAdjacency& csr = dag.csr();
    dag.set_edge_data(2, 1, 4.0);
    EXPECT_DOUBLE_EQ(csr.succ_data(2)[0], 4.0);
    EXPECT_DOUBLE_EQ(pred_volume(csr, 1, 1), 4.0);
    EXPECT_DOUBLE_EQ(pred_volume(csr, 1, 0), 1.0);  // the other edge into 1 untouched
    dag.scale_edge_data(0.5);
    EXPECT_DOUBLE_EQ(csr.succ_data(0)[0], 0.5);
    EXPECT_DOUBLE_EQ(pred_volume(csr, 1, 0), 0.5);
    EXPECT_DOUBLE_EQ(csr.succ_data(2)[0], 2.0);
    EXPECT_DOUBLE_EQ(pred_volume(csr, 1, 1), 2.0);
    dag.set_work(1, 6.0);
    EXPECT_DOUBLE_EQ(dag.work(1), 6.0);
    EXPECT_EQ(&dag.csr(), &csr);  // mutators write in place; no rebuild
}

TEST(Csr, CopyAndAssignmentRebuildIndependentSnapshots) {
    // A copy owns its own CSR: value changes on either side stay there.
    DagBuilder builder(3);
    builder.add_edge(0, 1, 1.0);
    builder.add_task(2.0, "named");
    Dag a = std::move(builder).build();
    Dag b(a);
    EXPECT_EQ(b, a);
    b.set_edge_data(0, 1, 5.0);
    b.set_work(0, 7.0);
    b.set_name(3, "renamed");
    EXPECT_DOUBLE_EQ(a.csr().succ_data(0)[0], 1.0);
    EXPECT_DOUBLE_EQ(pred_volume(a.csr(), 1, 0), 1.0);
    EXPECT_DOUBLE_EQ(a.work(0), 1.0);
    EXPECT_EQ(a.name(3), "named");
    EXPECT_DOUBLE_EQ(pred_volume(b.csr(), 1, 0), 5.0);
    Dag c = DagBuilder(1).build();
    c = a;
    EXPECT_EQ(c.csr().num_tasks(), 4u);
    EXPECT_EQ(c.csr().out_degree(0), 1u);
    a.scale_edge_data(0.0);
    EXPECT_DOUBLE_EQ(c.edge_data(0, 1), 1.0);
    Dag d(std::move(c));
    EXPECT_EQ(d.csr().out_degree(0), 1u);
    EXPECT_EQ(d.name(3), "named");
}

/// Every predecessor entry of `dag` read both ways: through the CSR's edge
/// index and from the source task's successor row.
void expect_pred_side_matches_succ_side(const Dag& dag) {
    const CsrAdjacency& csr = dag.csr();
    ASSERT_EQ(csr.edge_data().size(), dag.num_edges());
    std::size_t pred_entries = 0;
    for (TaskId v = 0; v < static_cast<TaskId>(dag.num_tasks()); ++v) {
        const auto preds = csr.pred_tasks(v);
        const auto edges = csr.pred_edges(v);
        const auto padj = dag.predecessors(v);
        ASSERT_EQ(edges.size(), preds.size());
        for (std::size_t i = 0; i < preds.size(); ++i) {
            const TaskId u = preds[i];
            // The index names an entry of u's successor row, and it is v's.
            const auto row = csr.succ_tasks(u);
            const std::size_t e = edges[i];
            const auto first = static_cast<std::size_t>(row.data() - csr.succ_tasks(0).data());
            ASSERT_GE(e, first) << u << " -> " << v;
            ASSERT_LT(e, first + row.size()) << u << " -> " << v;
            EXPECT_EQ(row[e - first], v);
            const double succ_side = csr.succ_data(u)[e - first];
            EXPECT_EQ(std::bit_cast<std::uint64_t>(csr.edge_data()[e]),
                      std::bit_cast<std::uint64_t>(succ_side));
            EXPECT_EQ(std::bit_cast<std::uint64_t>(padj[i].data),
                      std::bit_cast<std::uint64_t>(succ_side));
            EXPECT_EQ(std::bit_cast<std::uint64_t>(dag.edge_data(u, v)),
                      std::bit_cast<std::uint64_t>(succ_side));
            ++pred_entries;
        }
    }
    EXPECT_EQ(pred_entries, dag.num_edges());
}

TEST(Csr, PredecessorDataMatchesSuccessorData) {
    workload::InstanceParams params;
    params.size = 300;
    Rng rng(13);
    Dag dag = workload::make_dag(params, rng);
    ASSERT_GT(dag.num_edges(), 300u);
    expect_pred_side_matches_succ_side(dag);
    // Rewrite a spread of edges one at a time: the predecessor side sees
    // each new volume, and the other edges keep theirs.
    std::size_t rewritten = 0;
    for (TaskId u = 0; u < static_cast<TaskId>(dag.num_tasks()); u += 7) {
        for (const AdjEdge& e : dag.successors(u)) {
            dag.set_edge_data(u, e.task, 0.125 * static_cast<double>(u) + 1.0 / 3.0);
            ++rewritten;
        }
    }
    ASSERT_GT(rewritten, 0u);
    expect_pred_side_matches_succ_side(dag);
    for (TaskId u = 0; u < static_cast<TaskId>(dag.num_tasks()); u += 7) {
        for (const AdjEdge& e : dag.successors(u)) {
            EXPECT_EQ(e.data, 0.125 * static_cast<double>(u) + 1.0 / 3.0);
        }
    }
    dag.scale_edge_data(2.75);
    expect_pred_side_matches_succ_side(dag);
    dag.scale_edge_data(0.0);
    expect_pred_side_matches_succ_side(dag);
    EXPECT_EQ(dag.total_data(), 0.0);
}

TEST(DagBuilder, RejectsMoreEdgesThanThe32BitCsrIndexes) {
    // The guard build() runs, exercised by its size check alone: 2^32 edges
    // would take ~100 GB to add.
    static_assert(kMaxEdges == 0xFFFFFFFFull);
    EXPECT_NO_THROW(DagBuilder::check_edge_count(0));
    EXPECT_NO_THROW(DagBuilder::check_edge_count(kMaxEdges));
    EXPECT_THROW(DagBuilder::check_edge_count(kMaxEdges + 1), std::length_error);
    EXPECT_THROW(DagBuilder::check_edge_count(std::numeric_limits<std::size_t>::max()),
                 std::length_error);
}

TEST(Dag, PackedNamesRoundTrip) {
    DagBuilder builder;
    builder.add_task(1.0);                    // unnamed before the first name
    builder.add_task(2.0, "load input");      // spaces survive .tsg
    builder.add_task(3.0, "");                // empty in the middle
    builder.add_task(4.0, "quote\"back\\slash");
    builder.add_task(5.0);                    // unnamed after the last name
    builder.add_edge(0, 1, 1.0);
    builder.add_edge(1, 3, 2.0);
    builder.add_edge(2, 3, 3.0);
    Dag dag = std::move(builder).build();
    ASSERT_TRUE(dag.has_names());
    const std::vector<std::string> names{"", "load input", "", "quote\"back\\slash", ""};
    for (TaskId v = 0; v < 5; ++v) EXPECT_EQ(dag.name(v), names[static_cast<std::size_t>(v)]);

    // .tsg keeps every name (the reader takes the rest of the record line).
    const Dag back = read_tsg_string(to_tsg(dag));
    EXPECT_EQ(back, dag);
    for (TaskId v = 0; v < 5; ++v) EXPECT_EQ(back.name(v), dag.name(v));
    // JSON escapes them.
    const std::string json = to_json(dag);
    EXPECT_NE(json.find("\"name\":\"load input\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"quote\\\"back\\\\slash\""), std::string::npos);
    EXPECT_NE(json.find("{\"id\":0,\"work\":1,\"name\":\"\"}"), std::string::npos);

    // set_name splices one name; every other name stays where it was.
    Dag renamed = dag;
    renamed.set_name(1, "x");                      // shorter
    renamed.set_name(2, "a much longer name");     // empty -> long
    renamed.set_name(3, "");                       // to empty
    renamed.set_name(0, renamed.name(2));          // a view into its own buffer
    EXPECT_EQ(renamed.name(0), "a much longer name");
    EXPECT_EQ(renamed.name(1), "x");
    EXPECT_EQ(renamed.name(2), "a much longer name");
    EXPECT_EQ(renamed.name(3), "");
    EXPECT_EQ(renamed.name(4), "");
    EXPECT_EQ(read_tsg_string(to_tsg(renamed)), renamed);

    // operator== compares names: a rename differs, renaming back restores.
    EXPECT_FALSE(renamed == dag);
    Dag one_off = dag;
    one_off.set_name(4, "tail");
    EXPECT_FALSE(one_off == dag);
    one_off.set_name(4, "");
    EXPECT_EQ(one_off, dag);
    // Names that are all empty equal no names at all.
    Dag cleared = dag;
    cleared.set_name(1, "");
    cleared.set_name(3, "");
    DagBuilder same_edges(5);
    same_edges.add_edge(0, 1, 1.0);
    same_edges.add_edge(1, 3, 2.0);
    same_edges.add_edge(2, 3, 3.0);
    Dag unnamed = std::move(same_edges).build();
    for (TaskId v = 0; v < 5; ++v) unnamed.set_work(v, dag.work(v));
    EXPECT_FALSE(unnamed.has_names());
    EXPECT_TRUE(cleared.has_names());
    EXPECT_EQ(cleared, unnamed);
}

TEST(Csr, EmptyDagYieldsEmptySnapshot) {
    const Dag dag;
    EXPECT_EQ(dag.csr().num_tasks(), 0u);
    EXPECT_EQ(dag.csr().num_edges(), 0u);
    const Dag one = DagBuilder(1).build();
    EXPECT_EQ(one.csr().in_degree(0), 0u);
    EXPECT_TRUE(one.csr().succ_tasks(0).empty());
    EXPECT_TRUE(one.successors(0).empty());
}

// ---------------------------------------------------------------------------
// Golden rows: every generator shape, and its .tsg round trip, yields the
// successor and predecessor rows (order, tasks and volumes), works, names,
// .tsg and JSON text recorded at 274a779, when a Dag still kept per-task
// adjacency lists next to a lazily built CSR.
// ---------------------------------------------------------------------------

std::uint64_t rows_digest(const Dag& dag) {
    Fnv1a h;
    h.u64(dag.num_tasks());
    h.u64(dag.num_edges());
    for (TaskId v = 0; v < static_cast<TaskId>(dag.num_tasks()); ++v) {
        h.f64(dag.work(v));
        h.str(dag.name(v));
        h.u64(dag.out_degree(v));
        for (const AdjEdge& e : dag.successors(v)) {
            h.i64(e.task);
            h.f64(e.data);
        }
        h.u64(dag.in_degree(v));
        for (const AdjEdge& e : dag.predecessors(v)) {
            h.i64(e.task);
            h.f64(e.data);
        }
    }
    return h.value();
}

struct GoldenRows {
    const char* shape;
    std::size_t size;
    std::uint64_t rows;        ///< rows_digest of make_instance(...).dag()
    std::uint64_t tsg;         ///< fnv1a of to_tsg
    std::uint64_t json;        ///< fnv1a of to_json
    std::uint64_t round_trip;  ///< rows_digest of read_tsg_string(to_tsg)
};

// A .tsg lists edges by source, so a round trip reorders the predecessor
// rows of fft, cholesky, lu and montage (round_trip != rows there).
constexpr GoldenRows kGoldenRows[] = {
    {"layered", 300, 0x688d5f718df99cf5ULL, 0x7b121e594afdc342ULL, 0x6a1f681941f8eb3fULL,
     0x688d5f718df99cf5ULL},
    {"gnp", 60, 0x813a8c4afefb21acULL, 0x30e49863ff069043ULL, 0xbc4391ded14c162bULL,
     0x813a8c4afefb21acULL},
    {"gauss", 12, 0xc903ed942c61bb5cULL, 0x19dcfc324ffc89dfULL, 0xe51c698717c767f2ULL,
     0xc903ed942c61bb5cULL},
    {"fft", 16, 0x0e6177d422dd764bULL, 0x7d2f7109ce2e260fULL, 0xfeacf6e1bd1a9407ULL,
     0xa0e7848304b1f84bULL},
    {"laplace", 7, 0x0b76d257dc8c6115ULL, 0x72ae2b54b35fc716ULL, 0x9c590d4cbed8f2d1ULL,
     0x0b76d257dc8c6115ULL},
    {"cholesky", 5, 0x2a4d72637325349aULL, 0x2f9e08f54cdf7711ULL, 0x6af628c73dc2a795ULL,
     0x8203c801f63e465aULL},
    {"lu", 5, 0x1393f0087efb2920ULL, 0xe55f21a7fe7eb0feULL, 0x089c7ddbd8b9734aULL,
     0xb430540dd9d566a0ULL},
    {"forkjoin", 6, 0x87996b682c8dc5bcULL, 0xec8f3965515e481cULL, 0xdb8c8dffe4b15351ULL,
     0x87996b682c8dc5bcULL},
    {"outtree", 4, 0xeca4a13af199fe10ULL, 0x4295c4db2b7aa9f2ULL, 0x5d9433a57496c31dULL,
     0xeca4a13af199fe10ULL},
    {"intree", 4, 0x4a230fd7f903e42fULL, 0x3cdbcfc6167b2a8bULL, 0xe359e807d02d74f6ULL,
     0x4a230fd7f903e42fULL},
    {"chain", 20, 0x1796f11ba172fac9ULL, 0x4ce36f22e68ed595ULL, 0x41c0aed0283a7324ULL,
     0x1796f11ba172fac9ULL},
    {"diamond", 6, 0x36faa18730b7c5b6ULL, 0xfa76aacf2a43b1e8ULL, 0xf24717a99fa4e6c5ULL,
     0x36faa18730b7c5b6ULL},
    {"stencil", 10, 0x503745f566a10ed0ULL, 0x1daf3cbc7826fdebULL, 0x6fa356278e62e06fULL,
     0x503745f566a10ed0ULL},
    {"montage", 6, 0xd29e00d6fda83659ULL, 0x482d8e531db51132ULL, 0xb58bebd65f57628eULL,
     0xc0793498787efa69ULL},
};

TEST(DagBuilder, RowsMatchGoldensForEveryShapeAndTsgRoundTrip) {
    for (const GoldenRows& g : kGoldenRows) {
        SCOPED_TRACE(g.shape);
        workload::InstanceParams params;
        params.shape = workload::shape_from_name(g.shape);
        params.size = g.size;
        params.ccr = 2.0;  // calibration rescales every volume in both directions
        const Problem problem = workload::make_instance(params, 7);
        const Dag& dag = problem.dag();
        const std::string tsg = to_tsg(dag);
        EXPECT_EQ(rows_digest(dag), g.rows);
        EXPECT_EQ(fnv1a(tsg), g.tsg);
        EXPECT_EQ(fnv1a(to_json(dag)), g.json);
        EXPECT_EQ(rows_digest(read_tsg_string(tsg)), g.round_trip);
    }
}

}  // namespace
}  // namespace tsched
