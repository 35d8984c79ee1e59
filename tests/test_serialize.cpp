// Unit tests for DAG serialization (graph/serialize.hpp).
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "graph/serialize.hpp"
#include "workload/random_dag.hpp"

namespace tsched {
namespace {

Dag sample() {
    DagBuilder builder;
    builder.add_task(1.5, "load");
    builder.add_task(2.25, "compute kernel");  // name with a space
    builder.add_task(0.75);
    builder.add_edge(0, 1, 10.0);
    builder.add_edge(0, 2, 0.125);
    builder.add_edge(1, 2, 3.0);
    Dag dag = std::move(builder).build();
    return dag;
}

TEST(Tsg, RoundTripsExactly) {
    const Dag dag = sample();
    const Dag back = read_tsg_string(to_tsg(dag));
    EXPECT_EQ(dag, back);
    EXPECT_EQ(back.name(1), "compute kernel");
}

TEST(Tsg, RoundTripsRandomGraphExactly) {
    Rng rng(77);
    workload::LayeredDagParams params;
    params.n = 120;
    const Dag dag = workload::layered_random(params, rng);
    EXPECT_EQ(dag, read_tsg_string(to_tsg(dag)));
}

TEST(Tsg, FileRoundTrip) {
    const Dag dag = sample();
    const auto path = std::filesystem::temp_directory_path() / "tsched_test_graph.tsg";
    save_tsg(path.string(), dag);
    EXPECT_EQ(dag, load_tsg(path.string()));
    std::filesystem::remove(path);
}

TEST(Tsg, LoadMissingFileThrows) {
    EXPECT_THROW((void)load_tsg("/nonexistent/dir/file.tsg"), std::runtime_error);
}

TEST(Tsg, RejectsMissingHeader) {
    EXPECT_THROW((void)read_tsg_string("t 0 1.0\n"), std::runtime_error);
}

TEST(Tsg, RejectsCountMismatch) {
    EXPECT_THROW((void)read_tsg_string("tsg 2 0\nt 0 1.0\n"), std::runtime_error);
    EXPECT_THROW((void)read_tsg_string("tsg 1 1\nt 0 1.0\n"), std::runtime_error);
}

TEST(Tsg, RejectsNonDenseIds) {
    EXPECT_THROW((void)read_tsg_string("tsg 2 0\nt 0 1.0\nt 5 1.0\n"), std::runtime_error);
}

TEST(Tsg, RejectsBadEdges) {
    EXPECT_THROW((void)read_tsg_string("tsg 2 1\nt 0 1\nt 1 1\ne 0 7 1\n"), std::runtime_error);
    EXPECT_THROW((void)read_tsg_string("tsg 1 1\nt 0 1\ne 0 0 1\n"), std::runtime_error);
}

TEST(Tsg, RejectsCyclicDocument) {
    const char* doc = "tsg 2 2\nt 0 1\nt 1 1\ne 0 1 1\ne 1 0 1\n";
    EXPECT_THROW((void)read_tsg_string(doc), std::runtime_error);
}

TEST(Tsg, RejectsUnknownTag) {
    EXPECT_THROW((void)read_tsg_string("tsg 0 0\nx nonsense\n"), std::runtime_error);
}

TEST(Tsg, IgnoresCommentsAndBlankLines) {
    const char* doc = "# comment\n\ntsg 1 0\n# another\nt 0 2.5\n";
    const Dag dag = read_tsg_string(doc);
    EXPECT_EQ(dag.num_tasks(), 1u);
    EXPECT_DOUBLE_EQ(dag.work(0), 2.5);
}

TEST(Dot, ContainsNodesAndEdges) {
    const std::string dot = to_dot(sample(), "g");
    EXPECT_NE(dot.find("digraph g {"), std::string::npos);
    EXPECT_NE(dot.find("n0 -> n1"), std::string::npos);
    EXPECT_NE(dot.find("load"), std::string::npos);
    EXPECT_EQ(dot.find("n2 -> "), std::string::npos);  // task 2 is a sink
}

TEST(Json, ContainsTasksAndEdges) {
    const std::string json = to_json(sample());
    EXPECT_NE(json.find("\"tasks\":["), std::string::npos);
    EXPECT_NE(json.find("\"edges\":["), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"compute kernel\""), std::string::npos);
    EXPECT_NE(json.find("\"src\":0,\"dst\":1"), std::string::npos);
}

TEST(Json, EscapesSpecialCharacters) {
    DagBuilder builder;
    builder.add_task(1.0, "a\"b\\c");
    Dag dag = std::move(builder).build();
    const std::string json = to_json(dag);
    EXPECT_NE(json.find("a\\\"b\\\\c"), std::string::npos);
}

}  // namespace
}  // namespace tsched
