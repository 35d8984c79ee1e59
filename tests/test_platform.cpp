// Unit tests for the platform substrate: link models, machines, cost
// matrices, and the Problem aggregate.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "platform/problem.hpp"
#include "util/rng.hpp"
#include "workload/structured.hpp"

namespace tsched {
namespace {

TEST(UniformLinkModel, Arithmetic) {
    const UniformLinkModel m(2.0, 4.0);
    EXPECT_DOUBLE_EQ(m.comm_time(8.0, 0, 1), 2.0 + 8.0 / 4.0);
    EXPECT_DOUBLE_EQ(m.comm_time(8.0, 1, 1), 0.0);
    EXPECT_DOUBLE_EQ(m.mean_comm_time(8.0, 4), 4.0);
    EXPECT_DOUBLE_EQ(m.mean_comm_time(8.0, 1), 0.0);  // single proc: no comm
}

TEST(UniformLinkModel, RejectsBadParameters) {
    EXPECT_THROW(UniformLinkModel(-1.0, 1.0), std::invalid_argument);
    EXPECT_THROW(UniformLinkModel(0.0, 0.0), std::invalid_argument);
    EXPECT_THROW(UniformLinkModel(0.0, -3.0), std::invalid_argument);
}

TEST(BusLinkModel, ContentionScalesBandwidth) {
    const BusLinkModel bus(0.0, 10.0, 5, 0.5);  // contention = 1 + 0.5*4 = 3
    EXPECT_DOUBLE_EQ(bus.effective_bandwidth(), 10.0 / 3.0);
    EXPECT_DOUBLE_EQ(bus.comm_time(10.0, 0, 1), 3.0);
    const BusLinkModel free_bus(0.0, 10.0, 5, 0.0);  // share 0 == uniform
    EXPECT_DOUBLE_EQ(free_bus.comm_time(10.0, 0, 1), 1.0);
}

TEST(TopologyLinkModel, RingHopsAndDiameter) {
    const auto ring = TopologyLinkModel::ring(6, 1.0, 1.0);
    EXPECT_EQ(ring->hops(0, 1), 1);
    EXPECT_EQ(ring->hops(0, 3), 3);
    EXPECT_EQ(ring->hops(0, 5), 1);  // wraparound
    EXPECT_EQ(ring->diameter(), 3);
}

TEST(TopologyLinkModel, Mesh2dHopsAreManhattan) {
    const auto mesh = TopologyLinkModel::mesh2d(3, 4, 1.0, 1.0);
    EXPECT_EQ(mesh->num_procs(), 12u);
    EXPECT_EQ(mesh->hops(0, 11), 2 + 3);  // (0,0) -> (2,3)
    EXPECT_EQ(mesh->diameter(), 5);
}

TEST(TopologyLinkModel, HypercubeHopsAreHammingDistance) {
    const auto cube = TopologyLinkModel::hypercube(3, 1.0, 1.0);
    EXPECT_EQ(cube->num_procs(), 8u);
    EXPECT_EQ(cube->hops(0b000, 0b111), 3);
    EXPECT_EQ(cube->hops(0b010, 0b011), 1);
    EXPECT_EQ(cube->diameter(), 3);
}

TEST(TopologyLinkModel, StarRoutesThroughHub) {
    const auto star = TopologyLinkModel::star(5, 1.0, 1.0);
    EXPECT_EQ(star->hops(0, 4), 1);
    EXPECT_EQ(star->hops(1, 2), 2);
    EXPECT_EQ(star->diameter(), 2);
}

TEST(TopologyLinkModel, FullyConnectedMatchesUniform) {
    const auto full = TopologyLinkModel::fully_connected(4, 0.5, 2.0);
    const UniformLinkModel uniform(0.5, 2.0);
    EXPECT_DOUBLE_EQ(full->comm_time(6.0, 0, 3), uniform.comm_time(6.0, 0, 3));
    EXPECT_EQ(full->diameter(), 1);
}

TEST(TopologyLinkModel, StoreAndForwardCostGrowsWithHops) {
    const auto ring = TopologyLinkModel::ring(8, 1.0, 2.0);
    const double one_hop = ring->comm_time(4.0, 0, 1);
    const double four_hops = ring->comm_time(4.0, 0, 4);
    EXPECT_DOUBLE_EQ(four_hops, 4.0 * one_hop);
}

TEST(TopologyLinkModel, RejectsDisconnected) {
    std::vector<std::vector<ProcId>> adj(3);
    adj[0].push_back(1);  // proc 2 isolated
    EXPECT_THROW(TopologyLinkModel(adj, 1.0, 1.0), std::invalid_argument);
}

TEST(Machine, HomogeneousAndHeterogeneousBuilders) {
    const auto links = std::make_shared<UniformLinkModel>(0.0, 1.0);
    const Machine homo = Machine::homogeneous(4, links);
    EXPECT_TRUE(homo.is_homogeneous());
    EXPECT_EQ(homo.num_procs(), 4u);
    const Machine hetero = Machine::heterogeneous(4, 1.0, links);
    EXPECT_FALSE(hetero.is_homogeneous());
    EXPECT_DOUBLE_EQ(hetero.speed(0), 0.5);
    EXPECT_DOUBLE_EQ(hetero.speed(3), 1.5);
}

TEST(Machine, RejectsBadInputs) {
    const auto links = std::make_shared<UniformLinkModel>(0.0, 1.0);
    EXPECT_THROW(Machine({}, links), std::invalid_argument);
    EXPECT_THROW(Machine({1.0}, nullptr), std::invalid_argument);
    EXPECT_THROW(Machine({0.0}, links), std::invalid_argument);
    EXPECT_THROW(Machine::heterogeneous(4, 2.5, links), std::invalid_argument);
}

TEST(CostMatrix, RowStatistics) {
    //           p0   p1   p2
    // task 0:    2    4    6
    // task 1:   10   10   10
    CostMatrix w(2, 3, {2.0, 4.0, 6.0, 10.0, 10.0, 10.0});
    EXPECT_DOUBLE_EQ(w.mean(0), 4.0);
    EXPECT_DOUBLE_EQ(w.min(0), 2.0);
    EXPECT_DOUBLE_EQ(w.max(0), 6.0);
    EXPECT_DOUBLE_EQ(w.median(0), 4.0);
    EXPECT_NEAR(w.stddev(0), 2.0, 1e-12);
    EXPECT_DOUBLE_EQ(w.stddev(1), 0.0);
    EXPECT_EQ(w.fastest_proc(0), 0);
    EXPECT_EQ(w.fastest_proc(1), 0);  // tie -> lowest id
    EXPECT_FALSE(w.is_homogeneous());
}

TEST(CostMatrix, SerialTimes) {
    CostMatrix w(2, 2, {1.0, 5.0, 2.0, 1.0});
    EXPECT_DOUBLE_EQ(w.serial_time(0), 3.0);
    EXPECT_DOUBLE_EQ(w.serial_time(1), 6.0);
    EXPECT_DOUBLE_EQ(w.best_serial_time(), 3.0);
}

TEST(CostMatrix, SetUpdatesStats) {
    CostMatrix w(1, 2, {1.0, 1.0});
    EXPECT_TRUE(w.is_homogeneous());
    w.set(0, 1, 3.0);
    EXPECT_DOUBLE_EQ(w.mean(0), 2.0);
    EXPECT_FALSE(w.is_homogeneous());
    EXPECT_THROW(w.set(0, 0, 0.0), std::invalid_argument);
}

/// The per-row pass the matrix once cached its statistics with, kept as
/// the bit-level reference for the on-demand accessors.
struct ReferenceRowStats {
    double mean, min, max, stddev;
};

ReferenceRowStats reference_row_stats(const std::vector<double>& costs, std::size_t row,
                                      std::size_t procs) {
    double sum = 0.0;
    double lo = std::numeric_limits<double>::infinity();
    double hi = -std::numeric_limits<double>::infinity();
    for (std::size_t p = 0; p < procs; ++p) {
        const double c = costs[row * procs + p];
        sum += c;
        lo = std::min(lo, c);
        hi = std::max(hi, c);
    }
    const double mean = sum / static_cast<double>(procs);
    double m2 = 0.0;
    for (std::size_t p = 0; p < procs; ++p) {
        const double d = costs[row * procs + p] - mean;
        m2 += d * d;
    }
    return {mean, lo, hi, procs > 1 ? std::sqrt(m2 / static_cast<double>(procs - 1)) : 0.0};
}

void expect_stats_match(const CostMatrix& w, const std::vector<double>& costs) {
    const std::size_t procs = w.num_procs();
    bool homogeneous = true;
    for (std::size_t v = 0; v < w.num_tasks(); ++v) {
        const auto t = static_cast<TaskId>(v);
        const ReferenceRowStats ref = reference_row_stats(costs, v, procs);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(w.mean(t)), std::bit_cast<std::uint64_t>(ref.mean))
            << "row " << v;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(w.min(t)), std::bit_cast<std::uint64_t>(ref.min));
        EXPECT_EQ(std::bit_cast<std::uint64_t>(w.max(t)), std::bit_cast<std::uint64_t>(ref.max));
        EXPECT_EQ(std::bit_cast<std::uint64_t>(w.stddev(t)),
                  std::bit_cast<std::uint64_t>(ref.stddev))
            << "row " << v;
        homogeneous = homogeneous && ref.min == ref.max;
    }
    EXPECT_EQ(w.is_homogeneous(), homogeneous);
}

TEST(CostMatrix, RowStatsMatchTwoPassReference) {
    // Rows of awkward magnitudes, where the accumulation order shows in the
    // last bits: the accessors must reproduce the cached pass exactly.
    Rng rng(29);
    for (const std::size_t procs : {1u, 2u, 8u}) {
        SCOPED_TRACE(procs);
        const std::size_t n = 64;
        std::vector<double> costs(n * procs);
        for (double& c : costs) c = std::exp(rng.uniform(-30.0, 30.0)) * (1.0 + 1e-9);
        for (std::size_t p = 0; p < procs; ++p) costs[p] = 0.1;  // a constant row
        CostMatrix w(n, procs, costs);
        expect_stats_match(w, costs);
        // set() rewrites one cost; every statistic follows the new row.
        w.set(0, static_cast<ProcId>(procs - 1), 0.3);
        costs[procs - 1] = 0.3;
        w.set(5, 0, 7.25);
        costs[5 * procs] = 7.25;
        expect_stats_match(w, costs);
        // A matrix whose rows are all constant is homogeneous (P = 1 always is).
        const CostMatrix flat(3, procs, std::vector<double>(3 * procs, 2.5));
        EXPECT_TRUE(flat.is_homogeneous());
    }
}

TEST(CostMatrix, RejectsBadConstruction) {
    EXPECT_THROW(CostMatrix(2, 2, {1.0, 1.0, 1.0}), std::invalid_argument);  // size
    EXPECT_THROW(CostMatrix(1, 1, {0.0}), std::invalid_argument);            // non-positive
    EXPECT_THROW(CostMatrix(1, 0, {}), std::invalid_argument);               // zero procs
}

TEST(CostMatrix, FromSpeedsAndUniform) {
    DagBuilder builder;
    builder.add_task(6.0);
    builder.add_task(3.0);
    Dag dag = std::move(builder).build();
    const auto links = std::make_shared<UniformLinkModel>(0.0, 1.0);
    const Machine machine({1.0, 2.0}, links);
    const CostMatrix w = CostMatrix::from_speeds(dag, machine);
    EXPECT_DOUBLE_EQ(w(0, 0), 6.0);
    EXPECT_DOUBLE_EQ(w(0, 1), 3.0);
    EXPECT_DOUBLE_EQ(w(1, 1), 1.5);
    const CostMatrix u = CostMatrix::uniform(dag, 3);
    EXPECT_TRUE(u.is_homogeneous());
    EXPECT_DOUBLE_EQ(u(1, 2), 3.0);
}

TEST(Problem, WiringAndDerivedQuantities) {
    // Chain 0 -> 1 with data 4; two procs; uniform links latency 0, bw 1.
    DagBuilder builder;
    builder.add_task(2.0);
    builder.add_task(4.0);
    builder.add_edge(0, 1, 4.0);
    Dag dag = std::move(builder).build();
    const auto links = std::make_shared<UniformLinkModel>(0.0, 1.0);
    Machine machine = Machine::homogeneous(2, links);
    CostMatrix costs(2, 2, {2.0, 6.0, 4.0, 4.0});
    const Problem problem(dag, std::move(machine), std::move(costs));

    EXPECT_EQ(problem.num_tasks(), 2u);
    EXPECT_EQ(problem.num_procs(), 2u);
    EXPECT_DOUBLE_EQ(problem.exec_time(0, 1), 6.0);
    EXPECT_DOUBLE_EQ(problem.mean_exec(0), 4.0);
    EXPECT_DOUBLE_EQ(problem.comm_time(0, 1, 0, 1), 4.0);
    EXPECT_DOUBLE_EQ(problem.comm_time(0, 1, 0, 0), 0.0);
    EXPECT_DOUBLE_EQ(problem.mean_comm(0, 1), 4.0);
    // CP lower bound: min(2,6) + min(4,4) = 6.
    EXPECT_DOUBLE_EQ(problem.cp_lower_bound(), 6.0);
    // Realized CCR: mean comm 4 / mean exec 4 = 1.
    EXPECT_DOUBLE_EQ(problem.realized_ccr(), 1.0);
    EXPECT_EQ(problem.mean_critical_path(), (std::vector<TaskId>{0, 1}));
}

TEST(Problem, RejectsMismatchedComponents) {
    DagBuilder builder;
    builder.add_task(1.0);
    Dag dag = std::move(builder).build();
    const auto links = std::make_shared<UniformLinkModel>(0.0, 1.0);
    EXPECT_THROW(Problem(dag, Machine::homogeneous(2, links), CostMatrix(1, 3, {1, 1, 1})),
                 std::invalid_argument);
    EXPECT_THROW(Problem(dag, Machine::homogeneous(2, links), CostMatrix(2, 2, {1, 1, 1, 1})),
                 std::invalid_argument);
}

TEST(Problem, CpLowerBoundOnStructuredGraph) {
    // Chain of 5 unit tasks, homogeneous unit costs: bound = 5.
    const Dag dag = workload::chain(5);
    const auto links = std::make_shared<UniformLinkModel>(0.0, 1.0);
    Machine machine = Machine::homogeneous(3, links);
    CostMatrix costs = CostMatrix::uniform(dag, 3);
    const Problem problem(dag, std::move(machine), std::move(costs));
    EXPECT_DOUBLE_EQ(problem.cp_lower_bound(), 5.0);
}

}  // namespace
}  // namespace tsched
