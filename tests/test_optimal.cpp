// Tests for the exact branch-and-bound scheduler (sched/optimal.hpp):
// hand-checkable optima, dominance over every heuristic on small instances,
// and the anytime/truncation behaviour.
#include <gtest/gtest.h>

#include "core/registry.hpp"
#include "sched/optimal.hpp"
#include "sched/validate.hpp"
#include "workload/instance.hpp"
#include "workload/structured.hpp"

namespace tsched {
namespace {

Problem small_problem(std::uint64_t seed, std::size_t n, std::size_t procs, double ccr) {
    workload::InstanceParams params;
    params.size = n;
    params.num_procs = procs;
    params.ccr = ccr;
    params.beta = 1.0;
    return workload::make_instance(params, seed);
}

TEST(Bnb, ChainOptimumIsSerialOnFastestPath) {
    // A chain cannot be parallelised: the optimum runs every task on its
    // locally best processor... but switching processors costs comm; with
    // identical rows the optimum is simply the serial sum on one processor.
    Dag dag = workload::chain(5);
    const auto links = std::make_shared<UniformLinkModel>(0.0, 0.1);  // expensive comm
    Machine machine = Machine::homogeneous(3, links);
    CostMatrix costs = CostMatrix::uniform(dag, 3);
    const Problem problem(std::move(dag), std::move(machine), std::move(costs));
    const auto result = BnbScheduler().solve(problem);
    EXPECT_TRUE(result.proven_optimal);
    EXPECT_DOUBLE_EQ(result.schedule.makespan(), 5.0);
}

TEST(Bnb, IndependentTasksPackPerfectly) {
    // 4 unit tasks on 2 identical processors: optimum = 2.
    Dag dag = workload::independent(4);
    const auto links = std::make_shared<UniformLinkModel>(0.0, 1.0);
    Machine machine = Machine::homogeneous(2, links);
    CostMatrix costs = CostMatrix::uniform(dag, 2);
    const Problem problem(std::move(dag), std::move(machine), std::move(costs));
    const auto result = BnbScheduler().solve(problem);
    EXPECT_TRUE(result.proven_optimal);
    EXPECT_DOUBLE_EQ(result.schedule.makespan(), 2.0);
}

TEST(Bnb, HeterogeneousAssignmentHandCase) {
    // Two independent tasks; t0 fast on P0, t1 fast on P1 — the optimum uses
    // both specialists in parallel: makespan 2.
    Dag dag = workload::independent(2);
    const auto links = std::make_shared<UniformLinkModel>(0.0, 1.0);
    Machine machine = Machine::homogeneous(2, links);
    CostMatrix costs(2, 2, {2.0, 9.0, 9.0, 2.0});
    const Problem problem(std::move(dag), std::move(machine), std::move(costs));
    const auto result = BnbScheduler().solve(problem);
    EXPECT_TRUE(result.proven_optimal);
    EXPECT_DOUBLE_EQ(result.schedule.makespan(), 2.0);
}

TEST(Bnb, ForkJoinTradeoffHandCase) {
    // src -> {a, b} -> sink, unit costs, comm 3 between procs.  Splitting
    // costs 3 comm each way (src->b remote, b->sink remote): start b at 4,
    // sink waits until 5+3 = 8 + 1 -> 9; serialising everything on one
    // processor gives 4.  Optimum = 4.
    DagBuilder builder;
    const TaskId src = builder.add_task(1.0);
    const TaskId a = builder.add_task(1.0);
    const TaskId b = builder.add_task(1.0);
    const TaskId sink = builder.add_task(1.0);
    builder.add_edge(src, a, 3.0);
    builder.add_edge(src, b, 3.0);
    builder.add_edge(a, sink, 3.0);
    builder.add_edge(b, sink, 3.0);
    Dag dag = std::move(builder).build();
    const auto links = std::make_shared<UniformLinkModel>(0.0, 1.0);
    Machine machine = Machine::homogeneous(2, links);
    CostMatrix costs = CostMatrix::uniform(dag, 2);
    const Problem problem(std::move(dag), std::move(machine), std::move(costs));
    const auto result = BnbScheduler().solve(problem);
    EXPECT_TRUE(result.proven_optimal);
    EXPECT_DOUBLE_EQ(result.schedule.makespan(), 4.0);
}

class BnbDominanceTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BnbDominanceTest, OptimalNeverWorseThanAnyHeuristic) {
    const Problem problem = small_problem(GetParam(), 8, 2, 2.0);
    const auto result = BnbScheduler().solve(problem);
    ASSERT_TRUE(result.proven_optimal);
    const auto valid = validate(result.schedule, problem);
    ASSERT_TRUE(valid.ok) << valid.message();
    // The non-duplicating heuristics live in bnb's search space, so the
    // proven optimum bounds them from below.
    for (const auto* name : {"ils", "heft", "cpop", "hcpt", "dls", "etf", "mcp", "peft"}) {
        const Schedule heuristic = make_scheduler(name)->schedule(problem);
        EXPECT_LE(result.schedule.makespan(), heuristic.makespan() + 1e-9) << name;
    }
    // And by the CP lower bound from above.
    EXPECT_GE(result.schedule.makespan(), problem.cp_lower_bound() - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BnbDominanceTest, ::testing::Range<std::uint64_t>(0, 10));

TEST(Bnb, TruncationFallsBackToIncumbent) {
    // A 30-task instance with a 1-node budget: the search must give up
    // immediately and return the (valid) HEFT incumbent, unproven.
    const Problem problem = small_problem(3, 30, 4, 1.0);
    const auto result = BnbScheduler(/*max_nodes=*/1).solve(problem);
    EXPECT_FALSE(result.proven_optimal);
    EXPECT_TRUE(validate(result.schedule, problem).ok);
    const Schedule heft = make_scheduler("heft")->schedule(problem);
    EXPECT_LE(result.schedule.makespan(), heft.makespan() + 1e-9);
}

TEST(Bnb, RegistryExposesItButNotInNames) {
    EXPECT_NO_THROW((void)make_scheduler("bnb"));
    for (const auto& name : scheduler_names()) EXPECT_NE(name, "bnb");
}

TEST(Bnb, SchedulerInterfaceMatchesSolve) {
    const Problem problem = small_problem(5, 7, 2, 1.0);
    const BnbScheduler bnb;
    EXPECT_DOUBLE_EQ(bnb.schedule(problem).makespan(), bnb.solve(problem).schedule.makespan());
    EXPECT_EQ(bnb.name(), "bnb");
}

}  // namespace
}  // namespace tsched
