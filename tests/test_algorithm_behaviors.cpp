// Targeted behavioural tests for individual algorithms — each checks the
// defining decision rule of one scheduler on a scenario built to expose it
// (beyond the generic validity/determinism property suite).
#include <gtest/gtest.h>

#include "core/registry.hpp"
#include "sched/list_baselines.hpp"
#include "sched/validate.hpp"
#include "workload/instance.hpp"
#include "workload/structured.hpp"

namespace tsched {
namespace {

/// Chain a->b->c with zero-cost communication; one fast and one slow
/// processor per task, alternating, to expose selection rules.
Problem alternating_speed_chain() {
    Dag dag = workload::chain(3);
    const auto links = std::make_shared<UniformLinkModel>(0.0, 1e9);  // free comm
    Machine machine = Machine::homogeneous(2, links);
    CostMatrix costs(3, 2,
                     {
                         1.0, 10.0,  // a fast on P0
                         10.0, 1.0,  // b fast on P1
                         1.0, 10.0,  // c fast on P0
                     });
    return Problem(std::move(dag), std::move(machine), std::move(costs));
}

TEST(Heft, FollowsFastProcessorsWhenCommIsFree) {
    const Problem problem = alternating_speed_chain();
    const Schedule s = make_scheduler("heft")->schedule(problem);
    EXPECT_EQ(s.primary(0).proc, 0);
    EXPECT_EQ(s.primary(1).proc, 1);
    EXPECT_EQ(s.primary(2).proc, 0);
    EXPECT_NEAR(s.makespan(), 3.0, 1e-6);  // + two ~1e-9 transfers
}

TEST(Cpop, PinsCriticalPathToOneProcessor) {
    // A pure chain is entirely critical; CPOP must put every task on the
    // single processor minimising total path time, even though task b would
    // individually prefer the other.
    const Problem problem = alternating_speed_chain();
    const Schedule s = make_scheduler("cpop")->schedule(problem);
    const ProcId cp_proc = s.primary(0).proc;
    EXPECT_EQ(s.primary(1).proc, cp_proc);
    EXPECT_EQ(s.primary(2).proc, cp_proc);
    // Total: P0 = 1+10+1 = 12, P1 = 10+1+10 = 21 -> P0.
    EXPECT_EQ(cp_proc, 0);
    EXPECT_DOUBLE_EQ(s.makespan(), 12.0);
}

TEST(Etf, StartsTheEarliestStartableTaskFirst) {
    // Two independent tasks on one processor: task 1 is long, task 0 short;
    // both ready at 0 -> ETF breaks the EST tie by higher static level
    // (the longer task), scheduling it first.
    Dag dag = workload::independent(2);
    const auto links = std::make_shared<UniformLinkModel>(0.0, 1.0);
    Machine machine = Machine::homogeneous(1, links);
    CostMatrix costs(2, 1, {1.0, 5.0});
    const Problem problem(std::move(dag), std::move(machine), std::move(costs));
    const Schedule s = make_scheduler("etf")->schedule(problem);
    EXPECT_LT(s.primary(1).start, s.primary(0).start);
}

TEST(Hlfet, PrefersHighestLevelReadyTask) {
    // Fork: src -> {long chain, short leaf}.  After src, HLFET must start
    // the chain head (higher static level) before the leaf.
    DagBuilder builder;
    const TaskId src = builder.add_task(1.0);
    const TaskId chain1 = builder.add_task(1.0);
    const TaskId chain2 = builder.add_task(5.0);
    const TaskId leaf = builder.add_task(1.0);
    builder.add_edge(src, chain1, 0.0);
    builder.add_edge(chain1, chain2, 0.0);
    builder.add_edge(src, leaf, 0.0);
    Dag dag = std::move(builder).build();
    const auto links = std::make_shared<UniformLinkModel>(0.0, 1.0);
    Machine machine = Machine::homogeneous(1, links);
    CostMatrix costs = CostMatrix::uniform(dag, 1);
    const Problem problem(std::move(dag), std::move(machine), std::move(costs));
    const Schedule s = make_scheduler("hlfet")->schedule(problem);
    EXPECT_LT(s.primary(chain1).start, s.primary(leaf).start);
}

TEST(MinMinVsMaxMin, OrderShortVsLongFirst) {
    // Two independent tasks, one processor: min-min runs the short task
    // first, max-min the long one.
    Dag dag = workload::independent(2);
    const auto links = std::make_shared<UniformLinkModel>(0.0, 1.0);
    Machine machine = Machine::homogeneous(1, links);
    CostMatrix costs(2, 1, {1.0, 5.0});
    const Problem problem(std::move(dag), std::move(machine), std::move(costs));
    const Schedule minmin = make_scheduler("minmin")->schedule(problem);
    EXPECT_LT(minmin.primary(0).start, minmin.primary(1).start);
    const Schedule maxmin = make_scheduler("maxmin")->schedule(problem);
    EXPECT_LT(maxmin.primary(1).start, maxmin.primary(0).start);
}

TEST(Dls, DeltaTermPrefersSpecialistProcessor) {
    // One task, two processors, task much faster on P1: DL's delta term
    // (and EST tie) must send it there.
    Dag dag = workload::independent(1);
    const auto links = std::make_shared<UniformLinkModel>(0.0, 1.0);
    Machine machine = Machine::homogeneous(2, links);
    CostMatrix costs(1, 2, {10.0, 2.0});
    const Problem problem(std::move(dag), std::move(machine), std::move(costs));
    const Schedule s = make_scheduler("dls")->schedule(problem);
    EXPECT_EQ(s.primary(0).proc, 1);
}

TEST(Mcp, AlapOrderSchedulesCriticalBranchFirst) {
    // Diamond where one middle branch is much heavier: MCP's ascending-ALAP
    // order starts the heavy branch before the light one.
    DagBuilder builder;
    const TaskId src = builder.add_task(1.0);
    const TaskId heavy = builder.add_task(8.0);
    const TaskId light = builder.add_task(1.0);
    const TaskId sink = builder.add_task(1.0);
    builder.add_edge(src, heavy, 0.0);
    builder.add_edge(src, light, 0.0);
    builder.add_edge(heavy, sink, 0.0);
    builder.add_edge(light, sink, 0.0);
    Dag dag = std::move(builder).build();
    const auto links = std::make_shared<UniformLinkModel>(0.0, 1.0);
    Machine machine = Machine::homogeneous(1, links);
    CostMatrix costs = CostMatrix::from_speeds(dag, machine);
    const Problem problem(std::move(dag), std::move(machine), std::move(costs));
    const Schedule s = make_scheduler("mcp")->schedule(problem);
    EXPECT_LT(s.primary(heavy).start, s.primary(light).start);
}

/// Join a, b -> v with zero-volume edges on 2 processors: a and b land on
/// different processors, and v then has the same EFT and (as an exit task,
/// OCT 0) the same EFT+OCT score on both — a tie only ILS's predecessor
/// affinity (the later-finishing predecessor's processor) can break.
/// `a_first_on_p1` puts the later-finishing a on P1 (affinity beats the
/// index tie-break); otherwise it sits on P0 and the candidate P1, with
/// the lower affinity, must not win.
Problem affinity_tie_join(bool a_first_on_p1) {
    DagBuilder builder;
    const TaskId a = builder.add_task();
    const TaskId b = builder.add_task();
    const TaskId v = builder.add_task();
    builder.add_edge(a, v, 0.0);
    builder.add_edge(b, v, 0.0);
    Dag dag = std::move(builder).build();
    const auto links = std::make_shared<UniformLinkModel>(0.0, 1.0);
    Machine machine = Machine::homogeneous(2, links);
    // a finishes at 6, b at 5; v costs 1 everywhere and starts at 6 on both.
    CostMatrix costs = a_first_on_p1 ? CostMatrix(3, 2, {10.0, 6.0, 5.0, 9.0, 1.0, 1.0})
                                     : CostMatrix(3, 2, {6.0, 6.0, 5.0, 5.0, 1.0, 1.0});
    return Problem(std::move(dag), std::move(machine), std::move(costs));
}

TEST(Ils, PredecessorAffinityBreaksExactScoreTies) {
    for (const bool a_first_on_p1 : {true, false}) {
        const Problem problem = affinity_tie_join(a_first_on_p1);
        const Schedule s = make_scheduler("ils")->schedule(problem);
        const ProcId a_proc = a_first_on_p1 ? 1 : 0;
        ASSERT_EQ(s.primary(0).proc, a_proc);
        ASSERT_EQ(s.primary(1).proc, 1 - a_proc);
        ASSERT_EQ(s.primary(0).finish, 6.0);
        ASSERT_EQ(s.primary(1).finish, 5.0);
        // Both passes tie on makespan (7), so ILS returns the OCT pass,
        // whose selection applies the affinity tie-break.
        EXPECT_EQ(s.primary(2).proc, a_proc) << "a_first_on_p1=" << a_first_on_p1;
        EXPECT_EQ(s.primary(2).start, 6.0);
    }
}

TEST(Random, SeedControlsTheSchedule) {
    workload::InstanceParams params;
    params.size = 40;
    params.num_procs = 4;
    const Problem problem = workload::make_instance(params, 6);
    const Schedule a = RandomScheduler(1).schedule(problem);
    const Schedule b = RandomScheduler(2).schedule(problem);
    const Schedule a2 = RandomScheduler(1).schedule(problem);
    EXPECT_DOUBLE_EQ(a.makespan(), a2.makespan());
    EXPECT_NE(a.makespan(), b.makespan());
    EXPECT_TRUE(validate(b, problem).ok);
}

}  // namespace
}  // namespace tsched
