// Tests for the discrete-event simulator (sim/event_sim.hpp).
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "core/registry.hpp"
#include "sim/event_sim.hpp"
#include "workload/instance.hpp"

namespace tsched {
namespace {

Problem sample_problem(std::uint64_t seed, double ccr = 1.0) {
    workload::InstanceParams params;
    params.size = 60;
    params.num_procs = 4;
    params.ccr = ccr;
    params.beta = 0.75;
    return workload::make_instance(params, seed);
}

class SimCrossCheck : public ::testing::TestWithParam<std::string> {};

TEST_P(SimCrossCheck, RederivedMakespanMatchesSchedule) {
    const Problem problem = sample_problem(11, 2.0);
    const Schedule schedule = make_scheduler(GetParam())->schedule(problem);
    const sim::SimResult result = sim::simulate(schedule, problem);
    // The event simulator honours only the decisions; starting heads as
    // early as possible can only match or improve the planned times.
    EXPECT_LE(result.makespan, schedule.makespan() + 1e-9) << GetParam();
    // Our builders emit gap-free earliest-start schedules, so the times
    // coincide exactly.
    EXPECT_NEAR(result.makespan, schedule.makespan(), 1e-9) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Schedulers, SimCrossCheck,
                         ::testing::Values("ils", "ils-d", "heft", "cpop", "hcpt", "dls", "etf",
                                           "mcp", "minmin", "dsh", "btdh", "random"));

// The simulator's contract (sim/event_sim.hpp): the replay equals the plan
// for duplicate-free schedules and never exceeds it for duplicated ones.
Problem contract_problem(std::uint64_t seed, double ccr) {
    workload::InstanceParams params;
    params.size = 100;
    params.num_procs = 8;
    params.ccr = ccr;
    params.beta = 0.5;
    return workload::make_instance(params, seed);
}

TEST(SimContract, ReplayEqualsPlanWithoutDuplicatesAndNeverExceedsItWith) {
    std::size_t duplicated = 0;
    std::size_t duplicate_free = 0;
    for (const double ccr : {1.0, 5.0}) {
        for (std::uint64_t seed = 1; seed <= 10; ++seed) {
            const Problem problem = contract_problem(seed, ccr);
            for (const char* algo : {"dsh", "btdh", "ils-d", "heft"}) {
                const Schedule schedule = make_scheduler(algo)->schedule(problem);
                const double replay = sim::simulate(schedule, problem).makespan;
                const std::string label = std::string(algo) + " seed " + std::to_string(seed) +
                                          " ccr " + std::to_string(ccr);
                if (schedule.num_placements() > schedule.num_tasks()) {
                    ++duplicated;
                    EXPECT_LE(replay, schedule.makespan()) << label;
                } else {
                    ++duplicate_free;
                    EXPECT_EQ(replay, schedule.makespan()) << label;
                }
            }
        }
    }
    // Both halves of the contract are exercised.
    EXPECT_GT(duplicated, 0u);
    EXPECT_GT(duplicate_free, 0u);
}

TEST(SimContract, DuplicatedScheduleReplaysFasterThanItsPlan) {
    // ils-d on this instance duplicates parents; reading each input from its
    // earliest-finishing copy lets the replay beat the planned makespan.
    const Problem problem = contract_problem(5, 5.0);
    const Schedule schedule = make_scheduler("ils-d")->schedule(problem);
    ASSERT_GT(schedule.num_placements(), schedule.num_tasks());
    const double replay = sim::simulate(schedule, problem).makespan;
    EXPECT_NEAR(schedule.makespan(), 546.10399939039667, 1e-9);
    EXPECT_NEAR(replay, 543.40978728654568, 1e-9);
    EXPECT_LT(replay, schedule.makespan());
}

TEST(Simulate, BusyTimesMatchCosts) {
    const Problem problem = sample_problem(5);
    const Schedule schedule = make_scheduler("heft")->schedule(problem);
    const auto result = sim::simulate(schedule, problem);
    double total_busy = 0.0;
    for (const double b : result.proc_busy) total_busy += b;
    double total_cost = 0.0;
    for (std::size_t v = 0; v < problem.num_tasks(); ++v) {
        for (const Placement& pl : schedule.placements(static_cast<TaskId>(v))) {
            total_cost += problem.exec_time(pl.task, pl.proc);
        }
    }
    EXPECT_NEAR(total_busy, total_cost, 1e-6);
}

TEST(Simulate, CountsRemoteMessages) {
    // Producer on p0, consumer on p1: exactly one remote edge.
    DagBuilder builder;
    builder.add_task(1.0);
    builder.add_task(1.0);
    builder.add_edge(0, 1, 5.0);
    Dag dag = std::move(builder).build();
    const auto links = std::make_shared<UniformLinkModel>(0.0, 1.0);
    Machine machine = Machine::homogeneous(2, links);
    CostMatrix costs = CostMatrix::uniform(dag, 2);
    const Problem problem(std::move(dag), std::move(machine), std::move(costs));
    ScheduleDraft draft(2, 2);
    draft.add(0, 0, 0.0, 1.0);
    draft.add(1, 1, 6.0, 7.0);
    const Schedule s = std::move(draft).build();
    const auto result = sim::simulate(s, problem);
    EXPECT_EQ(result.remote_messages, 1u);
    EXPECT_DOUBLE_EQ(result.comm_volume, 5.0);
    // Local version has none.
    ScheduleDraft local_draft(2, 2);
    local_draft.add(0, 0, 0.0, 1.0);
    local_draft.add(1, 0, 1.0, 2.0);
    const Schedule local = std::move(local_draft).build();
    EXPECT_EQ(sim::simulate(local, problem).remote_messages, 0u);
}

TEST(Simulate, ThrowsOnIncompleteSchedule) {
    const Problem problem = sample_problem(3);
    Schedule s(problem.num_tasks(), problem.num_procs());
    EXPECT_THROW((void)sim::simulate(s, problem), std::invalid_argument);
}

TEST(Simulate, DetectsOrderDeadlock) {
    // Two tasks 0 -> 1 planned on one processor with 1 *before* 0: the head
    // placement waits forever on task 0 queued behind it.
    DagBuilder builder;
    builder.add_task(1.0);
    builder.add_task(1.0);
    builder.add_edge(0, 1, 1.0);
    Dag dag = std::move(builder).build();
    const auto links = std::make_shared<UniformLinkModel>(0.0, 1.0);
    Machine machine = Machine::homogeneous(1, links);
    CostMatrix costs = CostMatrix::uniform(dag, 1);
    const Problem problem(std::move(dag), std::move(machine), std::move(costs));
    ScheduleDraft draft(2, 1);
    draft.add(1, 0, 0.0, 1.0);
    draft.add(0, 0, 1.0, 2.0);
    const Schedule s = std::move(draft).build();
    EXPECT_THROW((void)sim::simulate(s, problem), std::invalid_argument);
}

TEST(Simulate, DuplicateAwareDataRouting) {
    // Consumer on p1 can use the duplicate of its parent on p1 and start
    // immediately after it.
    DagBuilder builder;
    builder.add_task(2.0);
    builder.add_task(1.0);
    builder.add_edge(0, 1, 100.0);
    Dag dag = std::move(builder).build();
    const auto links = std::make_shared<UniformLinkModel>(0.0, 1.0);
    Machine machine = Machine::homogeneous(2, links);
    CostMatrix costs = CostMatrix::uniform(dag, 2);
    const Problem problem(std::move(dag), std::move(machine), std::move(costs));
    ScheduleDraft draft(2, 2);
    draft.add(0, 0, 0.0, 2.0);
    draft.add(0, 1, 0.0, 2.0);  // duplicate
    draft.add(1, 1, 2.0, 3.0);
    const Schedule s = std::move(draft).build();
    const auto result = sim::simulate(s, problem);
    EXPECT_DOUBLE_EQ(result.makespan, 3.0);
    EXPECT_EQ(result.remote_messages, 0u);  // served locally by the duplicate
}

TEST(SimulateNoisy, ZeroNoiseEqualsExact) {
    const Problem problem = sample_problem(9);
    const Schedule schedule = make_scheduler("ils")->schedule(problem);
    Rng rng(1);
    const auto exact = sim::simulate(schedule, problem);
    const auto noisy = sim::simulate_noisy(schedule, problem, 0.0, rng);
    EXPECT_DOUBLE_EQ(noisy.makespan, exact.makespan);
}

TEST(SimulateNoisy, SameSeedRunsAreBitIdenticalInEveryField) {
    const Problem problem = sample_problem(21, 4.0);
    const Schedule schedule = make_scheduler("ils-d")->schedule(problem);
    Rng rng1(77);
    Rng rng2(77);
    const auto a = sim::simulate_noisy(schedule, problem, 0.3, rng1);
    const auto b = sim::simulate_noisy(schedule, problem, 0.3, rng2);
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.proc_busy, b.proc_busy);
    EXPECT_EQ(a.remote_messages, b.remote_messages);
    EXPECT_EQ(a.comm_volume, b.comm_volume);
    EXPECT_EQ(a.finish_times, b.finish_times);
    // The rngs are in identical states afterwards too.
    EXPECT_EQ(rng1.uniform(0.0, 1.0), rng2.uniform(0.0, 1.0));
}

TEST(SimulateNoisy, ConsumesAFixedNumberOfDraws) {
    // The documented contract: exactly one uniform draw per placement plus
    // one per (task, predecessor-edge) pair, regardless of interleaving.
    const Problem problem = sample_problem(22);
    const Schedule schedule = make_scheduler("dsh")->schedule(problem);
    std::size_t expected = 0;
    for (std::size_t v = 0; v < problem.num_tasks(); ++v) {
        expected += schedule.placements(static_cast<TaskId>(v)).size();
        expected += problem.dag().predecessors(static_cast<TaskId>(v)).size();
    }
    Rng used(123);
    (void)sim::simulate_noisy(schedule, problem, 0.2, used);
    Rng skipped(123);
    for (std::size_t i = 0; i < expected; ++i) (void)skipped.uniform(0.8, 1.2);
    EXPECT_EQ(used.uniform(0.0, 1.0), skipped.uniform(0.0, 1.0));
}

TEST(SimulateNoisy, DeterministicPerSeedAndPerturbsResult) {
    const Problem problem = sample_problem(9);
    const Schedule schedule = make_scheduler("ils")->schedule(problem);
    Rng rng1(42);
    Rng rng2(42);
    const auto a = sim::simulate_noisy(schedule, problem, 0.2, rng1);
    const auto b = sim::simulate_noisy(schedule, problem, 0.2, rng2);
    EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
    Rng rng3(43);
    const auto c = sim::simulate_noisy(schedule, problem, 0.2, rng3);
    EXPECT_NE(a.makespan, c.makespan);
    // Sanity bound: each stage stretches by < 1.2, so the realised makespan
    // stays within a generous multiplicative envelope.
    const auto exact = sim::simulate(schedule, problem);
    EXPECT_LT(a.makespan, exact.makespan * 2.0);
    EXPECT_GT(a.makespan, exact.makespan * 0.5);
}

TEST(SimulateNoisy, RejectsBadNoise) {
    const Problem problem = sample_problem(9);
    const Schedule schedule = make_scheduler("heft")->schedule(problem);
    Rng rng(1);
    EXPECT_THROW((void)sim::simulate_noisy(schedule, problem, 1.0, rng), std::invalid_argument);
    EXPECT_THROW((void)sim::simulate_noisy(schedule, problem, -0.1, rng), std::invalid_argument);
}

TEST(Simulate, FinishTimesCoverEveryPlacement) {
    const Problem problem = sample_problem(21);
    const Schedule schedule = make_scheduler("dsh")->schedule(problem);
    const auto result = sim::simulate(schedule, problem);
    std::size_t total = 0;
    for (std::size_t v = 0; v < problem.num_tasks(); ++v) {
        total += schedule.placements(static_cast<TaskId>(v)).size();
    }
    ASSERT_EQ(result.finish_times.size(), total);
    for (const double f : result.finish_times) {
        EXPECT_TRUE(std::isfinite(f));
        EXPECT_GT(f, 0.0);
    }
}

}  // namespace
}  // namespace tsched
