// Tests for fault injection (sim/faults.hpp), schedule repair
// (sched/repair.hpp), and the fault-plan lints (analysis/fault_lints.hpp).
#include <gtest/gtest.h>

#include <stdexcept>

#include "analysis/fault_lints.hpp"
#include "analysis/schedule_lints.hpp"
#include "core/registry.hpp"
#include "sim/event_sim.hpp"
#include "sim/faults.hpp"
#include "workload/instance.hpp"

namespace tsched {
namespace {

Problem sample_problem(std::uint64_t seed, std::size_t procs = 4, std::size_t size = 60) {
    workload::InstanceParams params;
    params.size = size;
    params.num_procs = procs;
    params.ccr = 1.0;
    params.beta = 0.75;
    return workload::make_instance(params, seed);
}

/// Two-task chain 0 -> 1 across two homogeneous processors.
Problem chain_problem(double data = 5.0) {
    DagBuilder builder;
    builder.add_task(1.0);
    builder.add_task(1.0);
    builder.add_edge(0, 1, data);
    Dag dag = std::move(builder).build();
    const auto links = std::make_shared<UniformLinkModel>(0.0, 1.0);
    Machine machine = Machine::homogeneous(2, links);
    CostMatrix costs = CostMatrix::uniform(dag, 2);
    return Problem(std::move(dag), std::move(machine), std::move(costs));
}

TEST(FaultLints, FlagsBadPlans) {
    const Problem problem = sample_problem(1);
    analysis::Diagnostics diags;
    sim::FaultPlan plan;
    plan.crashes.push_back({99, 1.0});                     // proc out of range
    plan.crashes.push_back({0, -2.0});                     // negative time
    plan.crashes.push_back({0, 3.0});                      // duplicate crash
    plan.task_faults.push_back({kInvalidTask, 1});         // task out of range
    plan.task_faults.push_back({0, 0});                    // zero budget
    plan.slowdowns.push_back({5.0, 2.0, 2.0});             // inverted window
    plan.slowdowns.push_back({0.0, 1.0, 0.5});             // shrinking factor
    plan.slowdowns.push_back({0.0, 1.0, 2.0, 77, 0});      // endpoint out of range
    analysis::lint_fault_plan(plan, problem, diags);
    EXPECT_EQ(diags.error_count(), 8u);
    for (const analysis::Diagnostic& d : diags.all()) {
        EXPECT_EQ(d.code, analysis::Code::kFaultPlanInvalid);
    }
}

TEST(FaultLints, RejectsCrashingEveryProcessor) {
    const Problem problem = sample_problem(1, 2);
    analysis::Diagnostics diags;
    sim::FaultPlan plan;
    plan.crashes.push_back({0, 1.0});
    plan.crashes.push_back({1, 2.0});
    analysis::lint_fault_plan(plan, problem, diags);
    EXPECT_EQ(diags.error_count(), 1u);
}

TEST(SimulateFaulty, InvalidPlanThrows) {
    const Problem problem = sample_problem(2);
    const Schedule schedule = make_scheduler("heft")->schedule(problem);
    sim::FaultPlan plan;
    plan.crashes.push_back({static_cast<ProcId>(problem.num_procs()), 1.0});
    const auto policy = make_repair_policy("none");
    EXPECT_THROW((void)sim::simulate_faulty(schedule, problem, plan, *policy),
                 std::invalid_argument);
}

TEST(SimulateFaulty, EmptyPlanMatchesPlainSimulation) {
    const Problem problem = sample_problem(3);
    const Schedule schedule = make_scheduler("heft")->schedule(problem);
    const auto policy = make_repair_policy("none");
    const sim::FaultReport report =
        sim::simulate_faulty(schedule, problem, sim::FaultPlan{}, *policy);
    const sim::SimResult plain = sim::simulate(schedule, problem);
    EXPECT_DOUBLE_EQ(report.sim.makespan, plain.makespan);
    EXPECT_EQ(report.sim.remote_messages, plain.remote_messages);
    EXPECT_DOUBLE_EQ(report.degradation, 1.0);
    EXPECT_TRUE(report.events.empty());
    EXPECT_EQ(report.retries, 0u);
}

TEST(SimulateFaulty, CrashAfterCompletionIsHarmless) {
    const Problem problem = sample_problem(4);
    const Schedule schedule = make_scheduler("heft")->schedule(problem);
    const auto policy = make_repair_policy("remap-pending");
    const sim::FaultPlan plan = sim::crash_busiest(schedule, 2.0);
    const sim::FaultReport report = sim::simulate_faulty(schedule, problem, plan, *policy);
    EXPECT_DOUBLE_EQ(report.degradation, 1.0);
    ASSERT_EQ(report.events.size(), 1u);
    EXPECT_EQ(report.events[0].kind, sim::FaultEventKind::kCrash);
    EXPECT_EQ(report.migrated_tasks, 0u);
}

TEST(SimulateFaulty, TransientFaultsStretchAndAreCounted) {
    const Problem problem = chain_problem();
    ScheduleDraft draft(2, 2);
    draft.add(0, 0, 0.0, 1.0);
    draft.add(1, 0, 1.0, 2.0);
    const Schedule s = std::move(draft).build();
    sim::FaultPlan plan;
    plan.task_faults.push_back({0, 2});
    const auto policy = make_repair_policy("none");
    const sim::FaultReport report = sim::simulate_faulty(s, problem, plan, *policy);
    // Task 0 runs three times (two failures + success): finishes at 3,
    // task 1 at 4.
    EXPECT_DOUBLE_EQ(report.sim.makespan, 4.0);
    EXPECT_EQ(report.retries, 2u);
    EXPECT_DOUBLE_EQ(report.degradation, 2.0);
    ASSERT_EQ(report.events.size(), 2u);
    EXPECT_EQ(report.events[0].kind, sim::FaultEventKind::kTransientFailure);
    EXPECT_DOUBLE_EQ(report.events[0].time, 1.0);
    EXPECT_DOUBLE_EQ(report.events[1].time, 2.0);
    // The processor was busy for the failed attempts too.
    EXPECT_DOUBLE_EQ(report.sim.proc_busy[0], 4.0);
}

TEST(SimulateFaulty, LinkSlowdownDelaysRemoteConsumers) {
    const Problem problem = chain_problem(5.0);
    ScheduleDraft draft(2, 2);
    draft.add(0, 0, 0.0, 1.0);
    draft.add(1, 1, 6.0, 7.0);  // nominal transfer: 5
    const Schedule s = std::move(draft).build();
    sim::FaultPlan plan;
    plan.slowdowns.push_back({0.0, 2.0, 3.0});  // producer finishes at 1.0: slowed
    const auto policy = make_repair_policy("none");
    const sim::FaultReport report = sim::simulate_faulty(s, problem, plan, *policy);
    // Transfer takes 15 instead of 5: task 1 starts at 16.
    EXPECT_DOUBLE_EQ(report.sim.makespan, 17.0);
    // A window the producer does not finish inside changes nothing.
    plan.slowdowns[0] = {2.0, 9.0, 3.0};
    const sim::FaultReport unaffected = sim::simulate_faulty(s, problem, plan, *policy);
    EXPECT_DOUBLE_EQ(unaffected.sim.makespan, 7.0);
}

class FaultPolicies : public ::testing::TestWithParam<std::string> {};

TEST_P(FaultPolicies, CrashMidRunYieldsLintCleanRepairedSchedule) {
    const Problem problem = sample_problem(7, 8, 100);
    const Schedule schedule = make_scheduler("heft")->schedule(problem);
    const auto policy = make_repair_policy(GetParam());
    const sim::FaultPlan plan = sim::crash_busiest(schedule, 0.5);
    const sim::FaultReport report = sim::simulate_faulty(schedule, problem, plan, *policy);
    EXPECT_GE(report.degradation, 1.0 - 1e-9);
    analysis::Diagnostics diags;
    analysis::lint_schedule(report.repaired, problem, diags);
    EXPECT_FALSE(diags.has_errors()) << analysis::render_text(diags);
    // The dead processor carries no work at or after the crash.
    const ProcId dead = plan.crashes[0].proc;
    for (std::size_t v = 0; v < problem.num_tasks(); ++v) {
        for (const Placement& pl : report.repaired.placements(static_cast<TaskId>(v))) {
            if (pl.proc == dead) {
                EXPECT_LT(pl.start, plan.crashes[0].time);
            }
        }
    }
}

TEST_P(FaultPolicies, SameSeedRunsAreBitIdentical) {
    const Problem problem = sample_problem(8, 8, 100);
    const Schedule schedule = make_scheduler("ils")->schedule(problem);
    const auto policy = make_repair_policy(GetParam());
    const sim::FaultPlan plan = sim::crash_busiest(schedule, 0.5);
    const sim::FaultReport a = sim::simulate_faulty(schedule, problem, plan, *policy);
    const sim::FaultReport b = sim::simulate_faulty(schedule, problem, plan, *policy);
    EXPECT_EQ(a.sim.makespan, b.sim.makespan);
    EXPECT_EQ(a.sim.finish_times, b.sim.finish_times);
    EXPECT_EQ(a.sim.proc_busy, b.sim.proc_busy);
    EXPECT_EQ(a.events, b.events);
    EXPECT_EQ(a.degradation, b.degradation);
    EXPECT_EQ(a.retries, b.retries);
    EXPECT_EQ(a.migrated_tasks, b.migrated_tasks);
    EXPECT_EQ(a.reexecuted_tasks, b.reexecuted_tasks);
    EXPECT_EQ(a.dropped_placements, b.dropped_placements);
    EXPECT_EQ(a.repair_latency, b.repair_latency);
}

INSTANTIATE_TEST_SUITE_P(Policies, FaultPolicies,
                         ::testing::Values("none", "remap-pending", "reschedule-suffix",
                                           "use-duplicates"));

TEST(SimulateFaulty, CrashAtZeroMigratesEverythingOffTheDeadProc) {
    const Problem problem = sample_problem(9);
    const Schedule schedule = make_scheduler("heft")->schedule(problem);
    const auto policy = make_repair_policy("remap-pending");
    sim::FaultPlan plan;
    plan.crashes.push_back({0, 0.0});
    const sim::FaultReport report = sim::simulate_faulty(schedule, problem, plan, *policy);
    for (std::size_t v = 0; v < problem.num_tasks(); ++v) {
        for (const Placement& pl : report.repaired.placements(static_cast<TaskId>(v))) {
            EXPECT_NE(pl.proc, 0);
        }
    }
    std::size_t lost_on_p0 = 0;
    for (std::size_t v = 0; v < problem.num_tasks(); ++v) {
        for (const Placement& pl : schedule.placements(static_cast<TaskId>(v))) {
            if (pl.proc == 0) ++lost_on_p0;
        }
    }
    if (lost_on_p0 > 0) {
        EXPECT_GT(report.migrated_tasks, 0u);
    }
}

TEST(SimulateFaulty, ReexecutesAbortedInFlightWork) {
    // One processor pair; task 0 is in flight on p0 when it crashes at 0.5.
    const Problem problem = chain_problem(0.0);
    ScheduleDraft draft(2, 2);
    draft.add(0, 0, 0.0, 1.0);
    draft.add(1, 0, 1.0, 2.0);
    const Schedule s = std::move(draft).build();
    sim::FaultPlan plan;
    plan.crashes.push_back({0, 0.5});
    const auto policy = make_repair_policy("remap-pending");
    const sim::FaultReport report = sim::simulate_faulty(s, problem, plan, *policy);
    EXPECT_EQ(report.reexecuted_tasks, 1u);
    EXPECT_EQ(report.migrated_tasks, 2u);
    // Both tasks re-run on p1 starting at the crash time.
    EXPECT_DOUBLE_EQ(report.sim.makespan, 2.5);
    EXPECT_DOUBLE_EQ(report.repair_latency, 0.0);
}

TEST(SimulateFaulty, UseDuplicatesDropsCoveredLostWork) {
    // Task 0 is duplicated on both processors; losing p0's copy needs no
    // replacement, only task 1 is stranded... but task 1 lives on p1 already.
    const Problem problem = chain_problem(100.0);
    ScheduleDraft draft(2, 2);
    draft.add(0, 0, 0.0, 1.0);
    draft.add(0, 1, 0.0, 1.0);
    draft.add(1, 1, 1.0, 2.0);
    const Schedule s = std::move(draft).build();
    sim::FaultPlan plan;
    plan.crashes.push_back({0, 0.5});
    const auto policy = make_repair_policy("use-duplicates");
    const sim::FaultReport report = sim::simulate_faulty(s, problem, plan, *policy);
    // p0's in-flight duplicate of task 0 is aborted and simply dropped: the
    // surviving copy on p1 feeds task 1 with no delay.
    EXPECT_DOUBLE_EQ(report.sim.makespan, 2.0);
    EXPECT_EQ(report.dropped_placements, 1u);
    EXPECT_EQ(report.reexecuted_tasks, 0u);
    EXPECT_EQ(report.repaired.num_duplicates(), 0u);
}

TEST(SimulateFaulty, RepairLatencyMeasuresCrashToRestartGap) {
    // Lost task 1 can only restart after its input arrives remotely.
    const Problem problem = chain_problem(5.0);
    ScheduleDraft draft(2, 2);
    draft.add(0, 1, 0.0, 1.0);
    draft.add(1, 0, 6.0, 7.0);
    const Schedule s = std::move(draft).build();
    sim::FaultPlan plan;
    plan.crashes.push_back({0, 2.0});
    const auto policy = make_repair_policy("remap-pending");
    const sim::FaultReport report = sim::simulate_faulty(s, problem, plan, *policy);
    // Task 1 moves to p1 where the data is local: restarts at the crash time.
    EXPECT_DOUBLE_EQ(report.sim.makespan, 3.0);
    EXPECT_DOUBLE_EQ(report.repair_latency, 0.0);
    EXPECT_EQ(report.migrated_tasks, 1u);
}

TEST(CrashBusiest, PicksTheProcessorWithTheMostBusyTime) {
    const Problem problem = chain_problem();
    ScheduleDraft draft(2, 2);
    draft.add(0, 1, 0.0, 1.0);
    draft.add(1, 1, 1.0, 2.0);
    const Schedule s = std::move(draft).build();
    const sim::FaultPlan plan = sim::crash_busiest(s, 0.5);
    ASSERT_EQ(plan.crashes.size(), 1u);
    EXPECT_EQ(plan.crashes[0].proc, 1);
    EXPECT_DOUBLE_EQ(plan.crashes[0].time, 1.0);
    EXPECT_THROW((void)sim::crash_busiest(s, -1.0), std::invalid_argument);
}

TEST(RandomCrashPlan, DeterministicPerSeedAndInRange) {
    const Problem problem = sample_problem(10);
    const Schedule schedule = make_scheduler("heft")->schedule(problem);
    Rng rng1(5);
    Rng rng2(5);
    const sim::FaultPlan a = sim::random_crash_plan(schedule, rng1, 0.1, 0.9);
    const sim::FaultPlan b = sim::random_crash_plan(schedule, rng2, 0.1, 0.9);
    EXPECT_EQ(a.crashes, b.crashes);
    EXPECT_GE(a.crashes[0].time, 0.1 * schedule.makespan() - 1e-12);
    EXPECT_LE(a.crashes[0].time, 0.9 * schedule.makespan() + 1e-12);
    EXPECT_GE(a.crashes[0].proc, 0);
    EXPECT_LT(a.crashes[0].proc, static_cast<ProcId>(problem.num_procs()));
}

TEST(RepairPolicies, FactoryRoundTripsAndRejectsUnknown) {
    for (const std::string& name : repair_policy_names()) {
        EXPECT_EQ(make_repair_policy(name)->name(), name);
    }
    EXPECT_THROW((void)make_repair_policy("hope-for-the-best"), std::invalid_argument);
}

}  // namespace
}  // namespace tsched
