// Tests for the metrics module: SLR / speedup / efficiency, the pairwise
// matrix, and the experiment runner.
#include <gtest/gtest.h>

#include "core/registry.hpp"
#include "metrics/metrics.hpp"
#include "metrics/pairwise.hpp"
#include "metrics/robustness.hpp"
#include "metrics/runner.hpp"
#include "workload/instance.hpp"

namespace tsched {
namespace {

/// Chain of 2 unit-cost tasks on 2 procs, no comm data.
Problem chain2() {
    DagBuilder builder;
    builder.add_task(1.0);
    builder.add_task(1.0);
    builder.add_edge(0, 1, 0.0);
    Dag dag = std::move(builder).build();
    const auto links = std::make_shared<UniformLinkModel>(0.0, 1.0);
    Machine machine = Machine::homogeneous(2, links);
    CostMatrix costs = CostMatrix::uniform(dag, 2);
    return Problem(std::move(dag), std::move(machine), std::move(costs));
}

TEST(Metrics, HandComputedValues) {
    const Problem problem = chain2();
    ScheduleDraft draft(2, 2);
    draft.add(0, 0, 0.0, 1.0);
    draft.add(1, 0, 1.0, 2.0);
    const Schedule s = std::move(draft).build();
    // CP lower bound = 2, serial best = 2, makespan = 2.
    EXPECT_DOUBLE_EQ(slr(s, problem), 1.0);
    EXPECT_DOUBLE_EQ(speedup(s, problem), 1.0);
    EXPECT_DOUBLE_EQ(efficiency(s, problem), 0.5);
    EXPECT_DOUBLE_EQ(utilization(s), 0.5);  // proc 1 fully idle
}

TEST(Metrics, SlrIsAtLeastOneForValidSchedules) {
    workload::InstanceParams params;
    params.size = 50;
    params.num_procs = 4;
    const Problem problem = workload::make_instance(params, 13);
    for (const auto* name : {"ils", "heft", "cpop", "random"}) {
        const Schedule s = make_scheduler(name)->schedule(problem);
        EXPECT_GE(slr(s, problem), 1.0 - 1e-9) << name;
        EXPECT_GT(speedup(s, problem), 0.0) << name;
        EXPECT_LE(efficiency(s, problem), 1.0 + 1e-9) << name;
    }
}

TEST(Pairwise, CountsBetterEqualWorse) {
    PairwiseMatrix m({"a", "b"});
    m.add_trial(std::vector<double>{1.0, 2.0});   // a better
    m.add_trial(std::vector<double>{2.0, 2.0});   // equal
    m.add_trial(std::vector<double>{3.0, 2.5});   // a worse
    EXPECT_EQ(m.num_trials(), 3u);
    EXPECT_EQ(m.better(0, 1), 1u);
    EXPECT_EQ(m.equal(0, 1), 1u);
    EXPECT_EQ(m.worse(0, 1), 1u);
    EXPECT_EQ(m.better(1, 0), 1u);
    EXPECT_NEAR(m.better_pct(0, 1), 100.0 / 3.0, 1e-9);
}

TEST(Pairwise, RelativeEpsilonTreatsNearTiesAsEqual) {
    PairwiseMatrix m({"a", "b"}, 1e-6);
    m.add_trial(std::vector<double>{1000.0, 1000.0000001});
    EXPECT_EQ(m.equal(0, 1), 1u);
}

TEST(Pairwise, RejectsSizeMismatchAndBadIndices) {
    PairwiseMatrix m({"a", "b"});
    EXPECT_THROW(m.add_trial(std::vector<double>{1.0}), std::invalid_argument);
    EXPECT_THROW((void)m.better(0, 5), std::out_of_range);
    EXPECT_THROW(PairwiseMatrix({}), std::invalid_argument);
}

TEST(Pairwise, TablesRender) {
    PairwiseMatrix m({"a", "b"});
    m.add_trial(std::vector<double>{1.0, 2.0});
    const std::string table = m.to_table().to_markdown();
    EXPECT_NE(table.find("A better %"), std::string::npos);
    const std::string grid = m.to_grid().to_markdown();
    EXPECT_NE(grid.find("100/0/0"), std::string::npos);
}

TEST(Runner, AggregatesAndValidates) {
    workload::InstanceParams params;
    params.size = 40;
    params.num_procs = 4;
    const std::vector<std::string> names{"ils", "heft"};
    const auto schedulers = make_schedulers(names);
    const PointResult result = run_point(params, schedulers, 10, 42);

    EXPECT_EQ(result.trials, 10u);
    EXPECT_EQ(result.invalid_schedules, 0u);
    EXPECT_EQ(result.names, names);
    for (const auto& name : names) {
        const auto& agg = result.agg.at(name);
        EXPECT_EQ(agg.slr.count(), 10u);
        EXPECT_GE(agg.slr.min(), 1.0 - 1e-9);
        EXPECT_GT(agg.speedup.mean(), 0.0);
        EXPECT_GE(agg.sched_time_ms.mean(), 0.0);
    }
    // Dual-mode guarantee shows up in the pairwise matrix: ILS never worse.
    EXPECT_EQ(result.pairwise.worse(0, 1), 0u);
}

TEST(Runner, DeterministicAcrossCalls) {
    workload::InstanceParams params;
    params.size = 30;
    params.num_procs = 4;
    const auto schedulers = make_schedulers(std::vector<std::string>{"heft"});
    const auto a = run_point(params, schedulers, 5, 7);
    const auto b = run_point(params, schedulers, 5, 7);
    EXPECT_DOUBLE_EQ(a.agg.at("heft").slr.mean(), b.agg.at("heft").slr.mean());
    EXPECT_DOUBLE_EQ(a.agg.at("heft").makespan.sum(), b.agg.at("heft").makespan.sum());
}

TEST(Runner, PoolParallelTrialsMatchSerialBitExactly) {
    // The --jobs path: trials fan out across a pool, samples are folded in
    // trial order, so every deterministic aggregate must be bit-identical
    // to the serial run's.  ils-d exercises the speculation machinery
    // (checkpoint/rollback) concurrently, which also gives TSan a workload.
    workload::InstanceParams params;
    params.size = 40;
    params.num_procs = 4;
    params.ccr = 2.0;
    const auto schedulers = make_schedulers(std::vector<std::string>{"ils-d", "heft", "lheft"});
    const PointResult serial = run_point(params, schedulers, 8, 2007, nullptr);
    ThreadPool pool(4);
    const PointResult parallel = run_point(params, schedulers, 8, 2007, &pool);

    EXPECT_EQ(serial.invalid_schedules, parallel.invalid_schedules);
    for (const auto& name : serial.names) {
        const auto& a = serial.agg.at(name);
        const auto& b = parallel.agg.at(name);
        EXPECT_EQ(a.slr.count(), b.slr.count()) << name;
        EXPECT_DOUBLE_EQ(a.slr.mean(), b.slr.mean()) << name;
        EXPECT_DOUBLE_EQ(a.slr.ci95_halfwidth(), b.slr.ci95_halfwidth()) << name;
        EXPECT_DOUBLE_EQ(a.speedup.sum(), b.speedup.sum()) << name;
        EXPECT_DOUBLE_EQ(a.efficiency.sum(), b.efficiency.sum()) << name;
        EXPECT_DOUBLE_EQ(a.makespan.sum(), b.makespan.sum()) << name;
        EXPECT_DOUBLE_EQ(a.duplicates.sum(), b.duplicates.sum()) << name;
    }
    for (std::size_t i = 0; i < serial.names.size(); ++i) {
        for (std::size_t j = 0; j < serial.names.size(); ++j) {
            EXPECT_EQ(serial.pairwise.better(i, j), parallel.pairwise.better(i, j));
            EXPECT_EQ(serial.pairwise.equal(i, j), parallel.pairwise.equal(i, j));
        }
    }
}

TEST(Runner, PoolOfOneWorkerTakesSerialPath) {
    workload::InstanceParams params;
    params.size = 20;
    params.num_procs = 4;
    const auto schedulers = make_schedulers(std::vector<std::string>{"heft"});
    ThreadPool pool(1);
    const auto a = run_point(params, schedulers, 3, 7, &pool);
    const auto b = run_point(params, schedulers, 3, 7, nullptr);
    EXPECT_DOUBLE_EQ(a.agg.at("heft").makespan.sum(), b.agg.at("heft").makespan.sum());
}

TEST(Runner, RejectsEmptySchedulerSet) {
    workload::InstanceParams params;
    EXPECT_THROW((void)run_point(params, std::span<const Scheduler* const>{}, 1, 0),
                 std::invalid_argument);
}

TEST(Robustness, MonteCarloIsDeterministicAndSane) {
    workload::InstanceParams params;
    params.size = 40;
    params.num_procs = 4;
    const Problem problem = workload::make_instance(params, 17);
    const Schedule schedule = make_scheduler("heft")->schedule(problem);
    const auto policy = make_repair_policy("reschedule-suffix");
    RobustnessParams rp;
    rp.samples = 16;
    const auto a = monte_carlo_degradation(schedule, problem, *policy, rp, 5);
    const auto b = monte_carlo_degradation(schedule, problem, *policy, rp, 5);
    EXPECT_EQ(a.expected_degradation, b.expected_degradation);
    EXPECT_EQ(a.p99_degradation, b.p99_degradation);
    EXPECT_EQ(a.worst_degradation, b.worst_degradation);
    // The ordering mean <= p99 <= worst holds by construction, and a crash
    // can never *shrink* the realised makespan below... well, it can with a
    // smarter repair, but never below a loose floor of the static CP bound.
    EXPECT_LE(a.expected_degradation, a.p99_degradation + 1e-12);
    EXPECT_LE(a.p99_degradation, a.worst_degradation + 1e-12);
    EXPECT_GT(a.expected_degradation, 0.0);
    // A different seed samples different crashes.
    const auto c = monte_carlo_degradation(schedule, problem, *policy, rp, 6);
    EXPECT_NE(a.expected_degradation, c.expected_degradation);
}

TEST(Robustness, MonteCarloRejectsZeroSamples) {
    const Problem problem = chain2();
    ScheduleDraft draft(2, 2);
    draft.add(0, 0, 0.0, 1.0);
    draft.add(1, 0, 1.0, 2.0);
    const Schedule s = std::move(draft).build();
    RobustnessParams rp;
    rp.samples = 0;
    const auto policy = make_repair_policy("none");
    EXPECT_THROW((void)monte_carlo_degradation(s, problem, *policy, rp, 1),
                 std::invalid_argument);
}

TEST(Robustness, SlackScoreBoundsAndHandValue) {
    // Two independent unit tasks on separate procs, makespan 2: the task
    // finishing at 1 has one unit of slack, the critical one has none.
    DagBuilder builder;
    builder.add_task(1.0);
    builder.add_task(2.0);
    Dag dag = std::move(builder).build();
    const auto links = std::make_shared<UniformLinkModel>(0.0, 1.0);
    Machine machine = Machine::homogeneous(2, links);
    CostMatrix costs = CostMatrix::uniform(dag, 2);
    const Problem problem(std::move(dag), std::move(machine), std::move(costs));
    ScheduleDraft draft(2, 2);
    draft.add(0, 0, 0.0, 1.0);
    draft.add(1, 1, 0.0, 2.0);
    const Schedule s = std::move(draft).build();
    // Slacks: task 0 -> (2 - 1)/2 = 0.5, task 1 -> 0.  Mean = 0.25.
    EXPECT_DOUBLE_EQ(slack_robustness(s, problem), 0.25);
}

TEST(Robustness, SlackScoreStaysInUnitIntervalOnRealSchedules) {
    workload::InstanceParams params;
    params.size = 50;
    params.num_procs = 8;
    const Problem problem = workload::make_instance(params, 23);
    for (const auto* name : {"heft", "ils", "ils-d", "dsh"}) {
        const Schedule s = make_scheduler(name)->schedule(problem);
        const double score = slack_robustness(s, problem);
        EXPECT_GE(score, 0.0) << name;
        EXPECT_LE(score, 1.0) << name;
    }
}

}  // namespace
}  // namespace tsched
