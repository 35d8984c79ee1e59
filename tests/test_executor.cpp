// Tests for the real threaded executor (sim/executor.hpp).
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "core/registry.hpp"
#include "sim/executor.hpp"
#include "workload/instance.hpp"

namespace tsched {
namespace {

Problem sample_problem(std::uint64_t seed, std::size_t procs) {
    workload::InstanceParams params;
    params.size = 40;
    params.num_procs = procs;
    return workload::make_instance(params, seed);
}

TEST(Executor, RunsEveryPlacementOnce) {
    const Problem problem = sample_problem(1, 4);
    const Schedule schedule = make_scheduler("heft")->schedule(problem);
    std::atomic<int> runs{0};
    const auto report = sim::execute_threaded(schedule, problem.dag(),
                                              [&](TaskId, ProcId) { runs.fetch_add(1); });
    EXPECT_EQ(runs.load(), static_cast<int>(problem.num_tasks()));
    std::size_t total = 0;
    for (const std::size_t c : report.placements_run) total += c;
    EXPECT_EQ(total, problem.num_tasks());
    EXPECT_GT(report.wall_seconds, 0.0);
}

TEST(Executor, RespectsPrecedence) {
    const Problem problem = sample_problem(2, 4);
    const Schedule schedule = make_scheduler("ils")->schedule(problem);
    std::mutex mutex;
    std::vector<TaskId> completion_order;
    const auto report = sim::execute_threaded(schedule, problem.dag(), [&](TaskId v, ProcId) {
        std::lock_guard lock(mutex);
        completion_order.push_back(v);
    });
    (void)report;
    // Every task's predecessors appear before it in the observed body-start
    // order (bodies start only after all predecessors' bodies finished).
    std::vector<std::size_t> pos(problem.num_tasks(), 0);
    for (std::size_t i = 0; i < completion_order.size(); ++i) {
        pos[static_cast<std::size_t>(completion_order[i])] = i;
    }
    for (std::size_t v = 0; v < problem.num_tasks(); ++v) {
        for (const AdjEdge& e : problem.dag().predecessors(static_cast<TaskId>(v))) {
            EXPECT_LT(pos[static_cast<std::size_t>(e.task)], pos[v]);
        }
    }
}

TEST(Executor, RunsDuplicatesToo) {
    const Problem problem = [&] {
        workload::InstanceParams params;
        params.size = 40;
        params.num_procs = 4;
        params.ccr = 8.0;
        return workload::make_instance(params, 7);
    }();
    const Schedule schedule = make_scheduler("dsh")->schedule(problem);
    ASSERT_GT(schedule.num_duplicates(), 0u);  // scenario sanity
    std::atomic<int> runs{0};
    (void)sim::execute_threaded(schedule, problem.dag(),
                                [&](TaskId, ProcId) { runs.fetch_add(1); });
    EXPECT_EQ(runs.load(),
              static_cast<int>(problem.num_tasks() + schedule.num_duplicates()));
}

TEST(Executor, ReportsCompletionForEveryTask) {
    const Problem problem = sample_problem(3, 2);
    const Schedule schedule = make_scheduler("heft")->schedule(problem);
    const auto report =
        sim::execute_threaded(schedule, problem.dag(), [](TaskId, ProcId) {});
    ASSERT_EQ(report.task_completion.size(), problem.num_tasks());
    for (const double t : report.task_completion) EXPECT_GE(t, 0.0);
}

TEST(Executor, PropagatesBodyExceptions) {
    const Problem problem = sample_problem(4, 2);
    const Schedule schedule = make_scheduler("heft")->schedule(problem);
    EXPECT_THROW(
        (void)sim::execute_threaded(schedule, problem.dag(),
                                    [](TaskId v, ProcId) {
                                        if (v == 5) throw std::runtime_error("task failed");
                                    }),
        std::runtime_error);
}

TEST(Executor, AllWorkersExitBeforeThrowPropagates) {
    // The throw must happen after every worker joined: no body can still be
    // in flight once execute_threaded returns control to the caller.
    const Problem problem = sample_problem(4, 4);
    const Schedule schedule = make_scheduler("heft")->schedule(problem);
    std::atomic<int> in_flight{0};
    EXPECT_THROW((void)sim::execute_threaded(schedule, problem.dag(),
                                             [&](TaskId v, ProcId) {
                                                 in_flight.fetch_add(1);
                                                 if (v == 5) {
                                                     in_flight.fetch_sub(1);
                                                     throw std::runtime_error("boom");
                                                 }
                                                 in_flight.fetch_sub(1);
                                             }),
                 std::runtime_error);
    EXPECT_EQ(in_flight.load(), 0);
}

TEST(Executor, RetriesTransientFailures) {
    const Problem problem = sample_problem(11, 4);
    const Schedule schedule = make_scheduler("heft")->schedule(problem);
    std::atomic<int> attempts{0};
    sim::ExecutorOptions options;
    options.max_attempts = 3;
    options.retry_backoff = std::chrono::microseconds(10);
    const auto report = sim::execute_threaded(
        schedule, problem.dag(),
        [&](TaskId v, ProcId) {
            if (v == 5 && attempts.fetch_add(1) < 2) throw std::runtime_error("flaky");
        },
        options);
    EXPECT_EQ(attempts.load(), 3);  // two failures, then success
    EXPECT_EQ(report.retries, 2u);
    EXPECT_EQ(report.migrations, 0u);
    std::size_t total = 0;
    for (const std::size_t c : report.placements_run) total += c;
    EXPECT_EQ(total, problem.num_tasks());
}

TEST(Executor, ExhaustedRetriesPropagate) {
    const Problem problem = sample_problem(12, 2);
    const Schedule schedule = make_scheduler("heft")->schedule(problem);
    std::atomic<int> attempts{0};
    sim::ExecutorOptions options;
    options.max_attempts = 3;
    EXPECT_THROW((void)sim::execute_threaded(schedule, problem.dag(),
                                             [&](TaskId v, ProcId) {
                                                 if (v == 5) {
                                                     attempts.fetch_add(1);
                                                     throw std::runtime_error("dead");
                                                 }
                                             },
                                             options),
                 std::runtime_error);
    EXPECT_EQ(attempts.load(), 3);
}

TEST(Executor, QuarantinesFailingWorkerAndMigratesItsQueue) {
    const Problem problem = sample_problem(13, 4);
    const Schedule schedule = make_scheduler("heft")->schedule(problem);
    // Pick a processor that actually carries work.
    ProcId bad = 0;
    for (std::size_t p = 0; p < problem.num_procs(); ++p) {
        if (!schedule.processor_timeline(static_cast<ProcId>(p)).empty()) {
            bad = static_cast<ProcId>(p);
            break;
        }
    }
    sim::ExecutorOptions options;
    options.reassign_on_failure = true;
    std::atomic<int> runs{0};
    const auto report = sim::execute_threaded(
        schedule, problem.dag(),
        [&](TaskId, ProcId p) {
            if (p == bad) throw std::runtime_error("broken worker");
            runs.fetch_add(1);
        },
        options);
    // Every placement still ran exactly once, just not on the bad worker.
    EXPECT_EQ(runs.load(), static_cast<int>(problem.num_tasks()));
    EXPECT_TRUE(report.worker_quarantined[static_cast<std::size_t>(bad)]);
    EXPECT_EQ(report.placements_run[static_cast<std::size_t>(bad)], 0u);
    EXPECT_EQ(report.migrations,
              schedule.processor_timeline(bad).size());
    for (const double t : report.task_completion) EXPECT_GE(t, 0.0);
}

TEST(Executor, RejectsZeroAttempts) {
    const Problem problem = sample_problem(14, 2);
    const Schedule schedule = make_scheduler("heft")->schedule(problem);
    sim::ExecutorOptions options;
    options.max_attempts = 0;
    EXPECT_THROW((void)sim::execute_threaded(schedule, problem.dag(),
                                             [](TaskId, ProcId) {}, options),
                 std::invalid_argument);
}

TEST(Executor, RejectsIncompleteSchedule) {
    const Problem problem = sample_problem(5, 2);
    Schedule empty(problem.num_tasks(), problem.num_procs());
    EXPECT_THROW((void)sim::execute_threaded(empty, problem.dag(), [](TaskId, ProcId) {}),
                 std::invalid_argument);
}

TEST(Executor, RejectsMismatchedDag) {
    const Problem problem = sample_problem(6, 2);
    const Schedule schedule = make_scheduler("heft")->schedule(problem);
    DagBuilder other_builder(3);
    Dag other = std::move(other_builder).build();
    EXPECT_THROW((void)sim::execute_threaded(schedule, other, [](TaskId, ProcId) {}),
                 std::invalid_argument);
}

TEST(Executor, ComputesRealWorkCorrectly) {
    // End-to-end: execute a schedule whose bodies do real arithmetic and
    // verify the dataflow result (sum over a reduction tree).
    const Dag dag = [&] {
        DagBuilder d_builder;
        for (int i = 0; i < 7; ++i) d_builder.add_task(1.0);  // binary in-tree: 4 leaves
        d_builder.add_edge(3, 1, 1.0);
        d_builder.add_edge(4, 1, 1.0);
        d_builder.add_edge(5, 2, 1.0);
        d_builder.add_edge(6, 2, 1.0);
        d_builder.add_edge(1, 0, 1.0);
        d_builder.add_edge(2, 0, 1.0);
        Dag d = std::move(d_builder).build();
        return d;
    }();
    const auto links = std::make_shared<UniformLinkModel>(0.0, 1.0);
    Machine machine = Machine::homogeneous(2, links);
    CostMatrix costs = CostMatrix::uniform(dag, 2);
    const Problem problem(dag, std::move(machine), std::move(costs));
    const Schedule schedule = make_scheduler("heft")->schedule(problem);

    std::vector<std::atomic<long>> value(7);
    for (auto& v : value) v.store(0);
    (void)sim::execute_threaded(schedule, dag, [&](TaskId v, ProcId) {
        if (dag.predecessors(v).empty()) {
            value[static_cast<std::size_t>(v)].store(v);  // leaves: own id
        } else {
            long sum = 0;
            for (const AdjEdge& e : dag.predecessors(v)) {
                sum += value[static_cast<std::size_t>(e.task)].load();
            }
            value[static_cast<std::size_t>(v)].store(sum);
        }
    });
    EXPECT_EQ(value[0].load(), 3 + 4 + 5 + 6);
}

}  // namespace
}  // namespace tsched
