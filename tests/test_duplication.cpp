// Tests for the duplication heuristics (DSH, BTDH, ILS-D): crafted cases
// where duplication provably helps, plus validity sweeps.
#include <gtest/gtest.h>

#include "core/registry.hpp"
#include "sched/duplication.hpp"
#include "sched/heft.hpp"
#include "sched/validate.hpp"
#include "workload/instance.hpp"

namespace tsched {
namespace {

/// One producer feeding `width` consumers with expensive edges: the textbook
/// duplication scenario.  Exec cost 1 everywhere; each edge's comm cost is 10
/// across processors.  Without duplication at most one consumer avoids the
/// transfer; with duplication every processor can host its own copy of the
/// producer and start its consumers at t = 2.
Problem fan_out_problem(std::size_t width, std::size_t procs) {
    DagBuilder builder;
    const TaskId src = builder.add_task(1.0, "src");
    for (std::size_t i = 0; i < width; ++i) {
        const TaskId c = builder.add_task(1.0);
        builder.add_edge(src, c, 10.0);
    }
    Dag dag = std::move(builder).build();
    const auto links = std::make_shared<UniformLinkModel>(0.0, 1.0);
    Machine machine = Machine::homogeneous(procs, links);
    CostMatrix costs = CostMatrix::uniform(dag, procs);
    return Problem(std::move(dag), std::move(machine), std::move(costs));
}

TEST(Dsh, BeatsHeftOnFanOut) {
    const Problem problem = fan_out_problem(8, 4);
    const Schedule heft = HeftScheduler().schedule(problem);
    const Schedule dsh = DshScheduler().schedule(problem);
    ASSERT_TRUE(validate(dsh, problem).ok);
    EXPECT_GT(dsh.num_duplicates(), 0u);
    EXPECT_LT(dsh.makespan(), heft.makespan());
    // With a copy of src on every processor: 1 (copy) + ceil(8/4) consumers.
    EXPECT_DOUBLE_EQ(dsh.makespan(), 3.0);
}

TEST(Btdh, BeatsHeftOnFanOut) {
    const Problem problem = fan_out_problem(8, 4);
    const Schedule heft = HeftScheduler().schedule(problem);
    const Schedule btdh = BtdhScheduler().schedule(problem);
    ASSERT_TRUE(validate(btdh, problem).ok);
    EXPECT_GT(btdh.num_duplicates(), 0u);
    EXPECT_LE(btdh.makespan(), heft.makespan());
}

TEST(IlsD, BeatsHeftOnFanOut) {
    const Problem problem = fan_out_problem(8, 4);
    const Schedule heft = HeftScheduler().schedule(problem);
    const Schedule ilsd = make_scheduler("ils-d")->schedule(problem);
    ASSERT_TRUE(validate(ilsd, problem).ok);
    EXPECT_GT(ilsd.num_duplicates(), 0u);
    EXPECT_LT(ilsd.makespan(), heft.makespan());
}

/// Chain with a heavy edge: duplication cannot help (each task has one
/// parent whose copy would cost the same as the original's comm).
TEST(Dsh, NoPointlessDuplicationOnCheapCommChain) {
    DagBuilder builder;
    const TaskId a = builder.add_task(5.0);
    const TaskId b = builder.add_task(5.0);
    builder.add_edge(a, b, 0.1);
    Dag dag = std::move(builder).build();
    const auto links = std::make_shared<UniformLinkModel>(0.0, 1.0);
    Machine machine = Machine::homogeneous(2, links);
    CostMatrix costs = CostMatrix::uniform(dag, 2);
    const Problem problem(std::move(dag), std::move(machine), std::move(costs));
    const Schedule dsh = DshScheduler().schedule(problem);
    ASSERT_TRUE(validate(dsh, problem).ok);
    // Running both tasks on one processor (comm 0, finish 10) already ties
    // the best a copy on the other processor could achieve, so no duplicate
    // is adopted.
    EXPECT_EQ(dsh.num_duplicates(), 0u);
    EXPECT_DOUBLE_EQ(dsh.makespan(), 10.0);
}

TEST(Dsh, DuplicationCapRespected) {
    const Problem problem = fan_out_problem(16, 8);
    const Schedule capped = DshScheduler(/*max_dups_per_task=*/1).schedule(problem);
    ASSERT_TRUE(validate(capped, problem).ok);
    // At most one duplication attempt per (task, processor) evaluation, and
    // the adopted clone carries at most one duplicate per task.
    EXPECT_LE(capped.num_duplicates(), problem.num_tasks());
}

class DuplicationSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DuplicationSweep, AllDuplicationSchedulersValidOnRandomInstances) {
    workload::InstanceParams params;
    params.size = 50;
    params.num_procs = 4;
    params.ccr = 5.0;
    params.beta = 1.0;
    const Problem problem = workload::make_instance(params, GetParam());
    for (const auto* name : {"dsh", "btdh", "ils-d"}) {
        const Schedule s = make_scheduler(name)->schedule(problem);
        const auto result = validate(s, problem);
        EXPECT_TRUE(result.ok) << name << ": " << result.message();
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DuplicationSweep, ::testing::Range<std::uint64_t>(0, 10));

TEST(DuplicationAggregate, DuplicationBeatsHeftAtHighCcr) {
    double heft_total = 0.0;
    double dsh_total = 0.0;
    double btdh_total = 0.0;
    for (std::uint64_t seed = 0; seed < 15; ++seed) {
        workload::InstanceParams params;
        params.size = 60;
        params.num_procs = 6;
        params.ccr = 8.0;
        const Problem problem = workload::make_instance(params, seed);
        heft_total += HeftScheduler().schedule(problem).makespan();
        dsh_total += DshScheduler().schedule(problem).makespan();
        btdh_total += BtdhScheduler().schedule(problem).makespan();
    }
    EXPECT_LT(dsh_total, heft_total);
    EXPECT_LT(btdh_total, heft_total);
}

}  // namespace
}  // namespace tsched
