// Tests for the contention-aware simulator (sim/contention.hpp).
#include <gtest/gtest.h>

#include "core/registry.hpp"
#include "sched/validate.hpp"
#include "sim/contention.hpp"
#include "sim/event_sim.hpp"
#include "workload/instance.hpp"

namespace tsched {
namespace {

/// Fan-out: src on P0 feeding two consumers on P1 and P2, unit exec, comm 4.
/// Contention-free: both transfers overlap, makespan = 1 + 4 + 1 = 6.
/// One-port: the sender serializes them; second consumer starts at 9.
Problem fan_problem() {
    DagBuilder builder;
    const TaskId src = builder.add_task(1.0);
    const TaskId a = builder.add_task(1.0);
    const TaskId b = builder.add_task(1.0);
    builder.add_edge(src, a, 4.0);
    builder.add_edge(src, b, 4.0);
    Dag dag = std::move(builder).build();
    const auto links = std::make_shared<UniformLinkModel>(0.0, 1.0);
    Machine machine = Machine::homogeneous(3, links);
    CostMatrix costs = CostMatrix::uniform(dag, 3);
    return Problem(std::move(dag), std::move(machine), std::move(costs));
}

TEST(Contention, SenderPortSerializesFanOut) {
    const Problem problem = fan_problem();
    ScheduleDraft draft(3, 3);
    draft.add(0, 0, 0.0, 1.0);
    draft.add(1, 1, 5.0, 6.0);
    draft.add(2, 2, 5.0, 6.0);
    const Schedule s = std::move(draft).build();
    EXPECT_DOUBLE_EQ(sim::simulate(s, problem).makespan, 6.0);
    const auto contended = sim::simulate_contended(s, problem);
    // First transfer [1,5] to P1; second queues on P0's send port: [5,9].
    EXPECT_DOUBLE_EQ(contended.makespan, 10.0);
    EXPECT_EQ(contended.transfers, 2u);
    EXPECT_DOUBLE_EQ(contended.transfer_time_total, 8.0);
    EXPECT_DOUBLE_EQ(contended.max_port_wait, 4.0);
}

TEST(Contention, LocalDataBypassesPorts) {
    const Problem problem = fan_problem();
    ScheduleDraft draft(3, 3);  // everything on P0: no transfers at all
    draft.add(0, 0, 0.0, 1.0);
    draft.add(1, 0, 1.0, 2.0);
    draft.add(2, 0, 2.0, 3.0);
    const Schedule s = std::move(draft).build();
    const auto contended = sim::simulate_contended(s, problem);
    EXPECT_DOUBLE_EQ(contended.makespan, 3.0);
    EXPECT_EQ(contended.transfers, 0u);
    EXPECT_DOUBLE_EQ(contended.max_port_wait, 0.0);
}

TEST(Contention, ReceiverPortSerializesFanIn) {
    // Two producers on P0/P1 feeding one consumer on P2: the consumer's
    // inbound port serializes the transfers.
    DagBuilder builder;
    const TaskId a = builder.add_task(1.0);
    const TaskId b = builder.add_task(1.0);
    const TaskId sink = builder.add_task(1.0);
    builder.add_edge(a, sink, 4.0);
    builder.add_edge(b, sink, 4.0);
    Dag dag = std::move(builder).build();
    const auto links = std::make_shared<UniformLinkModel>(0.0, 1.0);
    Machine machine = Machine::homogeneous(3, links);
    CostMatrix costs = CostMatrix::uniform(dag, 3);
    const Problem problem(std::move(dag), std::move(machine), std::move(costs));
    ScheduleDraft draft(3, 3);
    draft.add(0, 0, 0.0, 1.0);
    draft.add(1, 1, 0.0, 1.0);
    draft.add(2, 2, 5.0, 6.0);
    const Schedule s = std::move(draft).build();
    // Contention-free: both arrive at 5 -> finish 6.  One-port: second
    // transfer waits for the inbound port [5,9] -> start 9, finish 10.
    EXPECT_DOUBLE_EQ(sim::simulate(s, problem).makespan, 6.0);
    EXPECT_DOUBLE_EQ(sim::simulate_contended(s, problem).makespan, 10.0);
}

TEST(Contention, NeverFasterThanContentionFree) {
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
        workload::InstanceParams params;
        params.size = 50;
        params.num_procs = 4;
        params.ccr = 5.0;
        const Problem problem = workload::make_instance(params, seed);
        for (const auto* name : {"ils", "ils-d", "heft", "dsh"}) {
            const Schedule schedule = make_scheduler(name)->schedule(problem);
            const double free_ms = sim::simulate(schedule, problem).makespan;
            const double contended = sim::simulate_contended(schedule, problem).makespan;
            EXPECT_GE(contended, free_ms - 1e-9) << name << " seed " << seed;
        }
    }
}

TEST(Contention, DuplicationIncreasesNetworkLoadInAggregate) {
    // Counter-intuitive but real (and the point of experiment E16): every
    // duplicate pulls its *own* copies of its inputs — there is no multicast
    // in the one-port model — so duplication-heavy schedules put more
    // transfers on the network and inflate more under contention than
    // duplication-free ones, despite their better contention-free makespan.
    double heft_inflation = 0.0;
    double ilsd_inflation = 0.0;
    for (std::uint64_t seed = 0; seed < 10; ++seed) {
        workload::InstanceParams params;
        params.size = 60;
        params.num_procs = 6;
        params.ccr = 5.0;
        const Problem problem = workload::make_instance(params, seed);
        const Schedule heft = make_scheduler("heft")->schedule(problem);
        const Schedule ilsd = make_scheduler("ils-d")->schedule(problem);
        heft_inflation += sim::simulate_contended(heft, problem).makespan /
                          sim::simulate(heft, problem).makespan;
        ilsd_inflation += sim::simulate_contended(ilsd, problem).makespan /
                          sim::simulate(ilsd, problem).makespan;
    }
    EXPECT_GT(ilsd_inflation, heft_inflation);
}

TEST(CaHeft, ValidUnderContentionFreeValidatorToo) {
    for (std::uint64_t seed = 0; seed < 6; ++seed) {
        workload::InstanceParams params;
        params.size = 50;
        params.num_procs = 4;
        params.ccr = 3.0;
        const Problem problem = workload::make_instance(params, seed);
        const Schedule s = make_scheduler("ca-heft")->schedule(problem);
        // Contention only delays starts, so the standard validator accepts.
        const auto valid = validate(s, problem);
        EXPECT_TRUE(valid.ok) << valid.message();
    }
}

TEST(CaHeft, PlannedMakespanApproximatesOnePortReplay) {
    // A Schedule records placements, not transfer bookings, so the one-port
    // replay re-derives its own transfer order and can differ from the
    // construction-time bookings in either direction.  The plan must still
    // be a *useful* one-port estimate: within a bounded factor of the
    // replay, instead of the 3-7x error of contention-blind plans (E16).
    for (std::uint64_t seed = 0; seed < 6; ++seed) {
        workload::InstanceParams params;
        params.size = 50;
        params.num_procs = 4;
        params.ccr = 3.0;
        const Problem problem = workload::make_instance(params, seed);
        const Schedule s = make_scheduler("ca-heft")->schedule(problem);
        const auto contended = sim::simulate_contended(s, problem);
        EXPECT_LE(contended.makespan, s.makespan() * 1.5) << seed;
        EXPECT_GE(contended.makespan, s.makespan() * 0.5) << seed;
    }
}

TEST(CaHeft, BeatsContentionBlindHeftOnTheOnePortNetwork) {
    double heft_total = 0.0;
    double caheft_total = 0.0;
    for (std::uint64_t seed = 0; seed < 10; ++seed) {
        workload::InstanceParams params;
        params.size = 60;
        params.num_procs = 6;
        params.ccr = 5.0;
        const Problem problem = workload::make_instance(params, seed);
        heft_total +=
            sim::simulate_contended(make_scheduler("heft")->schedule(problem), problem)
                .makespan;
        caheft_total +=
            sim::simulate_contended(make_scheduler("ca-heft")->schedule(problem), problem)
                .makespan;
    }
    EXPECT_LT(caheft_total, heft_total);
}

TEST(Contention, ThrowsOnIncompleteOrDeadlocked) {
    const Problem problem = fan_problem();
    Schedule incomplete(3, 3);
    EXPECT_THROW((void)sim::simulate_contended(incomplete, problem), std::invalid_argument);

    ScheduleDraft deadlocked_draft(3, 3);  // consumer ordered before producer on one proc
    deadlocked_draft.add(1, 0, 0.0, 1.0);
    deadlocked_draft.add(0, 0, 1.0, 2.0);
    deadlocked_draft.add(2, 0, 2.0, 3.0);
    const Schedule deadlocked = std::move(deadlocked_draft).build();
    EXPECT_THROW((void)sim::simulate_contended(deadlocked, problem), std::invalid_argument);
}

}  // namespace
}  // namespace tsched
