// Unit tests for the Schedule container and the independent validator.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "platform/problem.hpp"
#include "sched/schedule.hpp"
#include "sched/validate.hpp"

namespace tsched {
namespace {

TEST(Schedule, AddAndQuery) {
    ScheduleDraft draft(3, 2);
    draft.add(0, 0, 0.0, 2.0);
    draft.add(1, 1, 0.0, 3.0);
    draft.add(2, 0, 2.0, 5.0);
    const Schedule s = std::move(draft).build();
    EXPECT_TRUE(s.complete());
    EXPECT_EQ(s.num_placements(), 3u);
    EXPECT_EQ(s.num_duplicates(), 0u);
    EXPECT_DOUBLE_EQ(s.makespan(), 5.0);
    EXPECT_EQ(s.primary(2).proc, 0);
    EXPECT_DOUBLE_EQ(s.primary(2).start, 2.0);
}

TEST(Schedule, IncompleteDetection) {
    ScheduleDraft draft(2, 1);
    draft.add(0, 0, 0.0, 1.0);
    const Schedule s = std::move(draft).build();
    EXPECT_FALSE(s.complete());
    EXPECT_THROW((void)s.primary(1), std::out_of_range);
}

TEST(Schedule, DuplicatesTracked) {
    ScheduleDraft draft(1, 2);
    draft.add(0, 0, 0.0, 2.0);
    draft.add(0, 1, 1.0, 3.5);  // duplicate on another proc
    const Schedule s = std::move(draft).build();
    EXPECT_EQ(s.placements(0).size(), 2u);
    EXPECT_EQ(s.num_duplicates(), 1u);
    EXPECT_DOUBLE_EQ(s.makespan(), 3.5);
    EXPECT_EQ(s.primary(0).proc, 0);  // first added is primary
}

TEST(Schedule, DraftPacksByTaskKeepingAddOrder) {
    ScheduleDraft draft(3, 2);
    draft.add(2, 0, 4.0, 5.0);
    draft.add(0, 0, 0.0, 2.0);
    draft.add(2, 1, 3.0, 4.0);  // duplicate of task 2, added after its primary
    draft.add(0, 1, 1.0, 3.0);
    draft.add(2, 1, 5.0, 6.0);
    const Schedule s = std::move(draft).build();
    const std::vector<Placement> packed{{0, 0, 0.0, 2.0}, {0, 1, 1.0, 3.0}, {2, 0, 4.0, 5.0},
                                        {2, 1, 3.0, 4.0}, {2, 1, 5.0, 6.0}};
    EXPECT_EQ(std::vector<Placement>(s.all_placements().begin(), s.all_placements().end()),
              packed);
    EXPECT_TRUE(s.placements(1).empty());
    EXPECT_EQ(s.placements(2).size(), 3u);
    EXPECT_EQ(s.primary(2), packed[2]);
    EXPECT_EQ(s.num_placements(), 5u);
    EXPECT_EQ(s.num_duplicates(), 3u);
    EXPECT_FALSE(s.complete());
    EXPECT_DOUBLE_EQ(s.makespan(), 6.0);
    EXPECT_THROW((void)s.placements(3), std::out_of_range);
    EXPECT_THROW((void)s.placements(-1), std::out_of_range);
}

TEST(Schedule, EmptyScheduleHasNoPlacements) {
    const Schedule s(4, 2);
    EXPECT_EQ(s.num_tasks(), 4u);
    EXPECT_EQ(s.num_placements(), 0u);
    EXPECT_EQ(s.num_duplicates(), 0u);
    EXPECT_FALSE(s.complete());
    EXPECT_TRUE(s.placements(3).empty());
    EXPECT_DOUBLE_EQ(s.makespan(), 0.0);
    EXPECT_TRUE(Schedule(0, 1).complete());
}

TEST(Schedule, RejectsBadAdds) {
    ScheduleDraft draft(1, 1);
    EXPECT_THROW(draft.add(5, 0, 0.0, 1.0), std::invalid_argument);
    EXPECT_THROW(draft.add(0, 3, 0.0, 1.0), std::invalid_argument);
    EXPECT_THROW(draft.add(0, 0, -1.0, 1.0), std::invalid_argument);
    EXPECT_THROW(draft.add(0, 0, 2.0, 1.0), std::invalid_argument);  // finish < start
    EXPECT_EQ(std::move(draft).build().num_placements(), 0u);  // nothing was recorded
    EXPECT_THROW(Schedule(1, 0), std::invalid_argument);
    EXPECT_THROW(ScheduleDraft(1, 0), std::invalid_argument);
    EXPECT_THROW(ScheduleDraft(std::size_t{1} << 40, 1), std::invalid_argument);
}

TEST(Schedule, ProcessorTimelineSorted) {
    ScheduleDraft draft(3, 1);
    draft.add(0, 0, 4.0, 5.0);
    draft.add(1, 0, 0.0, 2.0);
    draft.add(2, 0, 2.0, 4.0);
    const Schedule s = std::move(draft).build();
    const auto timeline = s.processor_timeline(0);
    ASSERT_EQ(timeline.size(), 3u);
    EXPECT_EQ(timeline[0].task, 1);
    EXPECT_EQ(timeline[1].task, 2);
    EXPECT_EQ(timeline[2].task, 0);
}

TEST(Schedule, DataAvailablePicksBestInstance) {
    const UniformLinkModel links(1.0, 1.0);
    ScheduleDraft draft(1, 3);
    draft.add(0, 0, 0.0, 10.0);  // remote to p2: 10 + 1 + 4 = 15
    draft.add(0, 2, 0.0, 12.0);  // local to p2: 12
    const Schedule s = std::move(draft).build();
    EXPECT_DOUBLE_EQ(s.data_available(0, 2, 4.0, links), 12.0);
    EXPECT_DOUBLE_EQ(s.data_available(0, 0, 4.0, links), 10.0);
    // Unplaced task: +inf.
    Schedule empty(1, 1);
    EXPECT_TRUE(std::isinf(empty.data_available(0, 0, 1.0, links)));
}

TEST(Schedule, IdleTimeAccounting) {
    ScheduleDraft draft(2, 2);
    draft.add(0, 0, 0.0, 4.0);
    draft.add(1, 1, 2.0, 4.0);  // proc 1 idle for 2
    const Schedule s = std::move(draft).build();
    EXPECT_DOUBLE_EQ(s.total_idle_time(), 2.0);
}

TEST(Schedule, ToStringMentionsProcessorsAndMakespan) {
    ScheduleDraft draft(1, 2);
    draft.add(0, 1, 0.0, 3.0);
    const Schedule s = std::move(draft).build();
    const std::string str = s.to_string();
    EXPECT_NE(str.find("makespan=3"), std::string::npos);
    EXPECT_NE(str.find("P1:"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Validator.
// ---------------------------------------------------------------------------

/// 0 -> 1 (data 2) on two procs, exec cost constant 3, links latency 0 bw 1.
Problem tiny_problem() {
    DagBuilder builder;
    builder.add_task(3.0);
    builder.add_task(3.0);
    builder.add_edge(0, 1, 2.0);
    Dag dag = std::move(builder).build();
    const auto links = std::make_shared<UniformLinkModel>(0.0, 1.0);
    Machine machine = Machine::homogeneous(2, links);
    CostMatrix costs = CostMatrix::uniform(dag, 2);
    return Problem(std::move(dag), std::move(machine), std::move(costs));
}

TEST(Validate, AcceptsCorrectSchedule) {
    const Problem problem = tiny_problem();
    ScheduleDraft draft(2, 2);
    draft.add(0, 0, 0.0, 3.0);
    draft.add(1, 1, 5.0, 8.0);  // data ready at 3 + 2 = 5
    const Schedule s = std::move(draft).build();
    const auto result = validate(s, problem);
    EXPECT_TRUE(result.ok) << result.message();
}

TEST(Validate, AcceptsSameProcBackToBack) {
    const Problem problem = tiny_problem();
    ScheduleDraft draft(2, 2);
    draft.add(0, 0, 0.0, 3.0);
    draft.add(1, 0, 3.0, 6.0);  // no comm on same proc
    const Schedule s = std::move(draft).build();
    EXPECT_TRUE(validate(s, problem).ok);
}

TEST(Validate, CatchesMissingTask) {
    const Problem problem = tiny_problem();
    ScheduleDraft draft(2, 2);
    draft.add(0, 0, 0.0, 3.0);
    const Schedule s = std::move(draft).build();
    const auto result = validate(s, problem);
    EXPECT_FALSE(result.ok);
    EXPECT_NE(result.message().find("no placement"), std::string::npos);
}

TEST(Validate, CatchesWrongDuration) {
    const Problem problem = tiny_problem();
    ScheduleDraft draft(2, 2);
    draft.add(0, 0, 0.0, 4.0);  // cost is 3, duration 4
    draft.add(1, 1, 6.0, 9.0);
    const Schedule s = std::move(draft).build();
    const auto result = validate(s, problem);
    EXPECT_FALSE(result.ok);
    EXPECT_NE(result.message().find("duration"), std::string::npos);
}

TEST(Validate, CatchesOverlapOnProcessor) {
    const Problem problem = tiny_problem();
    ScheduleDraft draft(2, 2);
    draft.add(0, 0, 0.0, 3.0);
    draft.add(1, 0, 2.0, 5.0);  // overlaps task 0 on proc 0
    const Schedule s = std::move(draft).build();
    const auto result = validate(s, problem);
    EXPECT_FALSE(result.ok);
    EXPECT_NE(result.message().find("overlaps"), std::string::npos);
}

TEST(Validate, CatchesPrecedenceViolation) {
    const Problem problem = tiny_problem();
    ScheduleDraft draft(2, 2);
    draft.add(0, 0, 0.0, 3.0);
    draft.add(1, 1, 4.0, 7.0);  // data arrives at 5, starts at 4
    const Schedule s = std::move(draft).build();
    const auto result = validate(s, problem);
    EXPECT_FALSE(result.ok);
    EXPECT_NE(result.message().find("arrives"), std::string::npos);
}

TEST(Validate, DuplicateSatisfiesPrecedence) {
    const Problem problem = tiny_problem();
    ScheduleDraft draft(2, 2);
    draft.add(0, 0, 0.0, 3.0);
    draft.add(0, 1, 0.0, 3.0);  // duplicate on proc 1
    draft.add(1, 1, 3.0, 6.0);  // legal only thanks to the local duplicate
    const Schedule s = std::move(draft).build();
    const auto result = validate(s, problem);
    EXPECT_TRUE(result.ok) << result.message();
}

TEST(Validate, RejectsDimensionMismatch) {
    const Problem problem = tiny_problem();
    Schedule s(2, 5);
    const auto result = validate(s, problem);
    EXPECT_FALSE(result.ok);
    EXPECT_NE(result.message().find("dimensions"), std::string::npos);
}

TEST(Validate, ErrorCapRespected) {
    const Problem problem = tiny_problem();
    Schedule s(2, 2);  // both tasks missing -> 2 errors, cap at 1
    const auto result = validate(s, problem, 1e-6, 1);
    EXPECT_FALSE(result.ok);
    EXPECT_EQ(result.total_violations, 2u);
    // One reported violation plus the "... and N more" truncation note.
    ASSERT_EQ(result.errors.size(), 2u);
    EXPECT_NE(result.errors.back().find("1 more violation"), std::string::npos);
}

}  // namespace
}  // namespace tsched
