// Tests for the SVG Gantt renderer (sched/gantt.hpp) and the newer baseline
// schedulers (PEFT, lookahead HEFT, linear clustering) beyond the generic
// property suite.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "core/registry.hpp"
#include "sched/gantt.hpp"
#include "sched/validate.hpp"
#include "workload/instance.hpp"

namespace tsched {
namespace {

Problem sample_problem(std::uint64_t seed, double ccr = 1.0) {
    workload::InstanceParams params;
    params.size = 30;
    params.num_procs = 4;
    params.ccr = ccr;
    return workload::make_instance(params, seed);
}

std::size_t count_occurrences(const std::string& text, const std::string& needle) {
    std::size_t count = 0;
    for (auto pos = text.find(needle); pos != std::string::npos;
         pos = text.find(needle, pos + needle.size())) {
        ++count;
    }
    return count;
}

TEST(Gantt, ContainsOneBarPerPlacement) {
    const Problem problem = sample_problem(1);
    const Schedule schedule = make_scheduler("heft")->schedule(problem);
    const std::string svg = to_svg(schedule, &problem.dag());
    // One <title> per placement bar.
    EXPECT_EQ(count_occurrences(svg, "<title>"), schedule.num_placements());
    EXPECT_NE(svg.find("<svg"), std::string::npos);
    EXPECT_NE(svg.find("</svg>"), std::string::npos);
    EXPECT_NE(svg.find("makespan"), std::string::npos);
}

TEST(Gantt, OneLanePerProcessor) {
    const Problem problem = sample_problem(2);
    const Schedule schedule = make_scheduler("ils")->schedule(problem);
    const std::string svg = to_svg(schedule);
    for (std::size_t p = 0; p < problem.num_procs(); ++p) {
        EXPECT_NE(svg.find(">P" + std::to_string(p) + "<"), std::string::npos);
    }
}

TEST(Gantt, DuplicatesRenderedHatched) {
    const Problem problem = sample_problem(3, 8.0);
    const Schedule schedule = make_scheduler("dsh")->schedule(problem);
    ASSERT_GT(schedule.num_duplicates(), 0u);
    const std::string svg = to_svg(schedule);
    EXPECT_EQ(count_occurrences(svg, "stroke-dasharray=\"3,2\""), schedule.num_duplicates());
}

TEST(Gantt, TitleAndEscaping) {
    ScheduleDraft draft(1, 1);
    draft.add(0, 0, 0.0, 2.0);
    const Schedule s = std::move(draft).build();
    DagBuilder builder;
    builder.add_task(2.0, "a<b>&\"c\"");
    Dag dag = std::move(builder).build();
    GanttOptions options;
    options.title = "x<y";
    const std::string svg = to_svg(s, &dag, options);
    EXPECT_NE(svg.find("x&lt;y"), std::string::npos);
    EXPECT_NE(svg.find("a&lt;b&gt;&amp;&quot;c&quot;"), std::string::npos);
}

TEST(Gantt, SaveWritesFile) {
    const Problem problem = sample_problem(4);
    const Schedule schedule = make_scheduler("heft")->schedule(problem);
    const auto path = std::filesystem::temp_directory_path() / "tsched_gantt_test.svg";
    save_svg(path.string(), schedule, &problem.dag());
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string first_line;
    std::getline(in, first_line);
    EXPECT_NE(first_line.find("<svg"), std::string::npos);
    in.close();
    std::filesystem::remove(path);
    EXPECT_THROW(save_svg("/nonexistent/dir/x.svg", schedule), std::runtime_error);
}

TEST(Gantt, EmptyScheduleStillRenders) {
    ScheduleDraft draft(1, 2);
    draft.add(0, 1, 0.0, 1.0);
    const Schedule s = std::move(draft).build();
    const std::string svg = to_svg(s);
    EXPECT_NE(svg.find("</svg>"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Newer baselines: behavioural checks beyond generic validity.
// ---------------------------------------------------------------------------

TEST(Peft, CompetitiveWithHeftInAggregate) {
    double peft_total = 0.0;
    double cpop_total = 0.0;
    for (std::uint64_t seed = 0; seed < 12; ++seed) {
        const Problem problem = sample_problem(seed, 2.0);
        peft_total += make_scheduler("peft")->schedule(problem).makespan();
        cpop_total += make_scheduler("cpop")->schedule(problem).makespan();
    }
    // PEFT comfortably beats CPOP in aggregate (published result's shape).
    EXPECT_LT(peft_total, cpop_total);
}

TEST(LookaheadHeft, ValidAndBoundedBySerialTime) {
    for (std::uint64_t seed = 0; seed < 6; ++seed) {
        const Problem problem = sample_problem(seed, 5.0);
        const Schedule s = make_scheduler("lheft")->schedule(problem);
        const auto valid = validate(s, problem);
        EXPECT_TRUE(valid.ok) << valid.message();
        EXPECT_LE(s.makespan(), problem.costs().best_serial_time() * 2.0);
    }
}

TEST(LinearClustering, ChainGoesToOneProcessor) {
    // A pure chain is a single cluster; linear clustering must keep it on
    // one processor (no pointless communication).
    workload::InstanceParams params;
    params.shape = workload::Shape::kChain;
    params.size = 12;
    params.num_procs = 4;
    params.ccr = 5.0;
    const Problem problem = workload::make_instance(params, 3);
    const Schedule s = make_scheduler("lc")->schedule(problem);
    EXPECT_TRUE(validate(s, problem).ok);
    const ProcId proc = s.primary(0).proc;
    for (std::size_t v = 1; v < problem.num_tasks(); ++v) {
        EXPECT_EQ(s.primary(static_cast<TaskId>(v)).proc, proc);
    }
}

TEST(LinearClustering, IndependentTasksSpreadAcrossProcessors) {
    workload::InstanceParams params;
    params.shape = workload::Shape::kDiamond;
    params.size = 8;  // wide middle layers
    params.num_procs = 4;
    params.beta = 0.0;
    const Problem problem = workload::make_instance(params, 4);
    const Schedule s = make_scheduler("lc")->schedule(problem);
    EXPECT_TRUE(validate(s, problem).ok);
    // At least two processors carry load.
    std::size_t used = 0;
    for (std::size_t p = 0; p < problem.num_procs(); ++p) {
        if (!s.processor_timeline(static_cast<ProcId>(p)).empty()) ++used;
    }
    EXPECT_GE(used, 2u);
}

}  // namespace
}  // namespace tsched
