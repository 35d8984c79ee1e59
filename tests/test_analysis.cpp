// Diagnostics engine + problem/schedule lint passes.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "analysis/diagnostics.hpp"
#include "analysis/problem_lints.hpp"
#include "analysis/schedule_lints.hpp"
#include "analysis/serve_lints.hpp"
#include "sched/validate.hpp"
#include "util/rng.hpp"
#include "workload/costs.hpp"
#include "workload/instance.hpp"

namespace tsched::analysis {
namespace {

bool has_code(const Diagnostics& diags, Code code) {
    return std::any_of(diags.all().begin(), diags.all().end(),
                       [&](const Diagnostic& d) { return d.code == code; });
}

std::size_t count_code(const Diagnostics& diags, Code code) {
    return static_cast<std::size_t>(
        std::count_if(diags.all().begin(), diags.all().end(),
                      [&](const Diagnostic& d) { return d.code == code; }));
}

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

// ---------------------------------------------------------------------------
// Code registry and rendering.
// ---------------------------------------------------------------------------

TEST(Diagnostics, CodeNamesRoundTrip) {
    for (const Code code : all_codes()) {
        const std::string name = code_name(code);
        EXPECT_EQ(name.size(), 6u);
        EXPECT_EQ(name.substr(0, 2), "TS");
        const auto back = code_from_name(name);
        ASSERT_TRUE(back.has_value()) << name;
        EXPECT_EQ(*back, code);
        EXPECT_STRNE(code_title(code), "unknown code");
    }
    EXPECT_FALSE(code_from_name("TS9999").has_value());
    EXPECT_FALSE(code_from_name("XX0101").has_value());
    EXPECT_FALSE(code_from_name("TS01").has_value());
}

TEST(Diagnostics, ValidityCodesDefaultToError) {
    for (const Code code : all_codes()) {
        const auto value = static_cast<unsigned>(code);
        if (value >= 400 && value < 500) {
            EXPECT_EQ(default_severity(code), Severity::kError) << code_name(code);
        }
        // TS05xx is the quality band (warnings/info); the TS06xx fault band
        // is back to hard errors (an invalid fault plan or repair cannot be
        // simulated at all).
        if (value >= 500 && value < 600) {
            EXPECT_NE(default_severity(code), Severity::kError) << code_name(code);
        }
        if (value >= 600 && value < 700) {
            EXPECT_EQ(default_severity(code), Severity::kError) << code_name(code);
        }
        // TS07xx serve-config lints are warnings (odd but runnable knob
        // combinations) except the unknown degrade algorithm, which fails
        // every over-budget request at runtime.
        if (value >= 700 && value < 800) {
            if (code == Code::kServeDegradeUnknownAlgo) {
                EXPECT_EQ(default_severity(code), Severity::kError) << code_name(code);
            } else {
                EXPECT_EQ(default_severity(code), Severity::kWarning) << code_name(code);
            }
        }
        // TS08xx net-config lints: warnings for odd-but-runnable knobs; the
        // two configs that can never answer a request (frame cap below a
        // minimal response, zero dispatch budget) are errors.
        if (value >= 800 && value < 900) {
            if (code == Code::kNetFrameCapTiny || code == Code::kNetDispatchStarved) {
                EXPECT_EQ(default_severity(code), Severity::kError) << code_name(code);
            } else {
                EXPECT_EQ(default_severity(code), Severity::kWarning) << code_name(code);
            }
        }
    }
}

TEST(Diagnostics, CountsPerSeverity) {
    Diagnostics diags;
    diags.add(Code::kSchedPrecedence, SourceLoc{1, 0, 0}, "a");
    diags.add(Code::kSchedLoadImbalance, SourceLoc{}, "b");
    diags.add(Code::kSchedIdleFragmentation, SourceLoc{}, "c");
    diags.add(Code::kDagCycle, Severity::kNote, SourceLoc{}, "demoted");
    EXPECT_EQ(diags.size(), 4u);
    EXPECT_EQ(diags.error_count(), 1u);
    EXPECT_EQ(diags.warning_count(), 1u);
    EXPECT_EQ(diags.count(Severity::kInfo), 1u);
    EXPECT_EQ(diags.count(Severity::kNote), 1u);
    EXPECT_TRUE(diags.has_errors());
    diags.clear();
    EXPECT_TRUE(diags.empty());
    EXPECT_FALSE(diags.has_errors());
}

TEST(Diagnostics, RenderTextShowsCodeSeverityAndSummary) {
    Diagnostics diags;
    diags.add(Code::kSchedPrecedence, SourceLoc{1, 1, 0}, "task 1 starts too early");
    const std::string text = render_text(diags);
    EXPECT_NE(text.find("error[TS0406] task 1 starts too early"), std::string::npos);
    EXPECT_NE(text.find("1 error(s), 0 warning(s)"), std::string::npos);
}

TEST(Diagnostics, RenderTextTruncates) {
    Diagnostics diags;
    for (int i = 0; i < 5; ++i) {
        diags.add(Code::kSchedMissingTask, SourceLoc{i, kInvalidProc, -1},
                  "task " + std::to_string(i));
    }
    const std::string text = render_text(diags, 2);
    EXPECT_NE(text.find("... and 3 more"), std::string::npos);
    EXPECT_NE(text.find("5 error(s)"), std::string::npos);
}

TEST(Diagnostics, JsonRoundTripsExactly) {
    Diagnostics diags;
    diags.add(Code::kSchedPrecedence, SourceLoc{3, 1, 2}, "quote \" slash \\ line\nbreak\ttab");
    diags.add(Code::kDagCycle, SourceLoc{}, "no location");
    diags.add(Code::kSchedLoadImbalance, Severity::kInfo, SourceLoc{kInvalidTask, 7, -1},
              "proc only");
    const std::string json = render_json(diags);
    const Diagnostics back = parse_json(json);
    EXPECT_EQ(back, diags);
    EXPECT_EQ(render_json(back), json);
}

TEST(Diagnostics, JsonRoundTripsEmpty) {
    const Diagnostics diags;
    EXPECT_EQ(parse_json(render_json(diags)), diags);
}

TEST(Diagnostics, ParseJsonRejectsGarbage) {
    EXPECT_THROW(parse_json("not json"), std::runtime_error);
    EXPECT_THROW(parse_json("{\"diagnostics\":[{\"code\":\"TS9999\","
                            "\"severity\":\"error\",\"message\":\"x\"}]}"),
                 std::runtime_error);
}

// ---------------------------------------------------------------------------
// DAG lints.
// ---------------------------------------------------------------------------

TEST(ProblemLints, CleanDagHasNoFindings) {
    DagBuilder builder;
    builder.add_task(1.0);
    builder.add_task(2.0);
    builder.add_edge(0, 1, 1.0);
    Dag dag = std::move(builder).build();
    Diagnostics diags;
    lint_dag(dag, diags);
    EXPECT_TRUE(diags.empty()) << render_text(diags);
}

TEST(ProblemLints, DetectsCycle) {
    DagBuilder builder;
    builder.add_task();
    builder.add_task();
    builder.add_task();
    builder.add_edge(0, 1);
    builder.add_edge(1, 2);
    builder.add_edge(2, 0);
    Dag dag = std::move(builder).build();
    Diagnostics diags;
    lint_dag(dag, diags);
    EXPECT_TRUE(has_code(diags, Code::kDagCycle));
    EXPECT_TRUE(diags.has_errors());
}

TEST(ProblemLints, DetectsBadAndZeroWork) {
    DagBuilder builder;
    const TaskId a = builder.add_task(1.0);
    const TaskId b = builder.add_task(1.0);
    builder.add_edge(a, b, 1.0);
    Dag dag = std::move(builder).build();
    dag.set_work(a, -2.0);
    dag.set_work(b, 0.0);
    Diagnostics diags;
    lint_dag(dag, diags);
    EXPECT_TRUE(has_code(diags, Code::kDagBadWork));
    EXPECT_TRUE(has_code(diags, Code::kDagZeroWork));
}

TEST(ProblemLints, DetectsNonFiniteWork) {
    // Edge data is validated at every construction path (add_edge,
    // set_edge_data, read_tsg), so TS0104/TS0105/TS0106 stay defensive; NaN
    // work is reachable through set_work and must be caught.
    DagBuilder builder;
    const TaskId a = builder.add_task(1.0);
    builder.add_task(1.0);
    builder.add_edge(0, 1, 1.0);
    Dag dag = std::move(builder).build();
    dag.set_work(a, std::numeric_limits<double>::quiet_NaN());
    Diagnostics diags;
    lint_dag(dag, diags);
    EXPECT_TRUE(has_code(diags, Code::kDagBadWork));
}

TEST(ProblemLints, DetectsDisconnectionAndIsolation) {
    DagBuilder builder;
    builder.add_task(1.0);
    builder.add_task(1.0);
    builder.add_task(1.0);
    builder.add_edge(0, 1, 1.0);  // task 2 is isolated
    Dag dag = std::move(builder).build();
    Diagnostics diags;
    lint_dag(dag, diags);
    EXPECT_TRUE(has_code(diags, Code::kDagDisconnected));
    EXPECT_TRUE(has_code(diags, Code::kDagIsolatedTask));
}

TEST(ProblemLints, DetectsTransitivelyRedundantEdge) {
    DagBuilder builder;
    builder.add_task(1.0);
    builder.add_task(1.0);
    builder.add_task(1.0);
    builder.add_edge(0, 1, 1.0);
    builder.add_edge(1, 2, 1.0);
    builder.add_edge(0, 2, 1.0);  // implied by 0 -> 1 -> 2
    Dag dag = std::move(builder).build();
    Diagnostics diags;
    lint_dag(dag, diags);
    EXPECT_EQ(count_code(diags, Code::kDagRedundantEdge), 1u);
    EXPECT_FALSE(diags.has_errors());  // info severity
}

// ---------------------------------------------------------------------------
// Cost-matrix lints and calibration.
// ---------------------------------------------------------------------------

TEST(ProblemLints, DegenerateRowsFlaggedWhenBetaDeclared) {
    DagBuilder builder;
    for (int i = 0; i < 3; ++i) builder.add_task(5.0);
    Dag dag = std::move(builder).build();
    const CostMatrix costs = CostMatrix::uniform(dag, 4);
    Diagnostics diags;
    lint_cost_matrix(costs, diags, 1.0);
    EXPECT_EQ(count_code(diags, Code::kCostDegenerateRow), 3u);
    EXPECT_TRUE(has_code(diags, Code::kCostBetaMismatch));

    // Without a declared beta the same matrix is perfectly fine.
    Diagnostics clean;
    lint_cost_matrix(costs, clean);
    EXPECT_TRUE(clean.empty()) << render_text(clean);
}

TEST(ProblemLints, EstimateBetaTracksGeneratedHeterogeneity) {
    DagBuilder builder;
    for (int i = 0; i < 200; ++i) builder.add_task(10.0);
    Dag dag = std::move(builder).build();
    Rng rng(42);
    workload::CostParams params;
    params.num_procs = 8;
    params.beta = 1.0;
    const CostMatrix costs = workload::make_cost_matrix(dag, params, rng);
    EXPECT_NEAR(estimate_beta(costs), 1.0, 0.2);

    Diagnostics diags;
    lint_cost_matrix(costs, diags, 1.0);
    EXPECT_FALSE(has_code(diags, Code::kCostBetaMismatch)) << render_text(diags);
}

TEST(ProblemLints, DimensionMismatchIsCoded) {
    DagBuilder builder;
    builder.add_task(1.0);
    builder.add_task(1.0);
    Dag dag = std::move(builder).build();
    const auto links = std::make_shared<UniformLinkModel>(0.0, 1.0);
    const Machine machine = Machine::homogeneous(2, links);
    const CostMatrix costs(1, 3, {1.0, 1.0, 1.0});  // wrong on both axes
    Diagnostics diags;
    EXPECT_FALSE(check_dimensions(dag, machine, costs, diags));
    EXPECT_EQ(count_code(diags, Code::kCostDimMismatch), 2u);
}

TEST(ProblemLints, WellCalibratedInstancePasses) {
    workload::InstanceParams params;
    params.size = 60;
    params.ccr = 1.0;
    params.beta = 0.5;
    const Problem problem = workload::make_instance(params, 7);
    InstanceExpectations expect;
    expect.ccr = params.ccr;
    expect.beta = params.beta;
    expect.avg_exec = params.avg_exec;
    Diagnostics diags;
    lint_problem(problem, diags, expect);
    EXPECT_FALSE(diags.has_errors()) << render_text(diags);
    EXPECT_FALSE(has_code(diags, Code::kInstanceCcrMismatch));
}

TEST(ProblemLints, MiscalibratedCcrIsAnError) {
    workload::InstanceParams params;
    params.size = 60;
    params.ccr = 1.0;
    const Problem problem = workload::make_instance(params, 7);
    InstanceExpectations expect;
    expect.ccr = 2.5;  // instance was built for CCR 1.0 — off by >25%
    Diagnostics diags;
    lint_calibration(problem, diags, expect);
    EXPECT_TRUE(has_code(diags, Code::kInstanceCcrMismatch));
    EXPECT_TRUE(diags.has_errors());
}

// ---------------------------------------------------------------------------
// Schedule lints: validity family.
// ---------------------------------------------------------------------------

TEST(ScheduleLints, CleanScheduleHasNoErrors) {
    const Problem problem = tiny_problem();
    ScheduleDraft draft(2, 2);
    draft.add(0, 0, 0.0, 3.0);
    draft.add(1, 0, 3.0, 6.0);
    const Schedule s = std::move(draft).build();
    Diagnostics diags;
    lint_schedule(s, problem, diags);
    EXPECT_FALSE(diags.has_errors()) << render_text(diags);
}

TEST(ScheduleLints, DimensionMismatchShortCircuits) {
    const Problem problem = tiny_problem();
    const Schedule s(2, 5);
    Diagnostics diags;
    lint_schedule(s, problem, diags);
    EXPECT_EQ(diags.size(), 1u);
    EXPECT_TRUE(has_code(diags, Code::kSchedDimMismatch));
}

TEST(ScheduleLints, EachValidityCodeFires) {
    const Problem problem = tiny_problem();
    {
        ScheduleDraft draft(2, 2);
        draft.add(0, 0, 0.0, 3.0);
        const Schedule s = std::move(draft).build();
        Diagnostics diags;
        lint_schedule(s, problem, diags);
        EXPECT_TRUE(has_code(diags, Code::kSchedMissingTask));
    }
    {
        ScheduleDraft draft(2, 2);
        draft.add(0, 0, 0.0, 4.0);  // cost is 3
        draft.add(1, 1, 6.0, 9.0);
        const Schedule s = std::move(draft).build();
        Diagnostics diags;
        lint_schedule(s, problem, diags);
        EXPECT_TRUE(has_code(diags, Code::kSchedDurationMismatch));
    }
    {
        ScheduleDraft draft(2, 2);
        draft.add(0, 0, 0.0, 3.0);
        draft.add(1, 0, 2.0, 5.0);  // overlaps task 0 on P0
        const Schedule s = std::move(draft).build();
        Diagnostics diags;
        lint_schedule(s, problem, diags);
        EXPECT_TRUE(has_code(diags, Code::kSchedOverlap));
    }
    {
        ScheduleDraft draft(2, 2);
        draft.add(0, 0, 0.0, 3.0);
        draft.add(1, 1, 4.0, 7.0);  // data arrives at 5
        const Schedule s = std::move(draft).build();
        Diagnostics diags;
        lint_schedule(s, problem, diags);
        EXPECT_TRUE(has_code(diags, Code::kSchedPrecedence));
        EXPECT_FALSE(has_code(diags, Code::kSchedBelowLowerBound));  // makespan 7 >= 6
    }
}

TEST(ScheduleLints, ImpossibleMakespanBelowLowerBound) {
    const Problem problem = tiny_problem();  // CP lower bound = 6
    ScheduleDraft draft(2, 2);
    draft.add(0, 0, 0.0, 3.0);
    draft.add(1, 1, 0.0, 3.0);  // "parallel chain": precedence broken, makespan 3
    const Schedule s = std::move(draft).build();
    Diagnostics diags;
    lint_schedule(s, problem, diags);
    EXPECT_TRUE(has_code(diags, Code::kSchedPrecedence));
    EXPECT_TRUE(has_code(diags, Code::kSchedBelowLowerBound));
}

TEST(ScheduleLints, ViolationExactlyAtEpsilonIsAllowed) {
    const Problem problem = tiny_problem();
    const double eps = 1e-6;
    {
        ScheduleDraft draft(2, 2);  // data arrives on P1 at 5; start eps early is absorbed
        draft.add(0, 0, 0.0, 3.0);
        draft.add(1, 1, 5.0 - eps, 8.0 - eps);
        const Schedule s = std::move(draft).build();
        Diagnostics diags;
        ScheduleLintOptions options;
        options.time_eps = eps;
        lint_schedule(s, problem, diags, options);
        EXPECT_FALSE(diags.has_errors()) << render_text(diags);
    }
    {
        ScheduleDraft draft(2, 2);  // twice the epsilon is a violation
        draft.add(0, 0, 0.0, 3.0);
        draft.add(1, 1, 5.0 - 2 * eps, 8.0 - 2 * eps);
        const Schedule s = std::move(draft).build();
        Diagnostics diags;
        ScheduleLintOptions options;
        options.time_eps = eps;
        lint_schedule(s, problem, diags, options);
        EXPECT_TRUE(has_code(diags, Code::kSchedPrecedence));
    }
}

TEST(ScheduleLints, EmptyProblemAndScheduleAreClean) {
    const Dag dag;
    const auto links = std::make_shared<UniformLinkModel>(0.0, 1.0);
    const Problem problem(dag, Machine::homogeneous(1, links), CostMatrix(0, 1, {}));
    const Schedule s(0, 1);
    Diagnostics diags;
    lint_schedule(s, problem, diags);
    EXPECT_TRUE(diags.empty()) << render_text(diags);
}

TEST(ScheduleLints, SingleTaskProblem) {
    DagBuilder builder;
    builder.add_task(3.0);
    Dag dag = std::move(builder).build();
    const auto links = std::make_shared<UniformLinkModel>(0.0, 1.0);
    const Problem problem(dag, Machine::homogeneous(2, links), CostMatrix::uniform(dag, 2));
    ScheduleDraft draft(1, 2);
    draft.add(0, 1, 0.0, 3.0);
    const Schedule s = std::move(draft).build();
    Diagnostics diags;
    lint_schedule(s, problem, diags);
    EXPECT_FALSE(diags.has_errors()) << render_text(diags);
}

// ---------------------------------------------------------------------------
// Schedule lints: quality family.
// ---------------------------------------------------------------------------

TEST(ScheduleLints, ConsumedDuplicateIsNotFlagged) {
    const Problem problem = tiny_problem();
    ScheduleDraft draft(2, 2);
    draft.add(0, 0, 0.0, 3.0);
    draft.add(0, 1, 0.0, 3.0);  // duplicate feeds task 1 locally
    draft.add(1, 1, 3.0, 6.0);
    const Schedule s = std::move(draft).build();
    Diagnostics diags;
    lint_schedule(s, problem, diags);
    EXPECT_FALSE(has_code(diags, Code::kSchedRedundantDuplicate)) << render_text(diags);
    EXPECT_FALSE(has_code(diags, Code::kSchedSameProcDuplicate));
}

TEST(ScheduleLints, UnconsumedDuplicateWarns) {
    const Problem problem = tiny_problem();
    ScheduleDraft draft(2, 2);
    draft.add(0, 0, 0.0, 3.0);
    draft.add(0, 1, 0.0, 3.0);  // consumer sits on P0; this copy helps nobody
    draft.add(1, 0, 3.0, 6.0);
    const Schedule s = std::move(draft).build();
    Diagnostics diags;
    lint_schedule(s, problem, diags);
    EXPECT_TRUE(has_code(diags, Code::kSchedRedundantDuplicate));
    EXPECT_FALSE(diags.has_errors());
}

TEST(ScheduleLints, SameProcessorDuplicateWarns) {
    const Problem problem = tiny_problem();
    ScheduleDraft draft(2, 2);
    draft.add(0, 0, 0.0, 3.0);
    draft.add(0, 0, 3.0, 6.0);  // duplicate of task 0 on its own processor
    draft.add(1, 0, 6.0, 9.0);
    const Schedule s = std::move(draft).build();
    Diagnostics diags;
    lint_schedule(s, problem, diags);
    EXPECT_TRUE(has_code(diags, Code::kSchedSameProcDuplicate));
}

TEST(ScheduleLints, IdleFragmentationReported) {
    DagBuilder builder;
    builder.add_task(1.0);
    builder.add_task(1.0);
    builder.add_edge(0, 1, 8.0);
    Dag dag = std::move(builder).build();
    const auto links = std::make_shared<UniformLinkModel>(0.0, 1.0);
    const Problem problem(dag, Machine::homogeneous(2, links), CostMatrix::uniform(dag, 2));
    ScheduleDraft draft(2, 2);
    draft.add(0, 0, 0.0, 1.0);
    draft.add(1, 1, 9.0, 10.0);  // waits for the 8-unit transfer; both procs mostly idle
    const Schedule s = std::move(draft).build();
    Diagnostics diags;
    lint_schedule(s, problem, diags);
    EXPECT_TRUE(has_code(diags, Code::kSchedIdleFragmentation)) << render_text(diags);
    EXPECT_FALSE(diags.has_errors());
}

TEST(ScheduleLints, LoadImbalanceWarns) {
    DagBuilder builder;  // chain of three heavy tasks plus one light independent task
    builder.add_task(3.0);
    builder.add_task(3.0);
    builder.add_task(3.0);
    builder.add_task(0.5);
    builder.add_edge(0, 1, 0.0);
    builder.add_edge(1, 2, 0.0);
    Dag dag = std::move(builder).build();
    const auto links = std::make_shared<UniformLinkModel>(0.0, 1.0);
    const Problem problem(dag, Machine::homogeneous(4, links), CostMatrix::uniform(dag, 4));
    ScheduleDraft draft(4, 4);
    draft.add(0, 0, 0.0, 3.0);
    draft.add(1, 0, 3.0, 6.0);
    draft.add(2, 0, 6.0, 9.0);
    draft.add(3, 1, 0.0, 0.5);
    const Schedule s = std::move(draft).build();
    Diagnostics diags;
    ScheduleLintOptions options;
    options.imbalance_warn_ratio = 2.0;
    lint_schedule(s, problem, diags, options);
    EXPECT_TRUE(has_code(diags, Code::kSchedLoadImbalance)) << render_text(diags);
}

TEST(ScheduleLints, QualityPassesCanBeDisabled) {
    const Problem problem = tiny_problem();
    ScheduleDraft draft(2, 2);
    draft.add(0, 0, 0.0, 3.0);
    draft.add(0, 1, 0.0, 3.0);
    draft.add(1, 0, 3.0, 6.0);
    const Schedule s = std::move(draft).build();
    Diagnostics diags;
    ScheduleLintOptions options;
    options.quality = false;
    lint_schedule(s, problem, diags, options);
    EXPECT_TRUE(diags.empty()) << render_text(diags);
}

// ---------------------------------------------------------------------------
// Debug checks and the validate() shim.
// ---------------------------------------------------------------------------

TEST(ScheduleLints, RunDebugChecksThrowsOnErrorsOnly) {
    const Problem problem = tiny_problem();
    ScheduleDraft good_draft(2, 2);
    good_draft.add(0, 0, 0.0, 3.0);
    good_draft.add(0, 1, 0.0, 3.0);  // redundant duplicate: warning, not error
    good_draft.add(1, 0, 3.0, 6.0);
    const Schedule good = std::move(good_draft).build();
    EXPECT_NO_THROW(run_debug_checks(good, problem));

    ScheduleDraft bad_draft(2, 2);
    bad_draft.add(0, 0, 0.0, 3.0);
    bad_draft.add(1, 1, 0.0, 3.0);
    const Schedule bad = std::move(bad_draft).build();
    EXPECT_THROW(run_debug_checks(bad, problem), std::invalid_argument);
}

TEST(ValidateShim, ReportsTotalViolationsAndTruncationNote) {
    const Problem problem = tiny_problem();
    const Schedule s(2, 2);  // both tasks missing
    const auto result = validate(s, problem, 1e-6, 1);
    EXPECT_FALSE(result.ok);
    EXPECT_EQ(result.total_violations, 2u);
    ASSERT_EQ(result.errors.size(), 2u);
    EXPECT_NE(result.errors.back().find("1 more violation"), std::string::npos);
}

TEST(ValidateShim, UntruncatedResultHasNoNote) {
    const Problem problem = tiny_problem();
    const Schedule s(2, 2);
    const auto result = validate(s, problem);
    EXPECT_EQ(result.total_violations, 2u);
    EXPECT_EQ(result.errors.size(), 2u);
    for (const auto& msg : result.errors) {
        EXPECT_EQ(msg.find("more violation"), std::string::npos) << msg;
    }
}

TEST(ValidateShim, DuplicatePlacementsOnOneProcessorStayValid) {
    // Same-processor duplicates are legal (quality warning only); the legacy
    // API must keep accepting them.
    const Problem problem = tiny_problem();
    ScheduleDraft draft(2, 2);
    draft.add(0, 0, 0.0, 3.0);
    draft.add(0, 0, 3.0, 6.0);
    draft.add(1, 0, 6.0, 9.0);
    const Schedule s = std::move(draft).build();
    EXPECT_TRUE(validate(s, problem).ok);
}

// ---------------------------------------------------------------------------
// Serving overload-config lints (TS07xx, analysis/serve_lints.hpp).
// ---------------------------------------------------------------------------

TEST(ServeLints, DefaultConfigIsClean) {
    Diagnostics diags;
    lint_serve_config(serve::ServeConfig{}, /*deadline_ms=*/0.0, diags);
    EXPECT_TRUE(diags.empty()) << render_text(diags);
}

TEST(ServeLints, BoundedConfigWithSaneKnobsIsClean) {
    serve::ServeConfig config;
    config.max_inflight = 8;
    config.max_pending = 16;
    config.shed_policy = serve::ShedPolicy::kDegrade;
    config.degrade_algo = "heft";
    config.drain_timeout_ms = 500.0;
    Diagnostics diags;
    lint_serve_config(config, /*deadline_ms=*/100.0, diags);
    EXPECT_TRUE(diags.empty()) << render_text(diags);
}

TEST(ServeLints, PendingQueueBehindUnboundedAdmissionIsUnreachable) {
    serve::ServeConfig config;
    config.max_pending = 16;  // max_inflight stays 0: the queue can never fill
    Diagnostics diags;
    lint_serve_config(config, 0.0, diags);
    EXPECT_TRUE(has_code(diags, Code::kServePendingUnreachable));
    EXPECT_FALSE(diags.has_errors());
}

TEST(ServeLints, DropOldestWithNoQueueDegeneratesToRejectNew) {
    serve::ServeConfig config;
    config.max_inflight = 4;
    config.max_pending = 0;
    config.shed_policy = serve::ShedPolicy::kDropOldest;
    Diagnostics diags;
    lint_serve_config(config, 0.0, diags);
    EXPECT_TRUE(has_code(diags, Code::kServePolicyNeedsQueue));
}

TEST(ServeLints, UnknownDegradeAlgorithmIsAnError) {
    serve::ServeConfig config;
    config.shed_policy = serve::ShedPolicy::kDegrade;
    config.degrade_algo = "no-such-scheduler";
    Diagnostics diags;
    lint_serve_config(config, 0.0, diags);
    EXPECT_TRUE(has_code(diags, Code::kServeDegradeUnknownAlgo));
    EXPECT_TRUE(diags.has_errors());
    // Ablation variants resolve through make_scheduler even though they are
    // not in scheduler_names(); they must not be flagged.
    config.degrade_algo = "heft-median";
    Diagnostics variant;
    lint_serve_config(config, 0.0, variant);
    EXPECT_FALSE(has_code(variant, Code::kServeDegradeUnknownAlgo)) << render_text(variant);
}

TEST(ServeLints, NegativeOrNonFiniteBudgetsWarn) {
    serve::ServeConfig config;
    config.drain_timeout_ms = -1.0;
    Diagnostics diags;
    lint_serve_config(config, /*deadline_ms=*/-5.0, diags);
    EXPECT_TRUE(has_code(diags, Code::kServeBadDeadline));
    EXPECT_TRUE(has_code(diags, Code::kServeBadDrainTimeout));
    config.drain_timeout_ms = std::numeric_limits<double>::quiet_NaN();
    Diagnostics nan_diags;
    lint_serve_config(config, std::numeric_limits<double>::infinity(), nan_diags);
    EXPECT_TRUE(has_code(nan_diags, Code::kServeBadDeadline));
    EXPECT_TRUE(has_code(nan_diags, Code::kServeBadDrainTimeout));
}

}  // namespace
}  // namespace tsched::analysis
