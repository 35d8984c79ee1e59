// Trace subsystem: counter/span registry semantics and thread-safety,
// decision-trace correctness against the schedules that produced them, and
// well-formedness of every JSON exporter (validated by parsing it back with
// a minimal JSON reader — no third-party parser in the test).
#include <gtest/gtest.h>

#include <cctype>
#include <cstddef>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/ils.hpp"
#include "core/registry.hpp"
#include "platform/machine.hpp"
#include "platform/problem.hpp"
#include "sched/heft.hpp"
#include "sched/repair.hpp"
#include "sim/faults.hpp"
#include "trace/chrome_trace.hpp"
#include "trace/counters.hpp"
#include "trace/decision.hpp"
#include "trace/trace.hpp"
#include "workload/instance.hpp"

namespace tsched {
namespace {

// ---------------------------------------------------------------------------
// Minimal JSON reader: parses a value and counts objects/arrays; throws
// std::runtime_error on malformed input.  Enough to prove an exporter's
// output is syntactically valid JSON and to count "traceEvents" entries.
struct JsonStats {
    std::size_t objects = 0;
    std::size_t arrays = 0;
    std::size_t strings = 0;
};

class JsonReader {
public:
    explicit JsonReader(const std::string& text) : s_(text) {}

    JsonStats parse() {
        skip_ws();
        value();
        skip_ws();
        if (pos_ != s_.size()) fail("trailing characters");
        return stats_;
    }

private:
    [[noreturn]] void fail(const char* why) const {
        throw std::runtime_error(std::string("json error at ") + std::to_string(pos_) + ": " +
                                 why);
    }
    void skip_ws() {
        while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) ++pos_;
    }
    char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
    void expect(char c) {
        if (peek() != c) fail("unexpected character");
        ++pos_;
    }
    void value() {
        switch (peek()) {
            case '{': object(); break;
            case '[': array(); break;
            case '"': string(); break;
            default: literal(); break;
        }
    }
    void object() {
        ++stats_.objects;
        expect('{');
        skip_ws();
        if (peek() == '}') {
            ++pos_;
            return;
        }
        while (true) {
            skip_ws();
            string();
            skip_ws();
            expect(':');
            skip_ws();
            value();
            skip_ws();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            return;
        }
    }
    void array() {
        ++stats_.arrays;
        expect('[');
        skip_ws();
        if (peek() == ']') {
            ++pos_;
            return;
        }
        while (true) {
            skip_ws();
            value();
            skip_ws();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            return;
        }
    }
    void string() {
        ++stats_.strings;
        expect('"');
        while (true) {
            if (pos_ >= s_.size()) fail("unterminated string");
            const char c = s_[pos_++];
            if (c == '"') return;
            if (c == '\\') {
                if (pos_ >= s_.size()) fail("bad escape");
                ++pos_;
            } else if (static_cast<unsigned char>(c) < 0x20) {
                fail("unescaped control character");
            }
        }
    }
    void literal() {
        const std::size_t start = pos_;
        while (pos_ < s_.size() && (std::isalnum(static_cast<unsigned char>(s_[pos_])) ||
                                    s_[pos_] == '+' || s_[pos_] == '-' || s_[pos_] == '.')) {
            ++pos_;
        }
        if (pos_ == start) fail("empty value");
        const std::string tok = s_.substr(start, pos_ - start);
        if (tok == "true" || tok == "false" || tok == "null") return;
        try {
            std::size_t used = 0;
            (void)std::stod(tok, &used);
            if (used != tok.size()) fail("bad number");
        } catch (const std::exception&) {
            fail("bad number");
        }
    }

    const std::string& s_;
    std::size_t pos_ = 0;
    JsonStats stats_;
};

std::size_t count_key(const std::string& json, const std::string& key) {
    const std::string needle = "\"" + key + "\"";
    std::size_t count = 0;
    for (std::size_t at = json.find(needle); at != std::string::npos;
         at = json.find(needle, at + 1)) {
        ++count;
    }
    return count;
}

Problem small_problem(std::uint64_t seed = 0x5eed, double ccr = 2.0) {
    workload::InstanceParams params;
    params.shape = workload::Shape::kLayered;
    params.size = 24;
    params.num_procs = 4;
    params.ccr = ccr;
    return workload::make_instance(params, seed);
}

// ---------------------------------------------------------------------------
// Counters and spans.

TEST(TraceRegistry, CounterReferencesAreStableAndAccumulate) {
    trace::Registry reg;
    trace::Counter& a = reg.counter("alpha");
    a.add(3);
    trace::Counter& again = reg.counter("alpha");
    EXPECT_EQ(&a, &again);
    again.add(2);
    EXPECT_EQ(a.value(), 5u);

    const trace::Snapshot snap = reg.snapshot();
    ASSERT_EQ(snap.counters.size(), 1u);
    EXPECT_EQ(snap.counters[0].name, "alpha");
    EXPECT_EQ(snap.counters[0].value, 5u);

    reg.reset();
    EXPECT_EQ(a.value(), 0u);
    EXPECT_EQ(reg.snapshot().counters.size(), 1u) << "names stay registered after reset";
}

TEST(TraceRegistry, ConcurrentIncrementsAreNotLost) {
    trace::Registry reg;
    constexpr std::size_t kThreads = 8;
    constexpr std::size_t kIncrements = 10000;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&reg] {
            // Each thread also races the find-or-create path.
            trace::Counter& c = reg.counter("shared");
            trace::SpanTimer& s = reg.span("shared_span");
            for (std::size_t i = 0; i < kIncrements; ++i) {
                c.add(1);
                s.add(10);
            }
        });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(reg.counter("shared").value(), kThreads * kIncrements);
    EXPECT_EQ(reg.span("shared_span").count(), kThreads * kIncrements);
    EXPECT_EQ(reg.span("shared_span").total_ns(), kThreads * kIncrements * 10);

    // One TSCHED_SPAN call site entered concurrently: every thread races
    // the site's first-use lookup, and no scope exit may be lost.
    const std::uint64_t before = trace::registry().span("test/concurrent_span").count();
    threads.clear();
    for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([] {
            for (std::size_t i = 0; i < kIncrements; ++i) {
                TSCHED_SPAN("test/concurrent_span");
            }
        });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(trace::registry().span("test/concurrent_span").count() - before,
              kThreads * kIncrements);
}

TEST(TraceRegistry, SnapshotDeltaDropsIdleEntriesAndKeepsNewOnes) {
    trace::Registry reg;
    reg.counter("idle").add(7);
    reg.span("warm").add(100);
    const trace::Snapshot before = reg.snapshot();
    reg.counter("busy").add(4);
    reg.span("warm").add(50);
    const trace::Snapshot after = reg.snapshot();

    const trace::Snapshot delta = trace::snapshot_delta(before, after);
    ASSERT_EQ(delta.counters.size(), 1u);
    EXPECT_EQ(delta.counters[0].name, "busy");
    EXPECT_EQ(delta.counters[0].value, 4u);
    ASSERT_EQ(delta.spans.size(), 1u);
    EXPECT_EQ(delta.spans[0].name, "warm");
    EXPECT_EQ(delta.spans[0].count, 1u);
    EXPECT_EQ(delta.spans[0].total_ns, 50u);
}

TEST(TraceRegistry, SnapshotJsonParsesBack) {
    trace::Registry reg;
    reg.counter("with \"quotes\"").add(1);
    reg.span("sched/x").add(1234567);
    const std::string json = trace::to_json(reg.snapshot());
    EXPECT_NO_THROW(JsonReader(json).parse()) << json;
}

TEST(TraceMacros, SpanNestingRecordsEveryLevel) {
    const trace::Snapshot before = trace::registry().snapshot();
    {
        TSCHED_SPAN("test/outer");
        {
            TSCHED_SPAN("test/inner");
            TSCHED_COUNT("test/hits");
        }
        {
            TSCHED_SPAN("test/inner");
            TSCHED_COUNT_ADD("test/hits", 2);
        }
    }
    const trace::Snapshot delta =
        trace::snapshot_delta(before, trace::registry().snapshot());
    std::size_t outer = 0, inner = 0, hits = 0;
    for (const auto& s : delta.spans) {
        if (s.name == "test/outer") outer = s.count;
        if (s.name == "test/inner") inner = s.count;
    }
    for (const auto& c : delta.counters) {
        if (c.name == "test/hits") hits = c.value;
    }
    EXPECT_EQ(outer, 1u);
    EXPECT_EQ(inner, 2u);
    EXPECT_EQ(hits, 3u);
}

// ---------------------------------------------------------------------------
// Decision traces.

TEST(DecisionTrace, ExplainsEveryHeftPlacementConsistently) {
    const Problem problem = small_problem();
    const HeftScheduler heft;
    trace::DecisionTrace sink;
    const Schedule schedule = heft.schedule_traced(problem, &sink);

    // Same schedule as the untraced entry point.
    EXPECT_DOUBLE_EQ(schedule.makespan(), heft.schedule(problem).makespan());

    const auto records = sink.final_records();
    ASSERT_EQ(records.size(), problem.num_tasks());
    for (const trace::DecisionRecord* rec : records) {
        ASSERT_NE(rec, nullptr);
        ASSERT_EQ(rec->candidates.size(), problem.num_procs());
        const Placement pl = schedule.primary(rec->task);
        EXPECT_EQ(rec->chosen, pl.proc);
        EXPECT_DOUBLE_EQ(rec->start, pl.start);
        EXPECT_DOUBLE_EQ(rec->finish, pl.finish);
        // The chosen candidate's EFT is the committed finish, and no other
        // candidate strictly beats it.
        bool found = false;
        for (const auto& c : rec->candidates) {
            if (c.proc == rec->chosen) {
                found = true;
                EXPECT_NEAR(c.eft, pl.finish, 1e-9);
            }
            EXPECT_GE(c.eft, pl.finish - 1e-9) << "HEFT must pick the min-EFT processor";
        }
        EXPECT_TRUE(found);
        EXPECT_FALSE(rec->reason.empty());
    }
    EXPECT_NE(sink.explain(records.front()->task).find("chosen"), std::string::npos);
}

TEST(DecisionTrace, IlsTraceMatchesScheduleAndNamesWinningPass) {
    const Problem problem = small_problem();
    const IlsScheduler ils;
    trace::DecisionTrace sink;
    const Schedule schedule = ils.schedule_traced(problem, &sink);

    EXPECT_DOUBLE_EQ(schedule.makespan(), ils.schedule(problem).makespan());
    EXPECT_TRUE(sink.winning_pass() == "greedy" || sink.winning_pass() == "oct")
        << sink.winning_pass();
    // Both passes recorded every task.
    EXPECT_EQ(sink.records().size(), 2 * problem.num_tasks());

    const auto records = sink.final_records();
    ASSERT_EQ(records.size(), problem.num_tasks());
    for (const trace::DecisionRecord* rec : records) {
        EXPECT_EQ(rec->pass, sink.winning_pass());
        const Placement pl = schedule.primary(rec->task);
        EXPECT_EQ(rec->chosen, pl.proc);
        EXPECT_DOUBLE_EQ(rec->finish, pl.finish);
        ASSERT_EQ(rec->candidates.size(), problem.num_procs());
        for (const auto& c : rec->candidates) {
            if (c.proc == rec->chosen) {
                EXPECT_NEAR(c.eft, pl.finish, 1e-9);
            }
            if (rec->pass == "oct") {
                EXPECT_NEAR(c.score, c.eft + c.oct_bias, 1e-9);
            } else {
                EXPECT_DOUBLE_EQ(c.oct_bias, 0.0);
            }
        }
    }
}

TEST(DecisionTrace, IsDeterministicAcrossRuns) {
    const Problem problem = small_problem(0xfeedface);
    const IlsScheduler ils;
    trace::DecisionTrace first;
    trace::DecisionTrace second;
    (void)ils.schedule_traced(problem, &first);
    (void)ils.schedule_traced(problem, &second);

    EXPECT_EQ(first.winning_pass(), second.winning_pass());
    ASSERT_EQ(first.records().size(), second.records().size());
    for (std::size_t i = 0; i < first.records().size(); ++i) {
        const auto& a = first.records()[i];
        const auto& b = second.records()[i];
        EXPECT_EQ(a.task, b.task);
        EXPECT_EQ(a.chosen, b.chosen);
        EXPECT_EQ(a.pass, b.pass);
        EXPECT_DOUBLE_EQ(a.rank, b.rank);
        EXPECT_DOUBLE_EQ(a.finish, b.finish);
        ASSERT_EQ(a.candidates.size(), b.candidates.size());
        for (std::size_t j = 0; j < a.candidates.size(); ++j) {
            EXPECT_DOUBLE_EQ(a.candidates[j].score, b.candidates[j].score);
        }
    }
    EXPECT_EQ(first.render_text(), second.render_text());
    EXPECT_EQ(first.render_json(), second.render_json());
}

TEST(DecisionTrace, DefaultScheduleTracedFallsBackToSchedule) {
    const Problem problem = small_problem();
    // dsh does not override schedule_traced: the base-class default must
    // return the plain schedule and record nothing.
    const auto dsh = make_scheduler("dsh");
    trace::DecisionTrace sink;
    const Schedule traced = dsh->schedule_traced(problem, &sink);
    EXPECT_DOUBLE_EQ(traced.makespan(), dsh->schedule(problem).makespan());
    EXPECT_TRUE(sink.records().empty());
}

TEST(DecisionTrace, RenderJsonParsesBack) {
    const Problem problem = small_problem();
    trace::DecisionTrace sink;
    (void)IlsScheduler().schedule_traced(problem, &sink);
    const std::string json = sink.render_json();
    JsonStats stats{};
    ASSERT_NO_THROW(stats = JsonReader(json).parse());
    EXPECT_GT(stats.objects, problem.num_tasks());
}

// ---------------------------------------------------------------------------
// Chrome trace export.

TEST(ChromeTrace, AllModesParseBackAndCoverEveryPlacement) {
    const Problem problem = small_problem();
    const Schedule schedule = HeftScheduler().schedule(problem);
    const std::size_t placements = schedule.num_placements();

    for (const trace::TraceMode mode :
         {trace::TraceMode::kPlanned, trace::TraceMode::kSimulated,
          trace::TraceMode::kContended}) {
        const std::string json = trace::chrome_trace_json(schedule, problem, mode);
        JsonStats stats{};
        ASSERT_NO_THROW(stats = JsonReader(json).parse()) << trace::trace_mode_name(mode);
        EXPECT_EQ(count_key(json, "traceEvents"), 1u);
        // One complete event per placement plus metadata and communication
        // events; "ph" appears once per event of any kind.
        EXPECT_GE(count_key(json, "ph"), placements) << trace::trace_mode_name(mode);
        EXPECT_EQ(count_key(json, "process_name"), 2u) << "execution + communication groups";
    }
}

TEST(ChromeTrace, ScheduleOnlyOverloadParsesBack) {
    const Problem problem = small_problem();
    const Schedule schedule = IlsScheduler({.duplication = true}).schedule(problem);
    const std::string json = trace::chrome_trace_json(schedule);
    EXPECT_NO_THROW(JsonReader(json).parse());
    EXPECT_EQ(count_key(json, "process_name"), 1u) << "no communication group without a problem";
}

TEST(ChromeTrace, FaultReportOverloadAddsFaultTrack) {
    const Problem problem = small_problem();
    const Schedule schedule = HeftScheduler().schedule(problem);
    const sim::FaultPlan plan = sim::crash_busiest(schedule, 0.5);
    const auto policy = make_repair_policy("remap-pending");
    const auto report = sim::simulate_faulty(schedule, problem, plan, *policy);
    const std::string json = trace::chrome_trace_json(report, problem);
    EXPECT_NO_THROW(JsonReader(json).parse());
    EXPECT_EQ(count_key(json, "process_name"), 3u)
        << "execution + communication + faults groups";
    // One instant event per FaultEvent: a crash, a repair, and each
    // migration/re-execution show up as ph:"i" markers.
    ASSERT_FALSE(report.events.empty());
    std::size_t instants = 0;
    const std::string needle = "\"ph\":\"i\"";
    for (std::size_t at = json.find(needle); at != std::string::npos;
         at = json.find(needle, at + 1)) {
        ++instants;
    }
    EXPECT_EQ(instants, report.events.size());
    // Every repaired placement still gets a complete exec event.
    EXPECT_GE(count_key(json, "ph"), report.repaired.num_placements() + report.events.size());
}

TEST(ChromeTrace, TaskNamesAreEscaped) {
    // A 2-task chain with a name that needs escaping.
    Dag dag(2);
    dag.set_name(0, "weird \"name\"\\with\nstuff");
    dag.add_edge(0, 1, 1.0);
    const std::size_t procs = 2;
    CostMatrix costs(2, procs, std::vector<double>{1.0, 1.0, 1.0, 1.0});
    const auto links = std::make_shared<UniformLinkModel>(/*latency=*/0.0, /*bandwidth=*/1.0);
    const Problem problem(std::move(dag), Machine::homogeneous(procs, links),
                          std::move(costs));
    const Schedule schedule = HeftScheduler().schedule(problem);
    const std::string json = trace::chrome_trace_json(schedule, problem);
    EXPECT_NO_THROW(JsonReader(json).parse()) << json;
}

}  // namespace
}  // namespace tsched
