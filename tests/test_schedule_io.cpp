// Tests for schedule persistence (sched/schedule_io.hpp).
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "core/registry.hpp"
#include "net/codec.hpp"
#include "sched/schedule_io.hpp"
#include "sched/validate.hpp"
#include "util/fingerprint.hpp"
#include "workload/instance.hpp"

namespace tsched {
namespace {

Schedule sample_schedule() {
    ScheduleDraft draft(3, 2);
    draft.add(0, 0, 0.0, 1.5);
    draft.add(1, 1, 2.25, 4.0);
    draft.add(1, 0, 1.5, 3.25);  // duplicate of task 1
    draft.add(2, 0, 3.25, 5.0);
    return std::move(draft).build();
}

TEST(Tss, RoundTripsExactly) {
    const Schedule s = sample_schedule();
    const Schedule back = read_tss_string(to_tss(s));
    EXPECT_EQ(back.num_tasks(), s.num_tasks());
    EXPECT_EQ(back.num_procs(), s.num_procs());
    EXPECT_EQ(back.num_placements(), s.num_placements());
    EXPECT_EQ(back.num_duplicates(), 1u);
    EXPECT_DOUBLE_EQ(back.makespan(), s.makespan());
    EXPECT_EQ(to_tss(back), to_tss(s));  // byte-identical re-serialization
}

TEST(Tss, SchedulerOutputRoundTripsAndRevalidates) {
    workload::InstanceParams params;
    params.size = 40;
    params.num_procs = 4;
    params.ccr = 5.0;
    const Problem problem = workload::make_instance(params, 17);
    const Schedule original = make_scheduler("dsh")->schedule(problem);
    const Schedule restored = read_tss_string(to_tss(original));
    // The restored schedule validates against the same problem.
    const auto valid = validate(restored, problem);
    EXPECT_TRUE(valid.ok) << valid.message();
    EXPECT_DOUBLE_EQ(restored.makespan(), original.makespan());
    EXPECT_EQ(restored.num_duplicates(), original.num_duplicates());
}

TEST(Tss, FileRoundTrip) {
    const Schedule s = sample_schedule();
    const auto path = std::filesystem::temp_directory_path() / "tsched_schedule.tss";
    save_tss(path.string(), s);
    const Schedule back = load_tss(path.string());
    std::filesystem::remove(path);
    EXPECT_EQ(to_tss(back), to_tss(s));
    EXPECT_THROW((void)load_tss("/nonexistent/x.tss"), std::runtime_error);
    EXPECT_THROW(save_tss("/nonexistent/dir/x.tss", s), std::runtime_error);
}

TEST(Tss, RejectsMalformedDocuments) {
    EXPECT_THROW((void)read_tss_string(""), std::runtime_error);                    // no header
    EXPECT_THROW((void)read_tss_string("p 0 0 0 1\n"), std::runtime_error);         // placement first
    EXPECT_THROW((void)read_tss_string("tss 1 0\n"), std::runtime_error);           // zero procs
    EXPECT_THROW((void)read_tss_string("tss 18446744073709551615 1\n"),
                 std::runtime_error);  // more tasks than a TaskId can name
    EXPECT_THROW((void)read_tss_string("tss 1 1\ntss 1 1\n"), std::runtime_error);  // dup header
    EXPECT_THROW((void)read_tss_string("tss 1 1\np 5 0 0 1\n"), std::runtime_error);  // range
    EXPECT_THROW((void)read_tss_string("tss 1 1\np 0 0 2 1\n"), std::runtime_error);  // finish<start
    EXPECT_THROW((void)read_tss_string("tss 1 1\nx y\n"), std::runtime_error);      // bad tag
    EXPECT_THROW((void)read_tss_string("tss 1 1\np 0 0\n"), std::runtime_error);    // short line
}

TEST(Tss, PlacementErrorsNameTheirLine) {
    try {
        (void)read_tss_string("tss 1 1\n# note\np 0 0 2 1\n");
        FAIL() << "inverted interval accepted";
    } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "read_tss: line 3: Schedule::add: invalid time interval");
    }
}

TEST(Tss, IgnoresCommentsAndEmptyLines) {
    const Schedule s = read_tss_string("# hi\n\ntss 1 2\n# mid\np 0 1 0 2\n");
    EXPECT_EQ(s.num_tasks(), 1u);
    EXPECT_EQ(s.primary(0).proc, 1);
}

TEST(Tss, PreservesFullDoublePrecision) {
    ScheduleDraft draft(1, 1);
    draft.add(0, 0, 0.1, 0.1 + 1.0 / 3.0);
    const Schedule s = std::move(draft).build();
    const Schedule back = read_tss_string(to_tss(s));
    EXPECT_DOUBLE_EQ(back.primary(0).start, 0.1);
    EXPECT_DOUBLE_EQ(back.primary(0).finish, 0.1 + 1.0 / 3.0);
}

// ---------------------------------------------------------------------------
// Layout goldens: every registered scheduler's wire and .tss bytes on
// layered n = 60 and gauss m = 9, under uniform links and a ring topology,
// as recorded at fc57495, when a Schedule still kept one heap vector per
// task.  Each digest folds the four instances in the order below.
// ---------------------------------------------------------------------------

std::vector<Problem> layout_problems() {
    std::vector<Problem> problems;
    for (const auto& [shape, size] : {std::pair{workload::Shape::kLayered, std::size_t{60}},
                                      std::pair{workload::Shape::kGauss, std::size_t{9}}}) {
        for (const workload::Net net : {workload::Net::kUniform, workload::Net::kRing}) {
            workload::InstanceParams params;
            params.shape = shape;
            params.size = size;
            params.num_procs = 4;
            params.net = net;
            params.ccr = 2.0;
            problems.push_back(workload::make_instance(params, 7));
        }
    }
    return problems;
}

struct LayoutGolden {
    const char* algo;
    std::uint64_t wire;  ///< Fnv1a over net::encode_schedule of each instance
    std::uint64_t tss;   ///< Fnv1a over to_tss of each instance
};

constexpr LayoutGolden kLayoutGoldens[] = {
    {"ils", 0xd8560a648674c7f8ULL, 0xa7fb5f32fa5d2360ULL},
    {"ils-d", 0x6f6a83081fbb9364ULL, 0x0c621e6dab6952fcULL},
    {"heft", 0xb3d91c4731ed8b31ULL, 0x3c1c3ab92a52a4ceULL},
    {"heft-median", 0xb3d91c4731ed8b31ULL, 0x3c1c3ab92a52a4ceULL},
    {"heft-worst", 0x9602315c3f60e200ULL, 0xdfc9af914a8a1172ULL},
    {"heft-best", 0x580b1850a8e39bf8ULL, 0x8738909fa8b73f80ULL},
    {"heft-noins", 0x3971eb9ca9c13773ULL, 0xb500c8789d2a2a50ULL},
    {"cpop", 0x1d618eeb4b71a24aULL, 0xdaf1af8dd203a175ULL},
    {"hcpt", 0xb7560ccf5794187bULL, 0x62dc581c13997e84ULL},
    {"dls", 0x0b7144eaa7d8bdbfULL, 0x67c0ad4a7497b526ULL},
    {"etf", 0xee49b484ff1576f6ULL, 0x0c53658b9f31d48cULL},
    {"mcp", 0xa1af5feca1894a05ULL, 0xa17b698bc09971bcULL},
    {"hlfet", 0xcc861a5efcda6056ULL, 0x8950da0e25e0971aULL},
    {"minmin", 0x54c75c307f2f72f0ULL, 0x10c1e57a0ae9bf16ULL},
    {"maxmin", 0xafce5ef6aa63703bULL, 0x65107ccd2c8b4847ULL},
    {"random", 0x714dee3f1f1566e0ULL, 0x9d692d677d71ff3bULL},
    {"peft", 0x35e19e2c2db13ac3ULL, 0x4f9e5f3984341ebbULL},
    {"lheft", 0xe8d93e106c0f4bceULL, 0xb632a43d59498eadULL},
    {"lc", 0x661dc51f79d98407ULL, 0x8c13d751e61ba96fULL},
    {"ca-heft", 0x97cf866c4d95a7eaULL, 0x48b575cc097aa98cULL},
    {"dsh", 0x2c4a0eaf8f895c8cULL, 0x64a1ec703f12a5c5ULL},
    {"btdh", 0xf7173fa404ef9afeULL, 0x7f0af4f8905b2fe9ULL},
    {"ga", 0xb4ba51446d8492b5ULL, 0xb7b7d2c04a1ef54bULL},
    {"heft+ls", 0xb3d91c4731ed8b31ULL, 0x3c1c3ab92a52a4ceULL},
    {"ils+ls", 0xd8560a648674c7f8ULL, 0xa7fb5f32fa5d2360ULL},
};

TEST(ScheduleLayout, EverySchedulerMatchesGoldensAndRoundTrips) {
    const std::vector<std::string> names = scheduler_names();
    ASSERT_EQ(names.size(), std::size(kLayoutGoldens));
    const std::vector<Problem> problems = layout_problems();
    for (std::size_t i = 0; i < names.size(); ++i) {
        const LayoutGolden& golden = kLayoutGoldens[i];
        ASSERT_EQ(names[i], golden.algo);
        SCOPED_TRACE(golden.algo);
        Fnv1a wire;
        Fnv1a tss;
        for (const Problem& problem : problems) {
            const Schedule schedule = make_scheduler(golden.algo)->schedule(problem);
            const std::string bytes = net::encode_schedule(schedule);
            const std::string text = to_tss(schedule);
            wire.str(bytes);
            tss.str(text);
            EXPECT_EQ(net::encode_schedule(net::decode_schedule(bytes)), bytes);
            EXPECT_EQ(to_tss(read_tss_string(text)), text);
            EXPECT_EQ(net::encode_schedule(read_tss_string(text)), bytes);
        }
        EXPECT_EQ(wire.value(), golden.wire);
        EXPECT_EQ(tss.value(), golden.tss);
    }
}

}  // namespace
}  // namespace tsched
