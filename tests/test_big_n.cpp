// Big-n hot-path battery (sched/timeline.hpp + the CSR scheduling path).
//
// Two layers of protection for the bucketed gap index:
//  - Timeline.*: property tests that earliest_start equals a brute-force
//    linear gap scan on randomized busy sets, with tiny block capacities so
//    even small inputs exercise splits, block skips, and cross-block runs.
//  - BigN.*: end-to-end determinism — every scheduler family reproduces,
//    bit for bit, the schedule the pre-index linear timeline produced
//    (golden digests), plus a wall-clock smoke bound on HEFT at n = 10000.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <initializer_list>
#include <stdexcept>
#include <vector>

#include "core/registry.hpp"
#include "sched/timeline.hpp"
#include "serve/request_trace.hpp"
#include "util/fingerprint.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "workload/instance.hpp"

namespace tsched {
namespace {

// ---------------------------------------------------------------------------
// Timeline property tests
// ---------------------------------------------------------------------------

/// The pre-index algorithm, verbatim: walk every interval, first fitting gap
/// wins.  This is the oracle the bucketed query must match bit-for-bit.
double brute_force_earliest(const std::vector<BusyInterval>& busy, double ready,
                            double duration) {
    double gap_start = 0.0;
    for (const BusyInterval& iv : busy) {
        if (iv.finish <= ready) {
            gap_start = iv.finish;
            continue;
        }
        const double candidate = std::max(gap_start, ready);
        if (candidate + duration <= iv.start) return candidate;
        gap_start = iv.finish;
    }
    return std::max(gap_start, ready);
}

/// Feasible (sorted, non-overlapping) busy set: 2*count sorted draws paired
/// up, so adjacent intervals may touch (zero gaps) or leave real gaps.
std::vector<BusyInterval> random_busy(Rng& rng, std::size_t count) {
    std::vector<double> points(2 * count);
    for (double& p : points) p = rng.uniform(0.0, 100.0);
    std::sort(points.begin(), points.end());
    std::vector<BusyInterval> busy(count);
    for (std::size_t i = 0; i < count; ++i) busy[i] = {points[2 * i], points[2 * i + 1]};
    return busy;
}

/// Reference flat-order insert: before any run of equal starts.
void reference_insert(std::vector<BusyInterval>& ref, BusyInterval iv) {
    const auto pos = std::lower_bound(
        ref.begin(), ref.end(), iv,
        [](const BusyInterval& a, const BusyInterval& b) { return a.start < b.start; });
    ref.insert(pos, iv);
}

/// Reference erase: first exact (start, finish) match in flat order.
bool reference_erase(std::vector<BusyInterval>& ref, BusyInterval iv) {
    for (auto it = ref.begin(); it != ref.end(); ++it) {
        if (it->start == iv.start && it->finish == iv.finish) {
            ref.erase(it);
            return true;
        }
    }
    return false;
}

void expect_flat_equal(const BusyTimeline& timeline, const std::vector<BusyInterval>& ref) {
    const auto flat = timeline.flatten();
    ASSERT_EQ(flat.size(), ref.size());
    ASSERT_EQ(timeline.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
        EXPECT_EQ(flat[i].start, ref[i].start) << "interval " << i;
        EXPECT_EQ(flat[i].finish, ref[i].finish) << "interval " << i;
    }
}

TEST(Timeline, EarliestStartMatchesBruteForceOnRandomBusySets) {
    Rng rng(42);
    for (std::size_t trial = 0; trial < 200; ++trial) {
        const std::size_t count = static_cast<std::size_t>(rng.uniform_int(0, 40));
        const auto busy = random_busy(rng, count);
        // Capacity 4 forces many blocks even on these small sets.
        BusyTimeline bucketed(4);
        for (const BusyInterval& iv : busy) bucketed.insert(iv);
        for (std::size_t q = 0; q < 32; ++q) {
            const double ready = rng.uniform(-5.0, 110.0);
            // Mix tiny gap-seeking durations with ones that only fit at the end.
            const double duration =
                (q % 2 == 0) ? rng.uniform(0.0, 3.0) : rng.uniform(0.0, 60.0);
            const double expected = brute_force_earliest(busy, ready, duration);
            EXPECT_EQ(bucketed.earliest_start(ready, duration), expected)
                << "trial " << trial << " count " << count << " ready " << ready
                << " duration " << duration;
        }
    }
}

TEST(Timeline, EarliestStartExactFitAndBoundaryGaps) {
    // Gaps of exactly the probe duration, including the gap spanning a block
    // boundary, must be found — the screen may not reject an exact fit.
    BusyTimeline t(2);
    const std::vector<BusyInterval> busy = {
        {0.0, 1.0}, {3.0, 4.0}, {4.0, 6.0}, {9.0, 10.0}, {10.0, 12.0}, {15.0, 20.0}};
    for (const BusyInterval& iv : busy) t.insert(iv);
    EXPECT_GT(t.num_blocks(), 1u);
    EXPECT_EQ(t.earliest_start(0.0, 2.0), 1.0);   // exact fit of the [1,3] gap
    EXPECT_EQ(t.earliest_start(0.0, 3.0), 6.0);   // exact fit of the [6,9] gap
    EXPECT_EQ(t.earliest_start(0.0, 3.5), 20.0);  // nothing fits: append
    EXPECT_EQ(t.earliest_start(5.0, 1.0), 6.0);   // ready inside an interval
    EXPECT_EQ(t.earliest_start(25.0, 1.0), 25.0); // ready past the end
    EXPECT_EQ(t.earliest_start(0.0, 0.0), 0.0);   // zero duration fits at 0
}

TEST(Timeline, SummaryFirstQueryMatchesLinearScanDifferentially) {
    // earliest_start decides the data-ready cut's block on its max_gap
    // screen before any in-block binary search: a rejected block answers by
    // the exact test on the boundary gap before it when the cut is its first
    // interval, and is skipped otherwise.  Pin that decision against the
    // linear scan on random feasible timelines at several block capacities
    // and insertion orders, with ready before, inside and after the last
    // block and exactly on every interval finish, and durations at and one
    // or two ulps around every gap — boundary gaps the next block's screen
    // rejects, and internal gaps that fit only through rounding
    // (fl(finish + d) <= start although d > fl(start - finish)), which the
    // screen's slack must admit.
    Rng rng(2310);
    std::size_t queries = 0;
    std::size_t rounding_fits = 0;
    for (const std::size_t capacity : {1u, 2u, 4u, 64u}) {
        for (int trial = 0; trial < 24; ++trial) {
            const std::size_t count = static_cast<std::size_t>(
                capacity == 64 ? rng.uniform_int(130, 400) : rng.uniform_int(1, 60));
            const auto busy = random_busy(rng, count);
            std::vector<BusyInterval> order = busy;
            if (trial % 2 == 1) rng.shuffle(order);  // other block layouts
            BusyTimeline timeline(capacity);
            for (const BusyInterval& iv : order) timeline.insert(iv);
            const auto check = [&](double ready, double duration) {
                ++queries;
                ASSERT_EQ(timeline.earliest_start(ready, duration),
                          brute_force_earliest(busy, ready, duration))
                    << "capacity " << capacity << " trial " << trial << " count " << count
                    << " ready " << ready << " duration " << duration;
            };
            const double end = busy.back().finish;
            for (int q = 0; q < 16; ++q) {
                const double ready = q < 4    ? rng.uniform(-5.0, busy.front().start)
                                     : q < 12 ? rng.uniform(0.0, end)
                                              : rng.uniform(end, end + 10.0);
                check(ready, rng.uniform(0.0, 3.0));
                check(ready, rng.uniform(0.0, 40.0));
            }
            for (std::size_t i = 0; i < busy.size(); ++i) {
                const double finish = busy[i].finish;
                const double next_start = i + 1 < busy.size() ? busy[i + 1].start : end + 5.0;
                const double gap = next_start - finish;
                double duration = std::nextafter(gap, 0.0);
                for (int k = 0; k < 4; ++k, duration = std::nextafter(duration, 1e300)) {
                    if (i + 1 < busy.size() && duration > gap && finish + duration <= next_start) {
                        ++rounding_fits;
                    }
                    check(finish, duration);
                    check(busy[i].start, duration);
                    check(std::nextafter(finish, 0.0), duration);
                }
            }
        }
    }
    EXPECT_GT(queries, 10000u);
    EXPECT_GT(rounding_fits, 0u);  // the slack-only fits really occur

    // The two rejected-cut answers, by hand.  Capacity 1 packs sorted
    // inserts as [0,1] [5,6] [7,8] [9,10] [12,13 | 13,14]: every block but
    // the last is one interval, and each screen admits only tiny durations.
    BusyTimeline t(1);
    const std::vector<BusyInterval> busy = {{0.0, 1.0},  {5.0, 6.0},   {7.0, 8.0},
                                            {9.0, 10.0}, {12.0, 13.0}, {13.0, 14.0}};
    for (const BusyInterval& iv : busy) t.insert(iv);
    ASSERT_EQ(t.num_blocks(), 5u);
    EXPECT_EQ(t.earliest_start(10.5, 1.0), 10.5);  // last block's boundary gap
    EXPECT_EQ(t.earliest_start(13.5, 0.5), 14.0);  // cut past the last block's first
    EXPECT_EQ(t.earliest_start(2.0, 3.0), 2.0);    // binary-searched block's boundary gap
    EXPECT_EQ(t.earliest_start(6.0, 1.0), 6.0);    // the same, ready on a finish
    EXPECT_EQ(t.earliest_start(2.0, 3.5), 14.0);   // no gap fits anywhere
}

TEST(Timeline, InsertEraseFlattenMatchReferenceUnderRandomOps) {
    // Speculative-overlap regime: intervals may overlap and share starts,
    // exactly like duplication trials on the builder.  The timeline must
    // track a reference flat vector through every insert/erase.
    Rng rng(7);
    BusyTimeline t(4);
    std::vector<BusyInterval> ref;
    for (std::size_t op = 0; op < 400; ++op) {
        if (ref.empty() || rng.uniform() < 0.6) {
            // Coarse grid so equal starts and exact duplicates are common.
            const double start = static_cast<double>(rng.uniform_int(0, 20));
            const double finish = start + static_cast<double>(rng.uniform_int(0, 10));
            t.insert({start, finish});
            reference_insert(ref, {start, finish});
        } else {
            const auto pick = static_cast<std::size_t>(
                rng.uniform_int(0, static_cast<std::int64_t>(ref.size()) - 1));
            const BusyInterval victim = ref[pick];
            EXPECT_TRUE(t.erase(victim));
            EXPECT_TRUE(reference_erase(ref, victim));
        }
        if (op % 16 == 0) expect_flat_equal(t, ref);
    }
    expect_flat_equal(t, ref);
    // Drain completely; summaries and block removal must stay consistent.
    while (!ref.empty()) {
        const BusyInterval victim = ref.back();
        EXPECT_TRUE(t.erase(victim));
        EXPECT_TRUE(reference_erase(ref, victim));
    }
    EXPECT_TRUE(t.empty());
    EXPECT_EQ(t.last_finish(), 0.0);
}

TEST(Timeline, EqualStartRunsSpanBlocks) {
    // 24 intervals sharing one start with capacity 2: the equal-start run is
    // guaranteed to cross several block boundaries, and erase must find the
    // exact (start, finish) pair wherever it landed.
    BusyTimeline t(2);
    std::vector<BusyInterval> ref;
    for (int i = 0; i < 24; ++i) {
        const BusyInterval iv{5.0, 5.0 + 0.25 * i};
        t.insert(iv);
        reference_insert(ref, iv);
    }
    EXPECT_GT(t.num_blocks(), 2u);
    expect_flat_equal(t, ref);
    Rng rng(11);
    std::vector<BusyInterval> victims = ref;
    rng.shuffle(victims);
    for (const BusyInterval& iv : victims) {
        EXPECT_TRUE(t.erase(iv));
        EXPECT_TRUE(reference_erase(ref, iv));
        expect_flat_equal(t, ref);
    }
    EXPECT_TRUE(t.empty());
}

TEST(Timeline, EraseMissingReturnsFalse) {
    BusyTimeline t(4);
    EXPECT_FALSE(t.erase({1.0, 2.0}));
    t.insert({1.0, 2.0});
    EXPECT_FALSE(t.erase({1.0, 3.0}));  // same start, different finish
    EXPECT_FALSE(t.erase({0.0, 2.0}));
    EXPECT_TRUE(t.erase({1.0, 2.0}));
    EXPECT_FALSE(t.erase({1.0, 2.0}));
}

TEST(Timeline, ZeroBlockCapacityThrows) {
    EXPECT_THROW(BusyTimeline(0), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// BigN end-to-end battery
// ---------------------------------------------------------------------------

Problem big_instance(workload::Shape shape, std::size_t size, std::uint64_t seed) {
    workload::InstanceParams params;
    params.shape = shape;
    params.size = size;
    params.num_procs = 8;
    params.ccr = 1.0;
    params.beta = 0.5;
    return workload::make_instance(params, seed);
}

/// Exact-bits digest of a schedule: every placement's processor, start and
/// finish bit patterns in task order, then the makespan.
std::uint64_t schedule_digest(const Schedule& s) {
    Fnv1a h;
    h.u64(s.num_tasks());
    for (std::size_t v = 0; v < s.num_tasks(); ++v) {
        const auto placements = s.placements(static_cast<TaskId>(v));
        h.u64(placements.size());
        for (const Placement& p : placements) {
            h.i64(p.proc);
            h.u64(std::bit_cast<std::uint64_t>(p.start));
            h.u64(std::bit_cast<std::uint64_t>(p.finish));
        }
    }
    h.u64(std::bit_cast<std::uint64_t>(s.makespan()));
    return h.value();
}

/// Golden digests of one scheduler's schedules on the two big instances,
/// recorded at commit 307956c with the pre-index linear timeline
/// (TSCHED_LINEAR_TIMELINE=1, an option that commit still had); the bucketed
/// index produced the same digests there.  A mismatch means the bucketed
/// query no longer returns exactly the start the linear scan would.
struct LinearGolden {
    const char* algo;
    std::uint64_t layered2k;  ///< big_instance(kLayered, 2000, 2007)
    std::uint64_t forkjoin;   ///< big_instance(kForkJoin, 500, 2007)
};

void check_against_linear_goldens(std::initializer_list<LinearGolden> goldens) {
    const Problem layered = big_instance(workload::Shape::kLayered, 2000, 2007);
    const Problem forkjoin = big_instance(workload::Shape::kForkJoin, 500, 2007);
    for (const LinearGolden& golden : goldens) {
        const auto scheduler = make_scheduler(golden.algo);
        const Schedule on_layered = scheduler->schedule(layered);
        const Schedule on_forkjoin = scheduler->schedule(forkjoin);
        EXPECT_EQ(schedule_digest(on_layered), golden.layered2k)
            << "layered2k/" << golden.algo << " makespan " << on_layered.makespan();
        EXPECT_EQ(schedule_digest(on_forkjoin), golden.forkjoin)
            << "forkjoin/" << golden.algo << " makespan " << on_forkjoin.makespan();
    }
}

TEST(BigN, ListSchedulersLinearVsBucketedByteIdentical) {
    check_against_linear_goldens({
        {"heft", 0xcd3087d626d51460ULL, 0x74f6064a3cc3fc89ULL},
        {"cpop", 0x2b0e7a424a861627ULL, 0xdc39d1039b5525fcULL},
        {"peft", 0x1469e0b7533832d8ULL, 0xd2feba736e6dfb3fULL},
        {"lheft", 0x87ead63f89b2cbbfULL, 0x2332c328d2226361ULL},
    });
}

TEST(BigN, IlsFamilyLinearVsBucketedByteIdentical) {
    check_against_linear_goldens({
        {"ils", 0xcd3087d626d51460ULL, 0xd5353fc5dca82ef8ULL},
        {"ils-d", 0xf2970a96afdab85eULL, 0xc2979ce7aee829f3ULL},
    });
}

TEST(BigN, DuplicationSchedulersLinearVsBucketedByteIdentical) {
    check_against_linear_goldens({
        {"dsh", 0x8f4975e61032034bULL, 0x9a2612df3bbc3808ULL},
        {"btdh", 0xb5d88c0655975905ULL, 0xc5634ef7c2935acaULL},
    });
}

/// Golden digests of the duplication-family schedules on `serve::materialize`
/// descriptors of the wire-cold request shape (layered, P = 8, CCR 1,
/// beta 0.5), recorded at commit 4d592b5 — before the uniform-links O(P)
/// OCT fold, the single-entry data-ready read and the lazy affinity
/// tie-break.  Uniform links take the fast paths; bus, ring and mesh2d keep
/// the generic OCT loop and pin that it is untouched.  Each digest folds
/// the schedule digests of four descriptor seeds, in order.
struct WireShapeGolden {
    const char* algo;
    workload::Net net;
    std::uint64_t n100;   ///< size 100 (every wire-cold request but the 5% large ones)
    std::uint64_t n1000;  ///< size 1000 (the large ones)
};

std::uint64_t wire_shape_digest(const std::string& algo, workload::Net net, std::size_t size) {
    const auto scheduler = make_scheduler(algo);
    Fnv1a h;
    for (const std::uint64_t seed : {1ULL, 2007ULL, 0x9e3779b97f4a7c15ULL, 0xdeadbeefcafeULL}) {
        serve::TraceRequest request;
        request.algo = algo;
        request.size = size;
        request.procs = 8;
        request.net = net;
        request.seed = seed;
        const serve::ScheduleRequest materialized = serve::materialize(request);
        h.u64(schedule_digest(scheduler->schedule(*materialized.problem)));
    }
    return h.value();
}

TEST(BigN, WireShapeGoldensByteIdenticalAcrossLinkModels) {
    const std::initializer_list<WireShapeGolden> goldens = {
        {"ils", workload::Net::kUniform, 0x234890058b8ccd93ULL, 0x51591d0660bbe0ddULL},
        {"ils-d", workload::Net::kUniform, 0xb0e4393c5ded8facULL, 0x25bd634074d5c6d2ULL},
        {"dsh", workload::Net::kUniform, 0x2ca1f42df1e28781ULL, 0xaca9ee9d450c6840ULL},
        {"btdh", workload::Net::kUniform, 0xcff2a45108a91e0dULL, 0x7ab9766def24cc8fULL},
        {"ils", workload::Net::kBus, 0x25943ef47beece3cULL, 0x14363df1f6da8cbcULL},
        {"ils-d", workload::Net::kBus, 0x7882d7a9cfd9fa69ULL, 0x46f2772b4434cc9dULL},
        {"dsh", workload::Net::kBus, 0x1be2e10c23ae1425ULL, 0x06926d3d354e3574ULL},
        {"btdh", workload::Net::kBus, 0xc4724307099331baULL, 0xa624862cd021b972ULL},
        {"ils", workload::Net::kRing, 0x4ae7e60cee18790bULL, 0x1989bcd432ee65cbULL},
        {"ils-d", workload::Net::kRing, 0xdb7da88687c0b653ULL, 0x82a59de87d5ef0c2ULL},
        {"dsh", workload::Net::kRing, 0x74d4b12bc5f5b60aULL, 0x764deb28c02135cdULL},
        {"btdh", workload::Net::kRing, 0x9400ff539a2f0dfaULL, 0x073253bfb9bcc921ULL},
        {"ils", workload::Net::kMesh2d, 0x6279a54f361dc474ULL, 0x4b93d1c7d6b36c06ULL},
        {"ils-d", workload::Net::kMesh2d, 0x8a3ff58550032f27ULL, 0x13fe5e9a5271065eULL},
        {"dsh", workload::Net::kMesh2d, 0x58858f29ae0eef4eULL, 0xb3f6a98666f1948cULL},
        {"btdh", workload::Net::kMesh2d, 0xce3e6ba636da1858ULL, 0x3aca514a7cab7f21ULL},
    };
    for (const WireShapeGolden& golden : goldens) {
        EXPECT_EQ(wire_shape_digest(golden.algo, golden.net, 100), golden.n100)
            << golden.algo << "/" << workload::net_name(golden.net) << "/n100";
        EXPECT_EQ(wire_shape_digest(golden.algo, golden.net, 1000), golden.n1000)
            << golden.algo << "/" << workload::net_name(golden.net) << "/n1000";
    }
}

TEST(BigN, Heft10kUnderWallClockBudget) {
    // Smoke bound, not a benchmark: HEFT at n = 10000 must stay in the
    // single-digit-ms class in release builds, but sanitizer/debug builds
    // run ~10–40x slower, so the default budget is deliberately loose.  The
    // CI fast lane pins a tighter bound via TSCHED_BIG_N_BUDGET_MS.
    const char* env = std::getenv("TSCHED_BIG_N_BUDGET_MS");
    const double budget_ms = env != nullptr ? std::atof(env) : 30000.0;
    const Problem problem = big_instance(workload::Shape::kLayered, 10000, 2007);
    const auto scheduler = make_scheduler("heft");
    (void)scheduler->schedule(problem).makespan();  // warm-up: first-touch allocations
    double elapsed_ms = 0.0;
    double makespan = 0.0;
    {
        const Stopwatch::Scoped timer(elapsed_ms);
        makespan = scheduler->schedule(problem).makespan();
    }
    EXPECT_GT(makespan, 0.0);
    EXPECT_LT(elapsed_ms, budget_ms) << "HEFT n=10k exceeded the wall-clock budget";
}

}  // namespace
}  // namespace tsched
