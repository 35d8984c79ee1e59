// Serving-layer tests: request fingerprinting (canonicalization contract),
// the sharded LRU schedule cache, the ServeEngine (cache hits, in-flight
// coalescing, cache-off equivalence, error propagation), and the .tsr
// request-trace format.
//
// The engine tests run real concurrency on a ThreadPool and are written to
// be meaningful under TSan: the coalescing test submits identical requests
// from many threads and asserts exactly one computation happened.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <iterator>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <future>
#include <memory>
#include <set>
#include <thread>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "obs/obs.hpp"
#include "platform/problem.hpp"
#include "sched/schedule_io.hpp"
#include "serve/chaos.hpp"
#include "serve/replay.hpp"
#include "serve/request.hpp"
#include "serve/request_trace.hpp"
#include "serve/schedule_cache.hpp"
#include "serve/serve_engine.hpp"
#include "util/fingerprint.hpp"

namespace tsched {
namespace {

// ---------------------------------------------------------------------------
// Hand-built problem with exact-representable costs (no generator involved,
// so fingerprints depend only on the canonicalization rules, never on
// floating-point quirks of instance synthesis).

std::shared_ptr<const Problem> make_problem(double fork_work = 3.0, double edge_data = 1.5,
                                            double latency = 0.25) {
    Dag dag;
    const TaskId a = dag.add_task(fork_work);
    const TaskId b = dag.add_task(2.0);
    const TaskId c = dag.add_task(4.0);
    const TaskId d = dag.add_task(1.0);
    dag.add_edge(a, b, edge_data);
    dag.add_edge(a, c, 2.5);
    dag.add_edge(b, d, 0.5);
    dag.add_edge(c, d, 1.0);
    auto links = std::make_shared<const UniformLinkModel>(latency, 2.0);
    Machine machine({1.0, 2.0}, links);
    CostMatrix costs = CostMatrix::from_speeds(dag, machine);
    return std::make_shared<const Problem>(std::move(dag), std::move(machine), std::move(costs));
}

serve::ScheduleRequest make_request(std::string algo = "heft") {
    serve::ScheduleRequest request;
    request.problem = make_problem();
    request.algo = std::move(algo);
    return request;
}

std::shared_ptr<const Schedule> make_dummy_schedule(double finish) {
    auto schedule = std::make_shared<Schedule>(1, 1);
    schedule->add(0, 0, 0.0, finish);
    return schedule;
}

// ---------------------------------------------------------------------------
// Fnv1a canonical encodings.

TEST(Fingerprint, NegativeZeroHashesLikePositiveZero) {
    Fnv1a a;
    a.f64(0.0);
    Fnv1a b;
    b.f64(-0.0);
    EXPECT_EQ(a.value(), b.value());
}

TEST(Fingerprint, AllNansHashIdentically) {
    Fnv1a a;
    a.f64(std::numeric_limits<double>::quiet_NaN());
    Fnv1a b;
    b.f64(-std::nan("0x5"));
    EXPECT_EQ(a.value(), b.value());
}

TEST(Fingerprint, StringLengthPrefixPreventsConcatenationCollisions) {
    Fnv1a a;
    a.str("ab");
    a.str("c");
    Fnv1a b;
    b.str("a");
    b.str("bc");
    EXPECT_NE(a.value(), b.value());
}

TEST(Fingerprint, DistinctDoublesHashDistinct) {
    Fnv1a a;
    a.f64(1.0);
    Fnv1a b;
    b.f64(std::nextafter(1.0, 2.0));
    EXPECT_NE(a.value(), b.value());
}

// ---------------------------------------------------------------------------
// Request canonicalization.

TEST(RequestFingerprint, StableAcrossCallsAndCopies) {
    const auto request = make_request();
    const auto fp = serve::fingerprint_request(request);
    EXPECT_EQ(fp, serve::fingerprint_request(request));

    // An independently built but identical problem fingerprints identically.
    auto twin = make_request();
    EXPECT_EQ(fp, serve::fingerprint_request(twin));
}

TEST(RequestFingerprint, TaskNamesAreExcluded) {
    const auto base = make_problem();
    // Rebuild the same problem but with task names attached.
    Dag dag;
    for (TaskId v = 0; v < static_cast<TaskId>(base->num_tasks()); ++v)
        dag.add_task(base->dag().work(v), "task_" + std::to_string(v));
    for (TaskId v = 0; v < static_cast<TaskId>(base->num_tasks()); ++v)
        for (const AdjEdge& e : base->dag().successors(v)) dag.add_edge(v, e.task, e.data);
    auto links = std::make_shared<const UniformLinkModel>(0.25, 2.0);
    Machine machine({1.0, 2.0}, links);
    CostMatrix costs = CostMatrix::from_speeds(dag, machine);
    const auto named_problem =
        std::make_shared<const Problem>(std::move(dag), std::move(machine), std::move(costs));
    EXPECT_EQ(serve::fingerprint_problem(*base), serve::fingerprint_problem(*named_problem));
}

TEST(RequestFingerprint, SensitiveToEveryInput) {
    const auto base = serve::fingerprint_request(make_request());

    {
        serve::ScheduleRequest r = make_request();
        r.problem = make_problem(3.5);  // different task work
        EXPECT_NE(base, serve::fingerprint_request(r));
    }
    {
        serve::ScheduleRequest r = make_request();
        r.problem = make_problem(3.0, 1.25);  // different edge data
        EXPECT_NE(base, serve::fingerprint_request(r));
    }
    {
        serve::ScheduleRequest r = make_request();
        r.problem = make_problem(3.0, 1.5, 0.5);  // different link latency
        EXPECT_NE(base, serve::fingerprint_request(r));
    }
    {
        serve::ScheduleRequest r = make_request("cpop");  // different algorithm
        EXPECT_NE(base, serve::fingerprint_request(r));
    }
    {
        serve::ScheduleRequest r = make_request();
        r.options = "k=3";  // different options
        EXPECT_NE(base, serve::fingerprint_request(r));
    }
}

TEST(RequestFingerprint, TopologyMattersNotJustTotals) {
    // Same tasks, same total edge data, different wiring.
    const auto build = [](bool cross) {
        Dag dag;
        dag.add_task(1.0);
        dag.add_task(1.0);
        dag.add_task(1.0);
        if (cross) {
            dag.add_edge(0, 1, 2.0);
        } else {
            dag.add_edge(0, 2, 2.0);
        }
        auto links = std::make_shared<const UniformLinkModel>(0.0, 1.0);
        Machine machine = Machine::homogeneous(2, links);
        CostMatrix costs = CostMatrix::from_speeds(dag, machine);
        return std::make_shared<const Problem>(std::move(dag), std::move(machine),
                                               std::move(costs));
    };
    EXPECT_NE(serve::fingerprint_problem(*build(true)), serve::fingerprint_problem(*build(false)));
}

TEST(RequestFingerprint, MemoizedProblemHashMatchesAFreshOne) {
    // A second, separately built equal problem has an empty memo, so it
    // recomputes: the memoized answer must be that same value, for the
    // original, for repeat calls, and for copies taken before and after.
    const auto problem = make_problem();
    const Problem early_copy = *problem;
    const std::uint64_t first = serve::fingerprint_problem(*problem);
    EXPECT_EQ(first, serve::fingerprint_problem(*make_problem()));
    EXPECT_EQ(first, serve::fingerprint_problem(*problem));
    EXPECT_EQ(first, serve::fingerprint_problem(early_copy));
    const Problem late_copy = *problem;
    EXPECT_EQ(first, late_copy.content_fingerprint());
    EXPECT_NE(first, serve::fingerprint_problem(*make_problem(3.5)));

    // Concurrent first calls on one fresh Problem all agree (and are
    // race-free under TSan).
    const auto shared = make_problem();
    std::vector<std::future<std::uint64_t>> calls;
    for (int i = 0; i < 4; ++i)
        calls.push_back(std::async(std::launch::async,
                                   [&shared] { return serve::fingerprint_problem(*shared); }));
    for (auto& call : calls) EXPECT_EQ(first, call.get());
}

// ---------------------------------------------------------------------------
// ScheduleCache.

TEST(ScheduleCache, PutGetReturnsTheSameObject) {
    serve::ScheduleCache cache(4, 1);
    const auto value = make_dummy_schedule(1.0);
    cache.put(42, value);
    const auto hit = cache.get(42);
    EXPECT_EQ(hit.get(), value.get());
    EXPECT_EQ(cache.get(7), nullptr);
    const auto stats = cache.stats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.size, 1u);
}

TEST(ScheduleCache, EvictsLeastRecentlyUsed) {
    serve::ScheduleCache cache(2, 1);
    cache.put(1, make_dummy_schedule(1.0));
    cache.put(2, make_dummy_schedule(2.0));
    ASSERT_NE(cache.get(1), nullptr);  // refresh 1 -> 2 is now LRU
    cache.put(3, make_dummy_schedule(3.0));
    EXPECT_NE(cache.get(1), nullptr);
    EXPECT_EQ(cache.get(2), nullptr);  // evicted
    EXPECT_NE(cache.get(3), nullptr);
    EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(ScheduleCache, PeekCountsNothingButRefreshesRecency) {
    serve::ScheduleCache cache(2, 1);
    cache.put(1, make_dummy_schedule(1.0));
    cache.put(2, make_dummy_schedule(2.0));
    EXPECT_NE(cache.peek(1), nullptr);
    EXPECT_EQ(cache.peek(99), nullptr);
    const auto stats = cache.stats();
    EXPECT_EQ(stats.hits, 0u);
    EXPECT_EQ(stats.misses, 0u);
    // peek refreshed key 1, so inserting a third entry evicts key 2.
    cache.put(3, make_dummy_schedule(3.0));
    EXPECT_NE(cache.peek(1), nullptr);
    EXPECT_EQ(cache.peek(2), nullptr);
}

TEST(ScheduleCache, CapacityBoundsResidencyAcrossShards) {
    serve::ScheduleCache cache(8, 4);
    for (std::uint64_t k = 0; k < 100; ++k) cache.put(k, make_dummy_schedule(1.0));
    const auto stats = cache.stats();
    EXPECT_LE(stats.size, 8u);
    EXPECT_EQ(stats.evictions, 100u - stats.size);
}

TEST(ScheduleCache, OverwriteDoesNotGrowOrEvict) {
    serve::ScheduleCache cache(2, 1);
    cache.put(1, make_dummy_schedule(1.0));
    const auto replacement = make_dummy_schedule(9.0);
    cache.put(1, replacement);
    const auto stats = cache.stats();
    EXPECT_EQ(stats.size, 1u);
    EXPECT_EQ(stats.evictions, 0u);
    EXPECT_EQ(cache.get(1).get(), replacement.get());
}

TEST(ScheduleCache, ShardCountIsPowerOfTwoAndBoundedByCapacity) {
    EXPECT_EQ(serve::ScheduleCache(16, 5).num_shards(), 4u);
    EXPECT_EQ(serve::ScheduleCache(16, 8).num_shards(), 8u);
    EXPECT_EQ(serve::ScheduleCache(2, 8).num_shards(), 2u);
    EXPECT_EQ(serve::ScheduleCache(1, 8).num_shards(), 1u);
    EXPECT_THROW(serve::ScheduleCache(0, 1), std::invalid_argument);
    EXPECT_THROW(serve::ScheduleCache(1, 0), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// ServeEngine.

TEST(ServeEngine, SecondServeOfIdenticalRequestHitsTheCache) {
    ThreadPool pool(2);
    serve::ServeEngine engine(serve::ServeConfig{}, pool);
    const auto first = engine.serve(make_request());
    const auto second = engine.serve(make_request());
    EXPECT_FALSE(first.cache_hit);
    EXPECT_TRUE(second.cache_hit);
    EXPECT_EQ(first.fingerprint, second.fingerprint);
    // Bit-identical by construction: the hit *is* the cold result object.
    EXPECT_EQ(first.schedule.get(), second.schedule.get());
    EXPECT_EQ(to_tss(*first.schedule), to_tss(*second.schedule));
    const auto stats = engine.stats();
    EXPECT_EQ(stats.requests, 2u);
    EXPECT_EQ(stats.computed, 1u);
    EXPECT_EQ(stats.cache_hits, 1u);
}

TEST(ServeEngine, ConcurrentIdenticalRequestsComputeOnce) {
    ThreadPool pool(8);
    serve::ServeEngine engine(serve::ServeConfig{}, pool);
    std::vector<serve::ScheduleRequest> burst(32, make_request());
    const auto results = engine.run_batch(std::move(burst));
    ASSERT_EQ(results.size(), 32u);
    for (const auto& r : results) {
        ASSERT_NE(r.schedule, nullptr);
        EXPECT_EQ(r.schedule.get(), results.front().schedule.get());
    }
    const auto stats = engine.stats();
    EXPECT_EQ(stats.computed, 1u);
    EXPECT_EQ(stats.computed + stats.coalesced + stats.cache_hits, 32u);
}

TEST(ServeEngine, CacheOffStillDeduplicatesNothingAndMatchesCacheOn) {
    ThreadPool pool(4);
    serve::TraceGenParams params;
    params.requests = 12;
    params.repeat_frac = 0.5;
    params.size = 24;
    params.procs = 4;
    const auto trace = serve::generate_trace(params);
    std::vector<serve::ScheduleRequest> requests;
    for (const auto& tr : trace) requests.push_back(serve::materialize(tr));

    serve::ServeConfig off;
    off.enable_cache = false;
    off.enable_dedup = false;
    serve::ServeEngine engine_on(serve::ServeConfig{}, pool);
    serve::ServeEngine engine_off(off, pool);
    const auto results_on = engine_on.run_batch(requests);
    const auto results_off = engine_off.run_batch(requests);
    ASSERT_EQ(results_on.size(), results_off.size());
    for (std::size_t i = 0; i < results_on.size(); ++i)
        EXPECT_EQ(to_tss(*results_on[i].schedule), to_tss(*results_off[i].schedule)) << i;

    const auto stats_off = engine_off.stats();
    EXPECT_EQ(stats_off.computed, requests.size());
    EXPECT_EQ(stats_off.cache_hits, 0u);
    EXPECT_EQ(stats_off.coalesced, 0u);
}

TEST(ServeEngine, BatchResultsComeBackInRequestOrder) {
    ThreadPool pool(4);
    serve::ServeEngine engine(serve::ServeConfig{}, pool);
    std::vector<serve::ScheduleRequest> batch;
    std::vector<std::uint64_t> expected;
    for (double work : {1.0, 2.0, 3.0, 4.0, 5.0}) {
        serve::ScheduleRequest r = make_request();
        r.problem = make_problem(work);
        expected.push_back(serve::fingerprint_request(r));
        batch.push_back(std::move(r));
    }
    const auto results = engine.run_batch(std::move(batch));
    ASSERT_EQ(results.size(), expected.size());
    for (std::size_t i = 0; i < results.size(); ++i)
        EXPECT_EQ(results[i].fingerprint, expected[i]) << i;
}

TEST(ServeEngine, TinyCacheEvictsButEveryRequestIsStillServed) {
    ThreadPool pool(4);
    serve::ServeConfig config;
    config.cache_capacity = 1;
    config.cache_shards = 1;
    serve::ServeEngine engine(config, pool);
    for (int round = 0; round < 2; ++round) {
        for (double work : {1.0, 2.0, 3.0}) {
            serve::ScheduleRequest r = make_request();
            r.problem = make_problem(work);
            const auto result = engine.serve(std::move(r));
            ASSERT_NE(result.schedule, nullptr);
        }
    }
    const auto stats = engine.stats();
    EXPECT_EQ(stats.requests, 6u);
    EXPECT_GT(stats.cache.evictions, 0u);
    EXPECT_EQ(stats.computed + stats.coalesced + stats.cache_hits, 6u);
}

TEST(ServeEngine, UnknownAlgorithmSurfacesThroughTheFuture) {
    ThreadPool pool(2);
    serve::ServeEngine engine(serve::ServeConfig{}, pool);
    auto future = engine.submit(make_request("no-such-algorithm"));
    EXPECT_THROW((void)future.get(), std::exception);
    // The engine stays usable afterwards.
    EXPECT_NE(engine.serve(make_request()).schedule, nullptr);
}

TEST(ServeEngine, NullProblemIsRejectedUpFront) {
    ThreadPool pool(1);
    serve::ServeEngine engine(serve::ServeConfig{}, pool);
    serve::ScheduleRequest request;
    request.problem = nullptr;
    EXPECT_THROW((void)engine.submit(std::move(request)), std::invalid_argument);
}

TEST(ServeEngine, MetricsSnapshotMergesEngineCacheAndPool) {
    ThreadPool pool(2);
    serve::ServeEngine engine(serve::ServeConfig{}, pool);
    for (int i = 0; i < 3; ++i) {
        ASSERT_NE(engine.serve(make_request()).schedule, nullptr);
    }
    const obs::MetricsSnapshot snap = engine.metrics_snapshot();

    const auto counter = [&snap](const std::string& name) -> std::uint64_t {
        for (const auto& c : snap.counters)
            if (c.name == name) return c.value;
        ADD_FAILURE() << "missing counter " << name;
        return 0;
    };
    EXPECT_EQ(counter("serve/requests"), 3u);
    EXPECT_EQ(counter("serve/computed"), 1u);
    EXPECT_EQ(counter("serve/served_from_cache"), 2u);
    EXPECT_EQ(counter("serve/cache/hits"), 2u);
    EXPECT_GE(counter("pool/tasks_run"), 1u);

    bool saw_hit_rate = false;
    bool saw_shard_occupancy = false;
    for (const auto& g : snap.gauges) {
        if (g.name == "serve/hit_rate") {
            saw_hit_rate = true;
            EXPECT_NEAR(g.value, 2.0 / 3.0, 1e-9);
        }
        if (g.name == "serve/cache/shard_occupancy") saw_shard_occupancy = true;
    }
    EXPECT_TRUE(saw_hit_rate);
    EXPECT_TRUE(saw_shard_occupancy);

    // The latency split histograms carry the run: every request lands in
    // total, only the cold one in compute.
    const auto hist_count = [&snap](const std::string& name) -> std::uint64_t {
        for (const auto& h : snap.histograms)
            if (h.name == name) return h.hist.count;
        ADD_FAILURE() << "missing histogram " << name;
        return 0;
    };
    EXPECT_EQ(hist_count("serve/latency/total_ms"), 3u);
    EXPECT_EQ(hist_count("serve/latency/compute_ms"), 1u);
    EXPECT_EQ(hist_count("serve/latency/cache_lookup_ms"), 3u);
    EXPECT_GE(hist_count("pool/task_run_ms"), 1u);

    // The snapshot is in canonical order, ready for the exporters.
    obs::MetricsSnapshot sorted = snap;
    sorted.sort();
    EXPECT_EQ(snap, sorted);
}

// ---------------------------------------------------------------------------
// Request traces (.tsr) and replay.

TEST(RequestTrace, RoundTripsThroughText) {
    serve::TraceGenParams params;
    params.requests = 20;
    params.repeat_frac = 0.4;
    params.algos = {"heft", "cpop"};
    params.shapes = {workload::Shape::kLayered, workload::Shape::kFft};
    const auto trace = serve::generate_trace(params);
    const auto parsed = serve::read_tsr_string(serve::to_tsr(trace));
    EXPECT_EQ(parsed, trace);
}

TEST(RequestTrace, GenerateHonorsExactRepeatFraction) {
    serve::TraceGenParams params;
    params.requests = 40;
    params.repeat_frac = 0.5;
    const auto trace = serve::generate_trace(params);
    ASSERT_EQ(trace.size(), 40u);
    std::set<std::uint64_t> distinct;
    for (const auto& tr : trace) distinct.insert(serve::fingerprint_request(serve::materialize(tr)));
    EXPECT_EQ(distinct.size(), 20u);  // 40 - floor(40 * 0.5) fresh instances
}

TEST(RequestTrace, GenerationIsDeterministicInTheSeed) {
    serve::TraceGenParams params;
    params.requests = 16;
    const auto a = serve::generate_trace(params);
    const auto b = serve::generate_trace(params);
    EXPECT_EQ(a, b);
    params.seed += 1;
    EXPECT_NE(serve::generate_trace(params), a);
}

TEST(RequestTrace, MaterializeIsDeterministic) {
    serve::TraceRequest tr;
    tr.size = 30;
    tr.procs = 4;
    const auto a = serve::materialize(tr);
    const auto b = serve::materialize(tr);
    EXPECT_EQ(serve::fingerprint_request(a), serve::fingerprint_request(b));
}

TEST(RequestTrace, ParseErrorsAreLineNumbered) {
    try {
        (void)serve::read_tsr_string("tsr 1\nr heft layered not-a-number\n");
        FAIL() << "malformed trace accepted";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos) << e.what();
    }
}

TEST(Replay, SteadyStateAccountingAddsUp) {
    ThreadPool pool(4);
    serve::TraceGenParams params;
    params.requests = 10;
    params.repeat_frac = 0.5;
    params.size = 24;
    params.procs = 4;
    const auto trace = serve::generate_trace(params);
    serve::ReplayOptions options;
    options.batch = 4;
    options.epochs = 3;
    const auto report = serve::replay_trace(trace, options, pool);
    EXPECT_EQ(report.requests, 30u);
    EXPECT_EQ(report.stats.computed, 5u);  // distinct instances only
    EXPECT_EQ(report.stats.computed + report.stats.coalesced + report.stats.cache_hits, 30u);
    EXPECT_GT(report.qps, 0.0);
    EXPECT_LE(report.latency_p50_ms, report.latency_p95_ms);
    EXPECT_LE(report.latency_p95_ms, report.latency_p99_ms);
    EXPECT_LE(report.latency_p99_ms, report.latency_p999_ms);
    EXPECT_LE(report.latency_p999_ms, report.latency_max_ms);
    EXPECT_TRUE(report.accounting_ok());
    EXPECT_EQ(report.replies, report.requests);
    EXPECT_EQ(report.failed, 0u);
    EXPECT_EQ(report.cache_hits, report.stats.cache_hits);

    // The obs histogram runs alongside the exact latency vector in every
    // build configuration; its percentiles must stay within the documented
    // relative-error bound of the exact nearest-rank values it approximates.
    EXPECT_EQ(report.latency_hist.count, 30u);
    EXPECT_NEAR(report.hist_p99_ms, report.latency_hist.quantile(0.99), 1e-12);
    EXPECT_GT(report.hist_p50_ms, 0.0);
    EXPECT_LE(report.hist_p50_ms, report.hist_p999_ms);
    EXPECT_DOUBLE_EQ(report.latency_hist.max, report.latency_max_ms);

    // The merged engine metrics document rides along for exporters.
    EXPECT_FALSE(report.metrics.counters.empty());
    EXPECT_FALSE(report.metrics.gauges.empty());
}

void expect_same_report(const serve::ReplayReport& a, const serve::ReplayReport& b) {
    EXPECT_EQ(a.requests, b.requests);
    EXPECT_EQ(a.replies, b.replies);
    EXPECT_EQ(a.wall_ms, b.wall_ms);
    EXPECT_EQ(a.qps, b.qps);
    EXPECT_EQ(a.latency_mean_ms, b.latency_mean_ms);
    EXPECT_EQ(a.latency_p50_ms, b.latency_p50_ms);
    EXPECT_EQ(a.latency_p95_ms, b.latency_p95_ms);
    EXPECT_EQ(a.latency_p99_ms, b.latency_p99_ms);
    EXPECT_EQ(a.latency_p999_ms, b.latency_p999_ms);
    EXPECT_EQ(a.latency_max_ms, b.latency_max_ms);
    EXPECT_EQ(a.hist_p50_ms, b.hist_p50_ms);
    EXPECT_EQ(a.hist_p95_ms, b.hist_p95_ms);
    EXPECT_EQ(a.hist_p99_ms, b.hist_p99_ms);
    EXPECT_EQ(a.hist_p999_ms, b.hist_p999_ms);
    EXPECT_EQ(a.latency_hist, b.latency_hist);
    EXPECT_EQ(a.ok, b.ok);
    EXPECT_EQ(a.shed, b.shed);
    EXPECT_EQ(a.degraded, b.degraded);
    EXPECT_EQ(a.timed_out, b.timed_out);
    EXPECT_EQ(a.draining, b.draining);
    EXPECT_EQ(a.failed, b.failed);
    EXPECT_EQ(a.cache_hits, b.cache_hits);
    EXPECT_EQ(a.conns, b.conns);
    EXPECT_EQ(a.schedule_digest, b.schedule_digest);
    EXPECT_EQ(a.payload_consistent, b.payload_consistent);
}

// Both replay drivers fold per-thread tallies into one report; the report
// must be a function of the recorded samples, not of who recorded them or
// in which order the tallies merge.
TEST(Replay, TallyMergeIsOrderIndependent) {
    struct Sample {
        serve::ServeOutcome outcome;
        double latency_ms;
        bool cache_hit;
    };
    constexpr serve::ServeOutcome kOutcomes[] = {
        serve::ServeOutcome::kOk, serve::ServeOutcome::kOk, serve::ServeOutcome::kShed,
        serve::ServeOutcome::kDegraded, serve::ServeOutcome::kTimedOut,
        serve::ServeOutcome::kDraining, serve::ServeOutcome::kOk};
    std::vector<Sample> samples;
    for (std::size_t i = 0; i < 61; ++i) {
        // Latencies over six decades, so a summation-order dependence in
        // the mean would show in the last bits.
        const double latency = std::pow(10.0, static_cast<double>((i * 7) % 6) - 3.0) *
                               (1.0 + 0.013 * static_cast<double>((i * 37) % 29));
        const serve::ServeOutcome outcome = kOutcomes[i % std::size(kOutcomes)];
        samples.push_back({outcome, latency, outcome == serve::ServeOutcome::kOk && i % 3 == 0});
    }

    std::vector<serve::ReplayTally> workers(4);
    serve::ReplayTally whole;
    for (std::size_t i = 0; i < samples.size(); ++i) {
        const Sample& x = samples[i];
        workers[i % workers.size()].record(x.outcome, x.latency_ms, x.cache_hit);
        whole.record(x.outcome, x.latency_ms, x.cache_hit);
    }
    workers[1].record_failure(2.5);  // a typed Error reply
    workers[3].record_lost(2);       // requests lost to a dropped connection
    whole.record_failure(2.5);
    whole.record_lost(2);
    const std::size_t requests = samples.size() + 3;
    const double wall_ms = 12.5;

    const serve::ReplayReport expected = whole.finish(requests, wall_ms);
    EXPECT_TRUE(expected.accounting_ok());
    EXPECT_EQ(expected.replies, 62u);
    EXPECT_EQ(expected.failed, 3u);
    EXPECT_EQ(expected.latency_hist.count, 62u);

    std::vector<std::size_t> order{0, 1, 2, 3};
    std::size_t orders = 0;
    do {
        serve::ReplayTally merged;
        for (const std::size_t w : order) merged.merge(workers[w]);
        expect_same_report(merged.finish(requests, wall_ms), expected);
        ++orders;
    } while (std::next_permutation(order.begin(), order.end()));
    EXPECT_EQ(orders, 24u);

    // Tree-shaped merge, as a two-level fan-in would do it.
    serve::ReplayTally left = workers[2];
    left.merge(workers[0]);
    serve::ReplayTally right = workers[3];
    right.merge(workers[1]);
    right.merge(left);
    expect_same_report(right.finish(requests, wall_ms), expected);

    // A transport failure that never reaches the tally breaks the identity.
    serve::ReplayTally dropped;
    for (const Sample& x : samples) dropped.record(x.outcome, x.latency_ms, x.cache_hit);
    dropped.record_lost(2);
    EXPECT_FALSE(dropped.finish(requests, wall_ms).accounting_ok());
}

// ---------------------------------------------------------------------------
// Concurrency regressions.  These run in the TSan CI leg (the job's -R
// filter matches ServeEngine/ScheduleCache names) and exercise the lock
// discipline the thread-safety annotations document.

TEST(ScheduleCacheStress, StatsStayConsistentUnderConcurrentHammer) {
    // Regression: stats() used to read the hit/miss counters outside the
    // shard lock while lru.size() was sampled separately, so a concurrent
    // hammer could observe torn totals (hits + misses != get calls).
    serve::ScheduleCache cache(16, 4);
    constexpr int kThreads = 4;
    constexpr int kOpsPerThread = 2000;
    std::atomic<std::uint64_t> gets{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&cache, &gets, t] {
            for (int i = 0; i < kOpsPerThread; ++i) {
                const auto key = static_cast<std::uint64_t>((t * kOpsPerThread + i) % 64);
                if (i % 3 == 0) {
                    cache.put(key, make_dummy_schedule(static_cast<double>(key)));
                } else {
                    (void)cache.get(key);
                    gets.fetch_add(1, std::memory_order_relaxed);
                }
            }
        });
    }
    for (auto& t : threads) t.join();
    const auto stats = cache.stats();
    EXPECT_EQ(stats.hits + stats.misses, gets.load());
    EXPECT_LE(stats.size, cache.capacity());
}

TEST(ServeEngineStress, MixedRepeatAndUniqueClientsGetCorrectResults) {
    // N client threads × mixed ~50% repeated / ~50% unique requests pushed
    // through the full cache + in-flight-coalescing path.  Every future must
    // resolve, repeats must agree bit-for-bit, and the engine's accounting
    // must add up exactly.
    ThreadPool pool(4);
    serve::ServeEngine engine(serve::ServeConfig{}, pool);
    constexpr int kClients = 8;
    constexpr int kRequestsPerClient = 20;
    const std::vector<double> shared_works = {1.0, 2.0, 3.0, 4.0};

    std::atomic<int> failures{0};
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            for (int i = 0; i < kRequestsPerClient; ++i) {
                serve::ScheduleRequest request = make_request();
                // Even iterations draw from a tiny shared set (repeats across
                // every client); odd ones are globally unique.
                const double work = (i % 2 == 0)
                    ? shared_works[static_cast<std::size_t>(i / 2)
                                   % shared_works.size()]
                    : 100.0 + c * kRequestsPerClient + i;
                request.problem = make_problem(work);
                const auto result = engine.serve(std::move(request));
                if (result.schedule == nullptr) failures.fetch_add(1);
            }
        });
    }
    for (auto& t : clients) t.join();
    EXPECT_EQ(failures.load(), 0);

    const auto stats = engine.stats();
    constexpr std::uint64_t kTotal = kClients * kRequestsPerClient;
    EXPECT_EQ(stats.requests, kTotal);
    EXPECT_EQ(stats.computed + stats.coalesced + stats.cache_hits, kTotal);
    // 4 shared instances + 8×10 unique ones = at most 84 cold computations.
    EXPECT_LE(stats.computed, 84u);
    EXPECT_GE(stats.computed, 84u - shared_works.size());  // uniques always compute

    // Repeats must be bit-identical to a fresh serve of the same request.
    for (double work : shared_works) {
        serve::ScheduleRequest request = make_request();
        request.problem = make_problem(work);
        const auto replayed = engine.serve(std::move(request));
        EXPECT_TRUE(replayed.cache_hit) << work;
    }
}

// ---------------------------------------------------------------------------
// Overload protection: admission control, shed policies, deadlines, drain
// (serve/admission.hpp, serve/chaos.hpp; DESIGN §16).  Suite names matter
// here: the CI TSan leg filters on ServeEngine*, so every suite below runs
// under TSan too.  Any test that parks computations at a chaos gate MUST
// release_stalls() before its engine leaves scope — the destructor's
// own-task wait is unbounded by design.

std::shared_ptr<serve::DeterministicChaos> make_gate() {
    serve::ChaosOptions options;
    options.gate_stalls = true;
    options.gate_all = true;
    return std::make_shared<serve::DeterministicChaos>(options);
}

serve::ServeConfig overload_config(serve::ShedPolicy policy, std::size_t max_inflight,
                                   std::size_t max_pending,
                                   std::shared_ptr<serve::ChaosHook> chaos) {
    serve::ServeConfig config;
    config.max_inflight = max_inflight;
    config.max_pending = max_pending;
    config.shed_policy = policy;
    config.chaos = std::move(chaos);
    return config;
}

/// `count` fingerprint-distinct requests (distinct fork work).
std::vector<serve::ScheduleRequest> unique_burst(std::size_t count) {
    std::vector<serve::ScheduleRequest> out;
    for (std::size_t i = 0; i < count; ++i) {
        auto request = make_request();
        request.problem = make_problem(50.0 + static_cast<double>(i));
        out.push_back(std::move(request));
    }
    return out;
}

std::uint64_t outcome_total(const serve::EngineStats& stats) {
    return stats.ok + stats.shed + stats.degraded + stats.timed_out + stats.draining +
           stats.failed;
}

/// Spin until `count` computations are parked at the chaos gate.  Bounded,
/// so a regression shows up as a failed EXPECT instead of a hung test.
[[nodiscard]] bool await_stalled(serve::DeterministicChaos& chaos, std::uint64_t count) {
    for (int i = 0; i < 50000; ++i) {
        if (chaos.stats().stalls >= count) return true;
        std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    return false;
}

TEST(RequestFingerprint, DeadlineIsExcludedFromTheFingerprint) {
    auto plain = make_request();
    auto dated = make_request();
    dated.deadline_ms = 125.0;
    EXPECT_EQ(serve::fingerprint_request(plain), serve::fingerprint_request(dated));
}

TEST(ServeEngineOverload, OutcomeNamesAndShedPolicyNamesRoundTrip) {
    EXPECT_STREQ(serve::outcome_name(serve::ServeOutcome::kOk), "ok");
    EXPECT_STREQ(serve::outcome_name(serve::ServeOutcome::kShed), "shed");
    EXPECT_STREQ(serve::outcome_name(serve::ServeOutcome::kDegraded), "degraded");
    EXPECT_STREQ(serve::outcome_name(serve::ServeOutcome::kTimedOut), "timed_out");
    EXPECT_STREQ(serve::outcome_name(serve::ServeOutcome::kDraining), "draining");
    for (const auto policy : {serve::ShedPolicy::kRejectNew, serve::ShedPolicy::kDropOldest,
                              serve::ShedPolicy::kDegrade}) {
        EXPECT_EQ(serve::shed_policy_from_name(serve::shed_policy_name(policy)), policy);
    }
    EXPECT_FALSE(serve::shed_policy_from_name("bogus").has_value());
}

TEST(ServeEngineOverload, RejectNewShedsBeyondBudgetAndQueue) {
    // Freeze the world at the gate, saturate {inflight=2, pending=2} with 8
    // distinct requests: 0-1 run, 2-3 queue, 4-7 shed.  After release the
    // queued pair is promoted and completes ok.
    ThreadPool pool(2);
    auto gate = make_gate();
    serve::ServeEngine engine(
        overload_config(serve::ShedPolicy::kRejectNew, 2, 2, gate), pool);
    auto requests = unique_burst(8);
    std::vector<std::future<serve::ServeResult>> futures;
    for (auto& request : requests) futures.push_back(engine.submit(std::move(request)));
    gate->release_stalls();
    std::vector<serve::ServeOutcome> outcomes;
    for (auto& future : futures) {
        const auto result = future.get();
        outcomes.push_back(result.outcome);
        if (result.outcome == serve::ServeOutcome::kOk) {
            EXPECT_NE(result.schedule, nullptr);
        } else {
            EXPECT_EQ(result.schedule, nullptr);  // shed answers carry no schedule
        }
    }
    for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(outcomes[i], serve::ServeOutcome::kOk) << i;
    for (std::size_t i = 4; i < 8; ++i) EXPECT_EQ(outcomes[i], serve::ServeOutcome::kShed) << i;
    const auto stats = engine.stats();
    EXPECT_EQ(stats.ok, 4u);
    EXPECT_EQ(stats.shed, 4u);
    EXPECT_EQ(outcome_total(stats), stats.requests);
    EXPECT_LE(stats.admission.inflight_peak, 2u);
    EXPECT_EQ(stats.admission.queued, 2u);
    EXPECT_EQ(stats.admission.promoted, 2u);
}

TEST(ServeEngineOverload, DropOldestEvictsTheOldestPendingRequest) {
    ThreadPool pool(2);
    auto gate = make_gate();
    serve::ServeEngine engine(
        overload_config(serve::ShedPolicy::kDropOldest, 2, 2, gate), pool);
    auto requests = unique_burst(8);
    std::vector<std::future<serve::ServeResult>> futures;
    for (auto& request : requests) futures.push_back(engine.submit(std::move(request)));
    gate->release_stalls();
    std::vector<serve::ServeOutcome> outcomes;
    for (auto& future : futures) outcomes.push_back(future.get().outcome);
    // 0-1 run; 2-3 queue; 4 evicts 2, 5 evicts 3, 6 evicts 4, 7 evicts 5 —
    // the queue ends holding the *newest* arrivals {6, 7}.
    const std::vector<serve::ServeOutcome> expect = {
        serve::ServeOutcome::kOk,   serve::ServeOutcome::kOk,
        serve::ServeOutcome::kShed, serve::ServeOutcome::kShed,
        serve::ServeOutcome::kShed, serve::ServeOutcome::kShed,
        serve::ServeOutcome::kOk,   serve::ServeOutcome::kOk};
    EXPECT_EQ(outcomes, expect);
    const auto stats = engine.stats();
    EXPECT_EQ(outcome_total(stats), stats.requests);
}

TEST(ServeEngineOverload, DegradeAnswersInlineWithTheSubstituteAlgorithm) {
    ThreadPool pool(2);
    auto gate = make_gate();
    auto config = overload_config(serve::ShedPolicy::kDegrade, 2, 0, gate);
    config.degrade_algo = "heft";
    serve::ServeEngine engine(config, pool);
    auto requests = unique_burst(6);
    std::vector<std::future<serve::ServeResult>> futures;
    for (auto& request : requests) futures.push_back(engine.submit(std::move(request)));
    gate->release_stalls();
    std::vector<serve::ServeOutcome> outcomes;
    for (auto& future : futures) {
        const auto result = future.get();
        outcomes.push_back(result.outcome);
        // Degraded answers are real schedules, just from the cheap algorithm.
        EXPECT_NE(result.schedule, nullptr);
    }
    for (std::size_t i = 0; i < 2; ++i) EXPECT_EQ(outcomes[i], serve::ServeOutcome::kOk) << i;
    for (std::size_t i = 2; i < 6; ++i)
        EXPECT_EQ(outcomes[i], serve::ServeOutcome::kDegraded) << i;
    const auto stats = engine.stats();
    EXPECT_EQ(stats.ok, 2u);
    EXPECT_EQ(stats.degraded, 4u);
    EXPECT_EQ(outcome_total(stats), stats.requests);
}

TEST(ServeEngineDeadline, ExpiredPendingRequestIsNeverStarted) {
    // A queued request whose 1 ns budget is long blown by promotion time is
    // flushed as timed_out without ever reaching a scheduler.
    ThreadPool pool(2);
    auto gate = make_gate();
    serve::ServeEngine engine(
        overload_config(serve::ShedPolicy::kRejectNew, 1, 4, gate), pool);
    auto requests = unique_burst(2);
    requests[1].deadline_ms = 1e-9;
    auto runner = engine.submit(std::move(requests[0]));
    auto doomed = engine.submit(std::move(requests[1]));
    gate->release_stalls();
    EXPECT_EQ(runner.get().outcome, serve::ServeOutcome::kOk);
    const auto result = doomed.get();
    EXPECT_EQ(result.outcome, serve::ServeOutcome::kTimedOut);
    EXPECT_EQ(result.schedule, nullptr);  // never started, so no answer
    const auto stats = engine.stats();
    EXPECT_EQ(stats.computed, 1u);  // only the runner ever reached a scheduler
    EXPECT_EQ(stats.timed_out, 1u);
    EXPECT_EQ(outcome_total(stats), stats.requests);
}

TEST(ServeEngineDeadline, LateCompletionResolvesTimedOutWithTheSchedule) {
    // The computation is held at the gate until the 250 ms budget is blown;
    // the late result resolves kTimedOut but still carries the schedule
    // (request.hpp outcome contract).
    ThreadPool pool(2);
    auto gate = make_gate();
    serve::ServeConfig config;
    config.chaos = gate;
    serve::ServeEngine engine(config, pool);
    auto request = make_request();
    request.deadline_ms = 250.0;
    const Stopwatch clock;
    auto future = engine.submit(std::move(request));
    ASSERT_TRUE(await_stalled(*gate, 1));  // dequeue check passed; now parked
    while (clock.elapsed_ms() < 300.0)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    gate->release_stalls();
    const auto result = future.get();
    EXPECT_EQ(result.outcome, serve::ServeOutcome::kTimedOut);
    EXPECT_NE(result.schedule, nullptr);
    EXPECT_GT(result.latency_ms, 250.0);
    EXPECT_EQ(engine.stats().timed_out, 1u);
}

TEST(ServeEngine, WaitBudgetYieldsSyntheticTimeoutsInsteadOfHanging) {
    // run_batch/serve stop waiting when the budget runs out; the parked
    // computations still retire normally once the gate opens, so the
    // engine-side accounting ends at ok=3 with no timed_out.
    ThreadPool pool(2);
    auto gate = make_gate();
    serve::ServeConfig config;
    config.chaos = gate;
    serve::ServeEngine engine(config, pool);
    const auto results = engine.run_batch(unique_burst(2), /*wait_budget_ms=*/30.0);
    ASSERT_EQ(results.size(), 2u);
    for (const auto& result : results) {
        EXPECT_EQ(result.outcome, serve::ServeOutcome::kTimedOut);
        EXPECT_EQ(result.schedule, nullptr);
        EXPECT_EQ(result.fingerprint, 0u);  // synthetic: the caller gave up
    }
    auto one = make_request();
    one.problem = make_problem(99.5);
    const auto gave_up = engine.serve(std::move(one), /*wait_budget_ms=*/20.0);
    EXPECT_EQ(gave_up.outcome, serve::ServeOutcome::kTimedOut);
    gate->release_stalls();
    (void)engine.drain(/*timeout_ms=*/0.0);  // wait for the real completions
    const auto stats = engine.stats();
    EXPECT_EQ(stats.ok, 3u);
    EXPECT_EQ(stats.timed_out, 0u);  // synthetic timeouts are caller-side only
}

TEST(ServeEngineDrain, FlushesPendingRefusesNewAndForcesStuckWaiters) {
    ThreadPool pool(2);
    auto gate = make_gate();
    serve::ServeEngine engine(
        overload_config(serve::ShedPolicy::kRejectNew, 1, 2, gate), pool);
    auto requests = unique_burst(4);
    std::vector<std::future<serve::ServeResult>> futures;
    for (auto& request : requests) futures.push_back(engine.submit(std::move(request)));
    // 0 runs (parked at the gate), 1-2 queue, 3 shed.
    const auto report = engine.drain(/*timeout_ms=*/40.0);
    EXPECT_FALSE(report.clean);
    EXPECT_EQ(report.flushed_pending, 2u);  // 1-2 flushed as draining
    EXPECT_EQ(report.forced_waiters, 1u);   // 0 expropriated on timeout
    // Admission is closed: new submits resolve kDraining immediately.
    auto late = make_request();
    late.problem = make_problem(123.0);
    EXPECT_EQ(engine.serve(std::move(late)).outcome, serve::ServeOutcome::kDraining);
    EXPECT_EQ(futures[0].get().outcome, serve::ServeOutcome::kDraining);
    EXPECT_EQ(futures[1].get().outcome, serve::ServeOutcome::kDraining);
    EXPECT_EQ(futures[2].get().outcome, serve::ServeOutcome::kDraining);
    EXPECT_EQ(futures[3].get().outcome, serve::ServeOutcome::kShed);
    gate->release_stalls();  // let the parked closure exit before ~ServeEngine
    const auto stats = engine.stats();
    EXPECT_EQ(stats.draining, 4u);
    EXPECT_EQ(stats.shed, 1u);
    EXPECT_EQ(outcome_total(stats), stats.requests);
}

TEST(ServeEngineDrain, CleanDrainRetiresInflightWorkAndReportsClean) {
    ThreadPool pool(2);
    serve::ServeEngine engine(serve::ServeConfig{}, pool);
    std::vector<std::future<serve::ServeResult>> futures;
    for (auto& request : unique_burst(4)) futures.push_back(engine.submit(std::move(request)));
    const auto report = engine.drain(/*timeout_ms=*/0.0);  // wait forever
    EXPECT_TRUE(report.clean);
    EXPECT_EQ(report.forced_waiters, 0u);
    for (auto& future : futures) EXPECT_EQ(future.get().outcome, serve::ServeOutcome::kOk);
    // Idempotent: a second drain has nothing left to do.
    const auto again = engine.drain(/*timeout_ms=*/0.0);
    EXPECT_TRUE(again.clean);
    EXPECT_EQ(again.flushed_pending, 0u);
}

TEST(ServeEngineDrain, DestructorDoesNotWaitOnOtherEnginesPoolTasks) {
    // Two engines share one pool; engine A's computation is parked at a
    // chaos gate.  Engine B must tear down promptly anyway — the destructor
    // joins this engine's *own* closures, never the pool's global idle.
    // (Before the own-task fix, B's destructor hung here forever.)
    ThreadPool pool(2);
    auto gate = make_gate();
    serve::ServeConfig gated;
    gated.chaos = gate;
    serve::ServeEngine stuck(gated, pool);
    auto parked = stuck.submit(make_request());
    ASSERT_TRUE(await_stalled(*gate, 1));
    {
        serve::ServeEngine prompt(serve::ServeConfig{}, pool);
        auto request = make_request();
        request.problem = make_problem(77.0);
        const auto result = prompt.serve(std::move(request));
        EXPECT_EQ(result.outcome, serve::ServeOutcome::kOk);
        EXPECT_NE(result.schedule, nullptr);
    }  // ~prompt returns while `stuck`'s computation is still parked
    gate->release_stalls();
    EXPECT_EQ(parked.get().outcome, serve::ServeOutcome::kOk);
}

TEST(ServeEngineStress, CoalescedWaitersAndThrowingComputationSurviveDrainRace) {
    // N identical requests coalesce onto one cursed computation (throws on
    // every fp) parked at the gate; then drain() races release_stalls().
    // Whoever claims the entry first resolves all N waiters — exactly once
    // each, as either the injected error or kDraining.  TSan guards the
    // claim; the accounting identity guards double/zero resolution.
    constexpr int kWaiters = 8;
    for (int round = 0; round < 10; ++round) {
        ThreadPool pool(2);
        serve::ChaosOptions options;
        options.gate_stalls = true;
        options.gate_all = true;
        options.throw_prob = 1.0;  // every fp is cursed
        auto gate = std::make_shared<serve::DeterministicChaos>(options);
        serve::ServeConfig config;
        config.chaos = gate;
        serve::ServeEngine engine(config, pool);
        std::vector<std::future<serve::ServeResult>> futures;
        for (int i = 0; i < kWaiters; ++i) futures.push_back(engine.submit(make_request()));
        ASSERT_TRUE(await_stalled(*gate, 1));
        std::thread releaser([&gate] { gate->release_stalls(); });
        const auto report = engine.drain(/*timeout_ms=*/1.0);
        releaser.join();
        std::size_t failed = 0;
        std::size_t draining = 0;
        for (auto& future : futures) {
            try {
                const auto result = future.get();
                EXPECT_EQ(result.outcome, serve::ServeOutcome::kDraining);
                ++draining;
            } catch (const serve::ChaosError&) {
                ++failed;
            }
        }
        EXPECT_EQ(failed + draining, static_cast<std::size_t>(kWaiters));
        // The entry was claimed exactly once: either the computation beat
        // the drain (everyone got the error) or drain expropriated first
        // (everyone drained).
        EXPECT_TRUE(failed == 0 || draining == 0)
            << "round " << round << ": " << failed << " failed, " << draining << " drained";
        if (report.forced_waiters > 0) {
            EXPECT_EQ(draining, static_cast<std::size_t>(kWaiters));
        }
        const auto stats = engine.stats();
        EXPECT_EQ(outcome_total(stats), stats.requests);
    }
}

TEST(ServeEngineChaos, FaultPredicatesArePureFunctionsOfSeedAndFingerprint) {
    serve::ChaosOptions options;
    options.seed = 41;
    options.stall_prob = 0.3;
    options.throw_prob = 0.3;
    options.submit_fail_prob = 0.3;
    const serve::DeterministicChaos a(options);
    const serve::DeterministicChaos b(options);
    options.seed = 42;
    const serve::DeterministicChaos reseeded(options);
    bool any_differs = false;
    for (std::uint64_t fp = 1; fp <= 256; ++fp) {
        EXPECT_EQ(a.will_stall(fp), b.will_stall(fp));
        EXPECT_EQ(a.will_throw(fp), b.will_throw(fp));
        EXPECT_EQ(a.will_fail_submit(fp), b.will_fail_submit(fp));
        any_differs = any_differs || a.will_throw(fp) != reseeded.will_throw(fp);
    }
    EXPECT_TRUE(any_differs);  // the seed actually keys the decisions
    const auto stats = a.stats();
    EXPECT_EQ(stats.stalls + stats.throws + stats.submit_failures, 0u);  // predicates don't count
}

TEST(Replay, DeadlineAndOutcomeTalliesRideAlongInTheReport) {
    ThreadPool pool(2);
    serve::TraceGenParams params;
    params.requests = 6;
    params.repeat_frac = 0.0;
    params.size = 24;
    params.procs = 4;
    const auto trace = serve::generate_trace(params);
    // A 1 ns deadline on an unbounded engine: every completion is late, so
    // every result is timed_out (late completions still carry schedules).
    serve::ReplayOptions options;
    options.deadline_ms = 1e-9;
    const auto report = serve::replay_trace(trace, options, pool);
    EXPECT_EQ(report.timed_out, report.requests);
    EXPECT_EQ(report.ok, 0u);
    EXPECT_DOUBLE_EQ(report.deadline_hit_rate(), 1.0);
    EXPECT_DOUBLE_EQ(report.shed_rate(), 0.0);
    // And with no deadline the same stream is all ok.
    serve::ReplayOptions plain;
    const auto healthy = serve::replay_trace(trace, plain, pool);
    EXPECT_EQ(healthy.ok, healthy.requests);
    EXPECT_EQ(healthy.timed_out, 0u);
}

TEST(ServeEngine, SubmitAfterPoolShutdownThrowsAndRollsBackInflight) {
    // Regression: when handing the computation to the pool fails, the
    // request's in-flight registration must be rolled back.  Before the fix
    // the entry leaked, so a *second* identical request would coalesce onto
    // it, successfully return a future nobody would ever resolve, and hang.
    ThreadPool pool(2);
    serve::ServeEngine engine(serve::ServeConfig{}, pool);  // dedup on
    pool.shutdown();
    EXPECT_THROW((void)engine.submit(make_request()), std::runtime_error);
    // Must throw again (re-registering as owner), not coalesce and hang.
    EXPECT_THROW((void)engine.submit(make_request()), std::runtime_error);
}


// ---------------------------------------------------------------------------
// Descriptor entry point (ServeEngine::submit_descriptor): a repeated
// descriptor is answered through the descriptor index without being
// materialized, and must be indistinguishable from materialize() + submit().

serve::TraceRequest small_descriptor(std::uint64_t seed = 7) {
    serve::TraceRequest descriptor;
    descriptor.algo = "heft";
    descriptor.size = 24;
    descriptor.procs = 4;
    descriptor.seed = seed;
    return descriptor;
}

serve::ScheduleRequest materialized(const serve::TraceRequest& descriptor,
                                    std::string options = {}, double deadline_ms = 0.0) {
    serve::ScheduleRequest request = serve::materialize(descriptor);
    request.options = std::move(options);
    request.deadline_ms = deadline_ms;
    return request;
}

/// `base` changed in exactly one of its eight fields or in the options,
/// including ccr +0.0 vs -0.0 (equal values, different bits).
std::vector<std::pair<serve::TraceRequest, std::string>> one_field_variants(
    const serve::TraceRequest& base) {
    std::vector<std::pair<serve::TraceRequest, std::string>> out;
    const auto add = [&](auto&& change) {
        serve::TraceRequest variant = base;
        change(variant);
        out.emplace_back(variant, "");
    };
    add([](serve::TraceRequest& d) { d.algo = "ils"; });
    add([](serve::TraceRequest& d) { d.shape = workload::Shape::kGnp; });
    add([](serve::TraceRequest& d) { d.size += 1; });
    add([](serve::TraceRequest& d) { d.procs += 1; });
    add([](serve::TraceRequest& d) { d.net = workload::Net::kRing; });
    add([](serve::TraceRequest& d) { d.ccr = 2.0; });
    add([](serve::TraceRequest& d) { d.beta = 0.75; });
    add([](serve::TraceRequest& d) { d.seed += 1; });
    out.emplace_back(base, "opt=1");
    add([](serve::TraceRequest& d) { d.ccr = 0.0; });
    add([](serve::TraceRequest& d) { d.ccr = -0.0; });
    return out;
}

bool same_stats(const serve::EngineStats& a, const serve::EngineStats& b) {
    return a.requests == b.requests && a.computed == b.computed && a.coalesced == b.coalesced &&
           a.cache_hits == b.cache_hits && a.ok == b.ok && a.shed == b.shed &&
           a.degraded == b.degraded && a.timed_out == b.timed_out &&
           a.draining == b.draining && a.failed == b.failed &&
           a.admission.queued == b.admission.queued &&
           a.admission.promoted == b.admission.promoted &&
           a.admission.inflight_peak == b.admission.inflight_peak &&
           a.admission.pending_peak == b.admission.pending_peak &&
           a.cache.hits == b.cache.hits && a.cache.misses == b.cache.misses &&
           a.cache.evictions == b.cache.evictions && a.cache.size == b.cache.size;
}

TEST(DescriptorKey, EveryFieldAndTheOptionsSplitTheKey) {
    const serve::TraceRequest base = small_descriptor();
    const std::uint64_t key = serve::descriptor_key(base, "");
    EXPECT_EQ(key, serve::descriptor_key(small_descriptor(), ""));
    std::set<std::uint64_t> keys{key};
    for (const auto& [variant, options] : one_field_variants(base))
        EXPECT_TRUE(keys.insert(serve::descriptor_key(variant, options)).second)
            << "variant shares a key: " << serve::to_tsr({variant}) << " options '" << options
            << "'";
}

TEST(ServeEngineDescriptor, RepeatAnswersLikeColdAndLikeMaterializeSubmit) {
    ThreadPool pool(2);
    serve::ServeEngine engine(serve::ServeConfig{}, pool);
    const serve::TraceRequest descriptor = small_descriptor();
    const auto cold = engine.submit_descriptor(descriptor, "opt=1").get();
    const auto warm = engine.submit_descriptor(descriptor, "opt=1").get();
    EXPECT_FALSE(cold.cache_hit);
    EXPECT_TRUE(warm.cache_hit);
    ASSERT_NE(warm.schedule, nullptr);
    EXPECT_EQ(warm.schedule.get(), cold.schedule.get());
    EXPECT_EQ(warm.fingerprint, serve::fingerprint_request(materialized(descriptor, "opt=1")));

    serve::ServeEngine reference(serve::ServeConfig{}, pool);
    const auto local = reference.serve(materialized(descriptor, "opt=1"));
    EXPECT_EQ(local.fingerprint, warm.fingerprint);
    EXPECT_EQ(to_tss(*local.schedule), to_tss(*warm.schedule));
    const auto stats = engine.stats();
    EXPECT_EQ(stats.requests, 2u);
    EXPECT_EQ(stats.computed, 1u);
    EXPECT_EQ(stats.cache_hits, 1u);
    EXPECT_EQ(stats.cache.hits + stats.cache.misses, stats.requests);
}

TEST(ServeEngineDescriptor, OneFieldVariantsNeverShareAnAnswer) {
    ThreadPool pool(2);
    serve::ServeEngine engine(serve::ServeConfig{}, pool);
    serve::ServeEngine reference(serve::ServeConfig{}, pool);
    const serve::TraceRequest base = small_descriptor();
    (void)engine.submit_descriptor(base).get();
    // Twice over: first through the index-miss path, then as index hits.
    for (int pass = 0; pass < 2; ++pass) {
        for (const auto& [variant, options] : one_field_variants(base)) {
            const auto served = engine.submit_descriptor(variant, options).get();
            const auto expected = reference.serve(materialized(variant, options));
            ASSERT_NE(served.schedule, nullptr);
            EXPECT_EQ(served.fingerprint, expected.fingerprint)
                << serve::to_tsr({variant}) << " options '" << options << "'";
            EXPECT_EQ(to_tss(*served.schedule), to_tss(*expected.schedule));
            if (pass == 1) {
                EXPECT_TRUE(served.cache_hit);
            }
        }
    }
}

TEST(ServeEngineDescriptor, EvictedAnswersFallBackToTheFullPath) {
    serve::ServeConfig config;
    config.cache_capacity = 2;
    config.cache_shards = 1;
    ThreadPool pool(2);
    serve::ServeEngine engine(config, pool);
    serve::ServeEngine reference(serve::ServeConfig{}, pool);
    // In-process submits fill the cache without touching the descriptor
    // index, so seed 1's index entry outlives its cached answer.
    (void)engine.submit_descriptor(small_descriptor(1)).get();
    (void)engine.serve(materialized(small_descriptor(2)));
    (void)engine.serve(materialized(small_descriptor(3)));
    const auto again = engine.submit_descriptor(small_descriptor(1)).get();
    EXPECT_FALSE(again.cache_hit);
    EXPECT_EQ(again.fingerprint, serve::fingerprint_request(materialized(small_descriptor(1))));

    // A cycling stream over more descriptors than the cache holds.
    for (const std::uint64_t seed : {1u, 2u, 1u, 4u, 5u, 1u, 4u, 4u, 2u, 5u, 1u}) {
        const auto served = engine.submit_descriptor(small_descriptor(seed)).get();
        const auto expected = reference.serve(materialized(small_descriptor(seed)));
        ASSERT_NE(served.schedule, nullptr);
        EXPECT_EQ(served.fingerprint, expected.fingerprint);
        EXPECT_EQ(to_tss(*served.schedule), to_tss(*expected.schedule));
    }
    const auto stats = engine.stats();
    EXPECT_EQ(stats.requests, 15u);
    EXPECT_EQ(outcome_total(stats), stats.requests);
    EXPECT_EQ(stats.cache.hits + stats.cache.misses, stats.requests);
    EXPECT_EQ(stats.cache_hits + stats.computed, stats.requests);
    EXPECT_GT(stats.cache.evictions, 0u);
    EXPECT_LE(stats.cache.size, 2u);
}

TEST(ServeEngineDescriptor, SameStreamSameStatsAsSubmit) {
    // Sequential (each answer awaited) so no two requests race: every
    // counter, deadline and drain outcome is then a pure function of the
    // stream and must agree between the two entry points.
    struct Item {
        std::uint64_t seed;
        std::string options;
        double deadline_ms;
    };
    const std::vector<Item> before_drain = {
        {1, "", 0.0},   {2, "", 0.0},    {1, "", 0.0},   {3, "", 1e-9}, {3, "", 0.0},
        {3, "", 1e-9},  {1, "x", 0.0},   {4, "", 0.0},   {5, "", 0.0},  {6, "", 0.0},
        {1, "", 0.0},   {2, "", 50e3},   {6, "", 1e-9},  {7, "", 1e-9}, {1, "x", 0.0}};
    const std::vector<Item> after_drain = {{6, "", 0.0}, {8, "", 0.0}, {1, "x", 0.0}};

    serve::ServeConfig config;
    config.cache_capacity = 4;
    config.cache_shards = 1;
    ThreadPool pool(2);
    serve::ServeEngine via_submit(config, pool);
    serve::ServeEngine via_descriptor(config, pool);
    const auto run = [&](const std::vector<Item>& items) {
        for (const Item& item : items) {
            const serve::TraceRequest descriptor = small_descriptor(item.seed);
            const auto a =
                via_submit.submit(materialized(descriptor, item.options, item.deadline_ms))
                    .get();
            const auto b =
                via_descriptor.submit_descriptor(descriptor, item.options, item.deadline_ms)
                    .get();
            EXPECT_EQ(a.outcome, b.outcome) << "seed " << item.seed;
            EXPECT_EQ(a.fingerprint, b.fingerprint);
            EXPECT_EQ(a.cache_hit, b.cache_hit);
            ASSERT_EQ(a.schedule == nullptr, b.schedule == nullptr);
            if (a.schedule) {
                EXPECT_EQ(to_tss(*a.schedule), to_tss(*b.schedule));
            }
        }
    };
    run(before_drain);
    EXPECT_TRUE(via_submit.drain(0.0).clean);
    EXPECT_TRUE(via_descriptor.drain(0.0).clean);
    run(after_drain);

    const auto a = via_submit.stats();
    const auto b = via_descriptor.stats();
    EXPECT_TRUE(same_stats(a, b));
    EXPECT_EQ(b.requests, before_drain.size() + after_drain.size());
    EXPECT_GT(b.timed_out, 0u);
    EXPECT_GT(b.draining, 0u);
    EXPECT_GT(b.cache.evictions, 0u);
    EXPECT_EQ(outcome_total(b), b.requests);
}

TEST(ServeEngineDescriptor, MaterializeErrorsThrowBeforeCounting) {
    ThreadPool pool(2);
    serve::ServeEngine engine(serve::ServeConfig{}, pool);
    serve::TraceRequest bad = small_descriptor();
    bad.net = workload::Net::kHypercube;
    bad.procs = 3;  // a hypercube needs a power-of-two processor count
    EXPECT_THROW((void)engine.submit_descriptor(bad), std::invalid_argument);
    EXPECT_EQ(engine.stats().requests, 0u);
}

}  // namespace
}  // namespace tsched
