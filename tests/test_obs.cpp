// Unit tests for the runtime metrics subsystem (src/obs/): the log-bucketed
// LatencyHistogram and its guarantees (bounded quantile error, exact merge,
// byte-stable snapshots, lock-free concurrent recording), the instrument
// registry, and the Prometheus/JSON exporters plus the file reporter.
//
// Suite names all start with "Obs" — the CI TSan job selects them by that
// prefix (--gtest_filter 'Obs*'), so the concurrency tests here double as
// the data-race battery for the subsystem.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/reporter.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace tsched::obs {
namespace {

// ---------------------------------------------------------------------------
// Bucket geometry

TEST(ObsHistogram, BucketBoundariesBracketTheValue) {
    // Every in-range value must land in a bucket whose [lower, upper) spans
    // it; boundaries must be monotone in the index.
    const std::vector<double> values{1e-7, 0.001, 0.5,    1.0,  1.5,   2.0,
                                     3.25, 100.0, 1e4,    1e8,  1e10};
    for (const double v : values) {
        const std::uint32_t idx = LatencyHistogram::bucket_index(v);
        ASSERT_LT(idx, LatencyHistogram::kNumBuckets) << v;
        EXPECT_LE(LatencyHistogram::bucket_lower(idx), v) << v;
        EXPECT_GT(LatencyHistogram::bucket_upper(idx), v) << v;
    }
    for (std::uint32_t i = 1; i < 256; ++i) {
        EXPECT_DOUBLE_EQ(LatencyHistogram::bucket_upper(i - 1),
                         LatencyHistogram::bucket_lower(i));
    }
}

TEST(ObsHistogram, BucketRelativeWidthIsBounded) {
    // The error bound story rests on the bucket's relative width being at
    // most 1/64 = 2 * kMaxRelativeError for every in-range value.
    for (const double v : {1e-6, 0.01, 1.0, 7.0, 1e3, 1e9}) {
        const std::uint32_t idx = LatencyHistogram::bucket_index(v);
        const double lower = LatencyHistogram::bucket_lower(idx);
        const double upper = LatencyHistogram::bucket_upper(idx);
        EXPECT_LE((upper - lower) / lower, 2.0 * LatencyHistogram::kMaxRelativeError + 1e-12)
            << v;
    }
}

TEST(ObsHistogram, OutOfRangeValuesGetSentinels) {
    EXPECT_EQ(LatencyHistogram::bucket_index(0.0), LatencyHistogram::kUnderflowIndex);
    EXPECT_EQ(LatencyHistogram::bucket_index(-3.0), LatencyHistogram::kUnderflowIndex);
    EXPECT_EQ(LatencyHistogram::bucket_index(std::numeric_limits<double>::quiet_NaN()),
              LatencyHistogram::kUnderflowIndex);
    EXPECT_EQ(LatencyHistogram::bucket_index(std::numeric_limits<double>::infinity()),
              LatencyHistogram::kOverflowIndex);
    EXPECT_EQ(LatencyHistogram::bucket_index(1e300), LatencyHistogram::kOverflowIndex);
    // Denormal-range tiny values underflow rather than aliasing into bucket 0.
    EXPECT_EQ(LatencyHistogram::bucket_index(1e-300), LatencyHistogram::kUnderflowIndex);
}

// ---------------------------------------------------------------------------
// Recording and quantiles

TEST(ObsHistogram, EmptySnapshotIsAllZero) {
    LatencyHistogram hist;
    const HistogramSnapshot snap = hist.snapshot();
    EXPECT_EQ(snap.count, 0u);
    EXPECT_EQ(snap.underflow, 0u);
    EXPECT_EQ(snap.overflow, 0u);
    EXPECT_EQ(snap.min, 0.0);
    EXPECT_EQ(snap.max, 0.0);
    EXPECT_TRUE(snap.buckets.empty());
    EXPECT_EQ(snap.quantile(0.5), 0.0);
    EXPECT_EQ(snap.mean(), 0.0);
}

TEST(ObsHistogram, MinMaxAreExact) {
    LatencyHistogram hist;
    hist.record(3.7);
    hist.record(0.0123);
    hist.record(41.5);
    const HistogramSnapshot snap = hist.snapshot();
    EXPECT_EQ(snap.count, 3u);
    EXPECT_DOUBLE_EQ(snap.min, 0.0123);
    EXPECT_DOUBLE_EQ(snap.max, 41.5);
    // The extreme quantiles stay within the error bound of the exact
    // extremes (they are bucket midpoints clamped into [min, max]).
    EXPECT_NEAR(snap.quantile(0.0), 0.0123, LatencyHistogram::kMaxRelativeError * 0.0123);
    EXPECT_NEAR(snap.quantile(1.0), 41.5, LatencyHistogram::kMaxRelativeError * 41.5);
}

TEST(ObsHistogram, QuantileErrorBoundAcrossMagnitudes) {
    // The headline guarantee: for any multiset, the histogram quantile is
    // within kMaxRelativeError of the exact nearest-rank sample.  Exercise
    // several distributions spanning many orders of magnitude.
    Rng rng(2024);
    std::vector<std::vector<double>> datasets;
    {
        std::vector<double> uniform;
        for (int i = 0; i < 5000; ++i) uniform.push_back(0.01 + 99.99 * rng.uniform());
        datasets.push_back(std::move(uniform));
    }
    {
        std::vector<double> lognormal;
        for (int i = 0; i < 5000; ++i) lognormal.push_back(std::exp(rng.normal(0.0, 3.0)));
        datasets.push_back(std::move(lognormal));
    }
    {
        std::vector<double> spiky;  // bimodal: fast path + slow tail
        for (int i = 0; i < 4000; ++i) spiky.push_back(0.05 + 0.01 * rng.uniform());
        for (int i = 0; i < 1000; ++i) spiky.push_back(50.0 + 10.0 * rng.uniform());
        datasets.push_back(std::move(spiky));
    }

    for (const auto& data : datasets) {
        LatencyHistogram hist;
        for (const double v : data) hist.record(v);
        const HistogramSnapshot snap = hist.snapshot();
        ASSERT_EQ(snap.count, data.size());

        std::vector<double> sorted = data;
        std::sort(sorted.begin(), sorted.end());
        for (const double q : {0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99, 0.999}) {
            const double exact = quantile_nearest_rank(sorted, q);
            const double approx = snap.quantile(q);
            EXPECT_LE(std::abs(approx - exact),
                      LatencyHistogram::kMaxRelativeError * exact)
                << "q=" << q << " exact=" << exact << " approx=" << approx;
        }
    }
}

TEST(ObsHistogram, MeanErrorBound) {
    Rng rng(7);
    LatencyHistogram hist;
    double sum = 0.0;
    const int n = 2000;
    for (int i = 0; i < n; ++i) {
        const double v = std::exp(rng.normal(1.0, 2.0));
        hist.record(v);
        sum += v;
    }
    const double exact_mean = sum / n;
    EXPECT_LE(std::abs(hist.snapshot().mean() - exact_mean),
              LatencyHistogram::kMaxRelativeError * exact_mean);
}

TEST(ObsHistogram, UnderflowAndOverflowAreCountedAndQuantiled) {
    LatencyHistogram hist;
    hist.record(-1.0);                                      // underflow
    hist.record(0.0);                                       // underflow
    hist.record(std::numeric_limits<double>::quiet_NaN());  // underflow
    hist.record(5.0);
    hist.record(1e300);                                     // overflow
    const HistogramSnapshot snap = hist.snapshot();
    EXPECT_EQ(snap.count, 5u);
    EXPECT_EQ(snap.underflow, 3u);
    EXPECT_EQ(snap.overflow, 1u);
    // min/max track only finite recorded values' extremes: NaN is skipped,
    // the negative underflow and the overflow value are still real extremes.
    EXPECT_DOUBLE_EQ(snap.min, -1.0);
    EXPECT_DOUBLE_EQ(snap.max, 1e300);
    // Ranks 1..3 sit in the underflow region -> exact min; rank 5 is the
    // overflow -> exact max.
    EXPECT_DOUBLE_EQ(snap.quantile(0.2), -1.0);
    EXPECT_DOUBLE_EQ(snap.quantile(1.0), 1e300);
}

TEST(ObsHistogram, ResetClears) {
    LatencyHistogram hist;
    hist.record(1.0);
    hist.record(2.0);
    ASSERT_EQ(hist.count(), 2u);
    hist.reset();
    EXPECT_EQ(hist.count(), 0u);
    const HistogramSnapshot snap = hist.snapshot();
    EXPECT_EQ(snap.count, 0u);
    EXPECT_EQ(snap.min, 0.0);
    EXPECT_EQ(snap.max, 0.0);
    hist.record(3.0);
    EXPECT_DOUBLE_EQ(hist.snapshot().min, 3.0);
}

// ---------------------------------------------------------------------------
// Snapshot determinism and merge algebra

TEST(ObsHistogram, SnapshotIsOrderIndependent) {
    // Byte-stability: the same multiset recorded in any order produces an
    // identical (operator==) snapshot.
    Rng rng(11);
    std::vector<double> values;
    for (int i = 0; i < 1000; ++i) values.push_back(std::exp(rng.normal(0.0, 2.0)));

    LatencyHistogram forward;
    for (const double v : values) forward.record(v);
    LatencyHistogram backward;
    for (auto it = values.rbegin(); it != values.rend(); ++it) backward.record(*it);
    LatencyHistogram shuffled;
    std::vector<double> mixed = values;
    rng.shuffle(mixed);
    for (const double v : mixed) shuffled.record(v);

    EXPECT_EQ(forward.snapshot(), backward.snapshot());
    EXPECT_EQ(forward.snapshot(), shuffled.snapshot());
}

TEST(ObsHistogram, MergeIsAssociativeAndCommutative) {
    Rng rng(13);
    std::vector<std::vector<double>> parts(3);
    for (auto& part : parts)
        for (int i = 0; i < 400; ++i) part.push_back(std::exp(rng.normal(0.0, 2.0)));

    const auto snap_of = [](const std::vector<double>& vs) {
        LatencyHistogram h;
        for (const double v : vs) h.record(v);
        return h.snapshot();
    };
    const HistogramSnapshot a = snap_of(parts[0]);
    const HistogramSnapshot b = snap_of(parts[1]);
    const HistogramSnapshot c = snap_of(parts[2]);

    // (a+b)+c == a+(b+c)
    HistogramSnapshot left = a;
    left.merge(b);
    left.merge(c);
    HistogramSnapshot bc = b;
    bc.merge(c);
    HistogramSnapshot right = a;
    right.merge(bc);
    EXPECT_EQ(left, right);

    // a+b == b+a
    HistogramSnapshot ab = a;
    ab.merge(b);
    HistogramSnapshot ba = b;
    ba.merge(a);
    EXPECT_EQ(ab, ba);

    // Merged equals recorded-together: merge is exact, not approximate.
    std::vector<double> all;
    for (const auto& part : parts) all.insert(all.end(), part.begin(), part.end());
    EXPECT_EQ(left, snap_of(all));

    // Merging an empty snapshot is the identity.
    HistogramSnapshot with_empty = a;
    with_empty.merge(HistogramSnapshot{});
    EXPECT_EQ(with_empty, a);
}

TEST(ObsHistogram, ConcurrentRecordMatchesSequential) {
    // N threads hammer one histogram with disjoint slices of a fixed
    // multiset; the result must be identical to single-threaded recording.
    // Under TSan this is also the subsystem's data-race check.
    Rng rng(17);
    std::vector<double> values;
    const int per_thread = 4000;
    const int threads = 4;
    for (int i = 0; i < per_thread * threads; ++i)
        values.push_back(std::exp(rng.normal(0.0, 2.5)));

    LatencyHistogram sequential;
    for (const double v : values) sequential.record(v);

    LatencyHistogram concurrent;
    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (int t = 0; t < threads; ++t) {
        workers.emplace_back([&concurrent, &values, t] {
            for (int i = 0; i < per_thread; ++i)
                concurrent.record(values[static_cast<std::size_t>(t * per_thread + i)]);
        });
    }
    for (auto& w : workers) w.join();

    EXPECT_EQ(concurrent.snapshot(), sequential.snapshot());
}

// ---------------------------------------------------------------------------
// Gauge

TEST(ObsGauge, SetAndAdd) {
    Gauge g;
    EXPECT_EQ(g.value(), 0.0);
    g.set(4.0);
    EXPECT_DOUBLE_EQ(g.value(), 4.0);
    g.add(-1.5);
    EXPECT_DOUBLE_EQ(g.value(), 2.5);
}

TEST(ObsGauge, ConcurrentAddLosesNothing) {
    Gauge g;
    std::vector<std::thread> workers;
    const int threads = 4;
    const int adds = 10000;
    workers.reserve(threads);
    for (int t = 0; t < threads; ++t) {
        workers.emplace_back([&g] {
            for (int i = 0; i < adds; ++i) g.add(1.0);
        });
    }
    for (auto& w : workers) w.join();
    EXPECT_DOUBLE_EQ(g.value(), static_cast<double>(threads * adds));
}

// ---------------------------------------------------------------------------
// Registry

TEST(ObsRegistry, FindOrCreateReturnsStableReferences) {
    MetricsRegistry reg;
    LatencyHistogram& h1 = reg.histogram("lat");
    LatencyHistogram& h2 = reg.histogram("lat");
    EXPECT_EQ(&h1, &h2);
    LatencyHistogram& other = reg.histogram("lat", {{"shard", "1"}});
    EXPECT_NE(&h1, &other);
    Gauge& g1 = reg.gauge("depth");
    Gauge& g2 = reg.gauge("depth");
    EXPECT_EQ(&g1, &g2);
}

TEST(ObsRegistry, LabelsAreCanonicalized) {
    MetricsRegistry reg;
    // Same label set in different orders must resolve to one instrument.
    Gauge& a = reg.gauge("g", {{"b", "2"}, {"a", "1"}});
    Gauge& b = reg.gauge("g", {{"a", "1"}, {"b", "2"}});
    EXPECT_EQ(&a, &b);
    const MetricsSnapshot snap = reg.snapshot();
    ASSERT_EQ(snap.gauges.size(), 1u);
    const Labels expected{{"a", "1"}, {"b", "2"}};
    EXPECT_EQ(snap.gauges[0].labels, expected);
}

TEST(ObsRegistry, SnapshotIsSortedAndComplete) {
    MetricsRegistry reg;
    reg.histogram("z/lat").record(1.0);
    reg.histogram("a/lat").record(2.0);
    reg.gauge("m/depth").set(3.0);
    const MetricsSnapshot snap = reg.snapshot();
    ASSERT_EQ(snap.histograms.size(), 2u);
    EXPECT_EQ(snap.histograms[0].name, "a/lat");
    EXPECT_EQ(snap.histograms[1].name, "z/lat");
    ASSERT_EQ(snap.gauges.size(), 1u);
    EXPECT_EQ(snap.gauges[0].value, 3.0);
    EXPECT_TRUE(snap.counters.empty());
}

TEST(ObsRegistry, DeltaSinceLast) {
    MetricsRegistry reg;
    LatencyHistogram& lat = reg.histogram("lat");
    lat.record(1.0);
    lat.record(2.0);

    MetricsSnapshot first = reg.delta_since_last();
    ASSERT_EQ(first.histograms.size(), 1u);
    EXPECT_EQ(first.histograms[0].hist.count, 2u);

    // No activity -> empty delta (zero-activity entries are dropped).
    const MetricsSnapshot quiet = reg.delta_since_last();
    EXPECT_TRUE(quiet.histograms.empty());

    lat.record(3.0);
    const MetricsSnapshot second = reg.delta_since_last();
    ASSERT_EQ(second.histograms.size(), 1u);
    EXPECT_EQ(second.histograms[0].hist.count, 1u);
}

TEST(ObsRegistry, ResetZeroesButKeepsNames) {
    MetricsRegistry reg;
    reg.histogram("lat").record(5.0);
    reg.gauge("depth").set(7.0);
    reg.reset();
    const MetricsSnapshot snap = reg.snapshot();
    ASSERT_EQ(snap.histograms.size(), 1u);
    EXPECT_EQ(snap.histograms[0].hist.count, 0u);
    ASSERT_EQ(snap.gauges.size(), 1u);
    EXPECT_EQ(snap.gauges[0].value, 0.0);
}

TEST(ObsRegistry, ConcurrentFindOrCreateAndRecord) {
    // Races registry lookups against recording; TSan checks the lock
    // discipline, the assertion checks nothing is lost.
    MetricsRegistry reg;
    const int threads = 4;
    const int iters = 2000;
    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (int t = 0; t < threads; ++t) {
        workers.emplace_back([&reg, t] {
            for (int i = 0; i < iters; ++i) {
                reg.histogram("shared").record(1.0);
                reg.histogram("per/" + std::to_string(t)).record(2.0);
            }
        });
    }
    for (auto& w : workers) w.join();
    const MetricsSnapshot snap = reg.snapshot();
    ASSERT_EQ(snap.histograms.size(), static_cast<std::size_t>(threads) + 1);
    std::uint64_t total = 0;
    for (const auto& h : snap.histograms) total += h.hist.count;
    EXPECT_EQ(total, static_cast<std::uint64_t>(2 * threads * iters));
}

// ---------------------------------------------------------------------------
// Snapshot merge / delta semantics

TEST(ObsSnapshot, MergeAddsCountersMergesHistogramsOverwritesGauges) {
    MetricsSnapshot a;
    a.counters.push_back({"c", {}, 3});
    a.gauges.push_back({"g", {}, 1.0});
    LatencyHistogram ha;
    ha.record(1.0);
    a.histograms.push_back({"h", {}, ha.snapshot()});

    MetricsSnapshot b;
    b.counters.push_back({"c", {}, 4});
    b.counters.push_back({"new", {}, 1});
    b.gauges.push_back({"g", {}, 9.0});
    LatencyHistogram hb;
    hb.record(2.0);
    b.histograms.push_back({"h", {}, hb.snapshot()});

    a.merge(b);
    a.sort();
    ASSERT_EQ(a.counters.size(), 2u);
    EXPECT_EQ(a.counters[0].value, 7u);  // "c": 3+4
    EXPECT_EQ(a.counters[1].value, 1u);  // "new"
    ASSERT_EQ(a.gauges.size(), 1u);
    EXPECT_EQ(a.gauges[0].value, 9.0);   // incoming value wins
    ASSERT_EQ(a.histograms.size(), 1u);
    EXPECT_EQ(a.histograms[0].hist.count, 2u);
    EXPECT_DOUBLE_EQ(a.histograms[0].hist.min, 1.0);
    EXPECT_DOUBLE_EQ(a.histograms[0].hist.max, 2.0);
}

TEST(ObsSnapshot, DeltaDropsIdleEntries) {
    LatencyHistogram hist;
    hist.record(1.0);
    MetricsSnapshot before;
    before.counters.push_back({"busy", {}, 1});
    before.counters.push_back({"idle", {}, 5});
    before.histograms.push_back({"h", {}, hist.snapshot()});

    hist.record(2.0);
    MetricsSnapshot after;
    after.counters.push_back({"busy", {}, 4});
    after.counters.push_back({"idle", {}, 5});
    after.gauges.push_back({"g", {}, 2.5});
    after.histograms.push_back({"h", {}, hist.snapshot()});

    const MetricsSnapshot delta = snapshot_delta(before, after);
    ASSERT_EQ(delta.counters.size(), 1u);
    EXPECT_EQ(delta.counters[0].name, "busy");
    EXPECT_EQ(delta.counters[0].value, 3u);
    ASSERT_EQ(delta.histograms.size(), 1u);
    EXPECT_EQ(delta.histograms[0].hist.count, 1u);
    ASSERT_EQ(delta.gauges.size(), 1u);
    EXPECT_EQ(delta.gauges[0].value, 2.5);
}

// ---------------------------------------------------------------------------
// Macros

TEST(ObsMacros, RecordAndPhaseFeedTheGlobalRegistry) {
    const MetricsSnapshot before = registry().snapshot();
    TSCHED_OBS_RECORD("obs_test/record_ms", 2.5);
    {
        TSCHED_OBS_PHASE("obs_test/phase_ms");
    }
    TSCHED_OBS_GAUGE_SET("obs_test/gauge", 11);
    TSCHED_OBS_GAUGE_ADD("obs_test/gauge", 1);
    const MetricsSnapshot after = registry().snapshot();
    const MetricsSnapshot delta = snapshot_delta(before, after);

    bool saw_record = false;
    bool saw_phase = false;
    for (const auto& h : delta.histograms) {
        if (h.name == "obs_test/record_ms") {
            saw_record = true;
            EXPECT_EQ(h.hist.count, 1u);
            EXPECT_DOUBLE_EQ(h.hist.min, 2.5);
        }
        if (h.name == "obs_test/phase_ms") {
            saw_phase = true;
            EXPECT_GE(h.hist.count, 1u);
        }
    }
    EXPECT_TRUE(saw_record);
    EXPECT_TRUE(saw_phase);

    bool saw_gauge = false;
    for (const auto& g : after.gauges) {
        if (g.name == "obs_test/gauge") {
            saw_gauge = true;
            EXPECT_DOUBLE_EQ(g.value, 12.0);
        }
    }
    EXPECT_TRUE(saw_gauge);
}

TEST(ObsMacros, ConcurrentPhaseSiteLosesNoScope) {
    // One TSCHED_OBS_PHASE call site entered concurrently: every thread races
    // the site's first-use lookup, and no scope exit may be lost.
    constexpr std::uint64_t kThreads = 8;
    constexpr std::uint64_t kScopes = 10000;
    const std::uint64_t before = registry().histogram("obs_test/concurrent_phase_ms").count();
    std::vector<std::thread> threads;
    for (std::uint64_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([] {
            for (std::uint64_t i = 0; i < kScopes; ++i) {
                TSCHED_OBS_PHASE("obs_test/concurrent_phase_ms");
            }
        });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(registry().histogram("obs_test/concurrent_phase_ms").count() - before,
              kThreads * kScopes);
}

TEST(ObsMacros, PhaseSiteRecordsIntoTheRegistrysOwnHistogram) {
    // The site resolves its histogram once; every later entry must still land
    // in the one instrument registry().histogram(name) hands out.
    const LatencyHistogram& hist = registry().histogram("obs_test/cached_phase_ms");
    const std::uint64_t before = hist.count();
    for (std::uint64_t i = 1; i <= 3; ++i) {
        { TSCHED_OBS_PHASE("obs_test/cached_phase_ms"); }
        EXPECT_EQ(hist.count() - before, i);
    }
}

// ---------------------------------------------------------------------------
// Exporters

MetricsSnapshot example_snapshot() {
    MetricsSnapshot snap;
    snap.counters.push_back({"serve/requests", {}, 42});
    snap.gauges.push_back({"pool/queue-depth", {}, 3.5});
    snap.gauges.push_back({"cache/occupancy", {{"shard", "0"}}, 10.0});
    snap.gauges.push_back({"cache/occupancy", {{"shard", "1"}}, 12.0});
    LatencyHistogram hist;
    hist.record(0.5);
    hist.record(1.5);
    hist.record(1.6);
    hist.record(250.0);
    snap.histograms.push_back({"serve/latency/total_ms", {}, hist.snapshot()});
    snap.sort();
    return snap;
}

TEST(ObsExport, PrometheusShape) {
    const std::string text = to_prometheus(example_snapshot());

    // Sanitized, prefixed names; one TYPE header per metric.
    EXPECT_NE(text.find("# TYPE tsched_serve_requests counter"), std::string::npos);
    EXPECT_NE(text.find("tsched_serve_requests 42"), std::string::npos);
    EXPECT_NE(text.find("# TYPE tsched_pool_queue_depth gauge"), std::string::npos);
    EXPECT_NE(text.find("tsched_cache_occupancy{shard=\"1\"} 12"), std::string::npos);
    EXPECT_NE(text.find("# TYPE tsched_serve_latency_total_ms histogram"),
              std::string::npos);
    // The mandatory +Inf bucket equals _count.
    EXPECT_NE(text.find("tsched_serve_latency_total_ms_bucket{le=\"+Inf\"} 4"),
              std::string::npos);
    EXPECT_NE(text.find("tsched_serve_latency_total_ms_count 4"), std::string::npos);

    // Cumulative bucket counts never decrease.
    std::istringstream lines(text);
    std::string line;
    std::uint64_t prev = 0;
    while (std::getline(lines, line)) {
        if (line.rfind("tsched_serve_latency_total_ms_bucket", 0) != 0) continue;
        const auto space = line.rfind(' ');
        ASSERT_NE(space, std::string::npos);
        const auto cumulative = static_cast<std::uint64_t>(
            std::stoull(line.substr(space + 1)));
        EXPECT_GE(cumulative, prev) << line;
        prev = cumulative;
    }
    EXPECT_EQ(prev, 4u);
}

TEST(ObsExport, JsonShapeAndQuantiles) {
    const MetricsSnapshot snap = example_snapshot();
    const std::string json = to_json(snap);
    EXPECT_NE(json.find("\"schema\":1"), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"serve/requests\""), std::string::npos);
    EXPECT_NE(json.find("\"value\":42"), std::string::npos);
    EXPECT_NE(json.find("\"labels\":{\"shard\":\"1\"}"), std::string::npos);
    EXPECT_NE(json.find("\"count\":4"), std::string::npos);
    for (const char* key : {"\"p50\":", "\"p95\":", "\"p99\":", "\"p999\":",
                            "\"min\":", "\"max\":", "\"mean\":", "\"buckets\":["})
        EXPECT_NE(json.find(key), std::string::npos) << key;
}

TEST(ObsExport, DeterministicAcrossEqualSnapshots) {
    // Equal snapshots (even built in a different insertion order) export to
    // byte-identical documents in both formats.
    MetricsSnapshot reordered;
    const MetricsSnapshot canonical = example_snapshot();
    reordered.gauges.push_back({"cache/occupancy", {{"shard", "1"}}, 12.0});
    reordered.gauges.push_back({"pool/queue-depth", {}, 3.5});
    reordered.gauges.push_back({"cache/occupancy", {{"shard", "0"}}, 10.0});
    reordered.counters = canonical.counters;
    reordered.histograms = canonical.histograms;
    reordered.sort();
    ASSERT_EQ(reordered, canonical);
    EXPECT_EQ(to_prometheus(reordered), to_prometheus(canonical));
    EXPECT_EQ(to_json(reordered), to_json(canonical));
}

// ---------------------------------------------------------------------------
// Reporter

class ObsReporter : public ::testing::Test {
protected:
    void SetUp() override {
        path_ = (std::filesystem::temp_directory_path() / "tsched_obs_reporter_test.out")
                    .string();
        std::filesystem::remove(path_);
    }
    void TearDown() override { std::filesystem::remove(path_); }

    [[nodiscard]] std::string slurp() const {
        std::ifstream in(path_);
        std::ostringstream os;
        os << in.rdbuf();
        return os.str();
    }

    std::string path_;
};

TEST_F(ObsReporter, JsonlAppendsOneDocumentPerFlush) {
    ReporterOptions options;
    options.path = path_;
    options.format = ReporterOptions::Format::kJson;
    options.interval_ms = 0;  // no timer; we drive flushes by hand

    MetricsRegistry reg;
    MetricsReporter reporter(options, [&reg] { return reg.snapshot(); });

    reg.histogram("lat").record(1.0);
    ASSERT_TRUE(reporter.flush());
    reg.histogram("lat").record(2.0);
    ASSERT_TRUE(reporter.flush());
    EXPECT_EQ(reporter.flush_count(), 2u);

    std::istringstream lines(slurp());
    std::string line;
    std::size_t n = 0;
    while (std::getline(lines, line)) {
        EXPECT_EQ(line.rfind("{\"schema\":1", 0), 0u) << line;
        ++n;
    }
    EXPECT_EQ(n, 2u);
}

TEST_F(ObsReporter, JsonlTruncatesStaleFileOnFirstFlush) {
    {
        std::ofstream stale(path_);
        stale << "stale content from a previous run\n";
    }
    ReporterOptions options;
    options.path = path_;
    options.interval_ms = 0;
    MetricsRegistry reg;
    MetricsReporter reporter(options, [&reg] { return reg.snapshot(); });
    ASSERT_TRUE(reporter.flush());
    const std::string content = slurp();
    EXPECT_EQ(content.find("stale"), std::string::npos);
    EXPECT_EQ(content.rfind("{\"schema\":1", 0), 0u);
}

TEST_F(ObsReporter, PrometheusModeRewritesInPlace) {
    ReporterOptions options;
    options.path = path_;
    options.format = ReporterOptions::Format::kPrometheus;
    options.interval_ms = 0;

    MetricsRegistry reg;
    MetricsReporter reporter(options, [&reg] { return reg.snapshot(); });
    reg.gauge("depth").set(1.0);
    ASSERT_TRUE(reporter.flush());
    reg.gauge("depth").set(2.0);
    ASSERT_TRUE(reporter.flush());

    // Scrape-file model: latest state only, not a history.
    const std::string content = slurp();
    EXPECT_NE(content.find("tsched_depth 2"), std::string::npos);
    EXPECT_EQ(content.find("tsched_depth 1"), std::string::npos);
}

TEST_F(ObsReporter, BackgroundLoopFlushesAndStopIsIdempotent) {
    ReporterOptions options;
    options.path = path_;
    options.interval_ms = 5;

    std::atomic<int> pulls{0};
    MetricsReporter reporter(options, [&pulls] {
        pulls.fetch_add(1, std::memory_order_relaxed);
        return MetricsSnapshot{};
    });
    reporter.start();
    // stop() joins and runs the final flush, so at least one write lands
    // regardless of scheduling.
    reporter.stop();
    reporter.stop();  // idempotent
    EXPECT_GE(reporter.flush_count(), 1u);
    EXPECT_GE(pulls.load(), 1);
    EXPECT_TRUE(std::filesystem::exists(path_));
}

TEST_F(ObsReporter, EmptyPathNeverStartsOrWrites) {
    ReporterOptions options;  // path empty
    MetricsReporter reporter(options, [] { return MetricsSnapshot{}; });
    reporter.start();  // no-op
    reporter.stop();
    EXPECT_EQ(reporter.flush_count(), 0u);
}

TEST_F(ObsReporter, ConcurrentFlushesSerialize) {
    ReporterOptions options;
    options.path = path_;
    options.interval_ms = 0;
    MetricsRegistry reg;
    reg.histogram("lat").record(1.0);
    MetricsReporter reporter(options, [&reg] { return reg.snapshot(); });

    const int threads = 4;
    const int flushes = 25;
    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (int t = 0; t < threads; ++t) {
        workers.emplace_back([&reporter] {
            for (int i = 0; i < flushes; ++i) EXPECT_TRUE(reporter.flush());
        });
    }
    for (auto& w : workers) w.join();
    EXPECT_EQ(reporter.flush_count(), static_cast<std::uint64_t>(threads * flushes));

    // Every line is a whole document: no torn interleaved writes.
    std::istringstream lines(slurp());
    std::string line;
    std::size_t n = 0;
    while (std::getline(lines, line)) {
        EXPECT_EQ(line.rfind("{\"schema\":1", 0), 0u);
        EXPECT_EQ(line.back(), '}');
        ++n;
    }
    EXPECT_EQ(n, static_cast<std::size_t>(threads * flushes));
}

}  // namespace
}  // namespace tsched::obs
