// E17 — serving core under request streams (bench_serve).
//
// Replays generated .tsr request streams through the ServeEngine and sweeps
// batch size x cache capacity x repeat-fraction, reporting QPS, latency
// p50/p95/p99, and cache hit rate per point (EXPERIMENTS.md E17).
//
// Protocol: every point materializes its requests before the clock starts
// and replays the stream --epochs times against one persistent engine
// (steady-state serving; see serve/replay.hpp).  The stream itself carries
// an exact repeat fraction, so single-epoch numbers are the cold-cache view
// and multi-epoch numbers the steady-state view.
//
//   --requests=N         stream length (default 64)
//   --n=N                instance size (default 150)
//   --procs=P            processors (default 8)
//   --algo=NAME          scheduler under service (default ils-d)
//   --threads=T          serving pool workers (default 0 = hardware)
//   --epochs=E           passes per measurement (default 2)
//   --batches=a,b        batch sizes to sweep (default 1,8,32)
//   --capacities=a,b     cache capacities to sweep (default 8,1024)
//   --repeat-fracs=a,b   repeat fractions to sweep (default 0,0.5,0.9)
//   --seed=S             trace generation seed (default 2007)
//   --csv=PATH           also write the sweep table as CSV
//   --metrics-out=PATH   append each sweep point's engine obs metrics
//                        document (obs/export.hpp JSON) as one JSONL line
//
//   --check              acceptance gate (registered as ctest bench_serve_check):
//                        1. cache-hit schedules are bit-identical (same TSS
//                           bytes, same object) to cold-computed ones;
//                        2. cache-on serving equals cache-off serving
//                           request-for-request;
//                        3. concurrent identical requests coalesce onto one
//                           computation;
//                        4. resubmitting cached problems costs no rehash
//                           and no recomputation: a second epoch of the
//                           same materialized 50%-repeat stream is all
//                           cache hits, moves the problem_content_hashes
//                           counter by 0, and serve/computed equals the
//                           number of distinct requests (the cache-on /
//                           cache-off QPS ratio of 5 interleaved replay
//                           pairs is printed, not gated);
//                        5. LatencyHistogram percentiles of the replayed
//                           stream sit within kMaxRelativeError of the exact
//                           nearest-rank percentiles of the same latencies
//                           (the obs error bound, validated on live data);
//                        6. overload semantics are deterministic: with every
//                           computation frozen at the chaos gate, a
//                           saturating burst's outcome sequence is a pure
//                           function of submission order — bit-identical
//                           across reruns and pool widths (2 vs 8 workers)
//                           for reject-new, drop-oldest, and degrade;
//                        7. outcome accounting balances under a
//                           deterministic fault storm: once every future is
//                           resolved, ok + shed + degraded + timed_out +
//                           draining + failed == requests, and the failure
//                           count equals the fp-keyed prediction.
//
//   --chaos              deterministic chaos battery (serve/chaos.hpp): burst
//                        freezes per shed policy, a deadline-expiry cascade,
//                        an fp-keyed stall/throw/submit-fail storm, and a
//                        drain-under-fire teardown.  Output carries no
//                        timings, so two runs (any --threads) byte-compare
//                        equal — tools/serve_chaos_smoke.sh gates exactly
//                        that.
//
//   --net                E21: network serving sweep — an in-process
//                        ServeServer on an ephemeral loopback port, replayed
//                        over --conns=a,b concurrent connections (window
//                        --window pipelined requests each) per repeat
//                        fraction.  With --json=PATH also measures the
//                        steady-state serve perf point
//                        {"schema":1,"serve":{qps,p50_ms,p99_ms,...}} that
//                        tools/perf_check.sh gates in CI.
//
//   --net-check          wire acceptance gates (ctest bench_net_check):
//                        N1. accounting identity over 8 live connections:
//                            ok+shed+degraded+timed_out+draining+failed ==
//                            requests, zero failures on healthy loopback;
//                        N2. schedule payloads byte-identical across reruns,
//                            pool widths (2 vs 8), and connection counts —
//                            the order-independent payload digest matches;
//                        N3. drain under client fire keeps the identity and
//                            the engine drain stays clean.
//
// Exit status: 0 success (check included), 1 check/chaos failure, 2 usage
// errors.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <future>
#include <iostream>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "core/registry.hpp"
#include "net/net_replay.hpp"
#include "net/server.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "sched/schedule_io.hpp"
#include "serve/chaos.hpp"
#include "serve/replay.hpp"
#include "serve/request.hpp"
#include "trace/counters.hpp"
#include "util/stats.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

namespace {

using namespace tsched;

struct ServeBenchConfig {
    std::size_t requests = 64;
    std::size_t n = 150;
    std::size_t procs = 8;
    std::string algo = "ils-d";
    std::size_t threads = 0;
    std::size_t epochs = 2;
    std::vector<std::size_t> batches = {1, 8, 32};
    std::vector<std::size_t> capacities = {8, 1024};
    std::vector<double> repeat_fracs = {0.0, 0.5, 0.9};
    std::uint64_t seed = 2007;
    std::string csv_path;
    std::string metrics_path;
    std::vector<std::size_t> conns = {1, 4, 8};  ///< connection counts (--net sweep)
    std::size_t window = 16;                     ///< pipelined requests per connection
    std::string json_path;                       ///< serve perf point (perf_check.sh)
};

serve::TraceGenParams trace_params(const ServeBenchConfig& config, double repeat_frac) {
    serve::TraceGenParams params;
    params.requests = config.requests;
    params.repeat_frac = repeat_frac;
    params.algos = {config.algo};
    params.size = config.n;
    params.procs = config.procs;
    params.seed = config.seed;
    return params;
}

// ---------------------------------------------------------------------------
// Overload / chaos helpers (check gates 6-7 and the --chaos battery).

/// Materialize `count` fingerprint-distinct requests from a repeat-free
/// trace (generation with repeat_frac 0 is already distinct; the fingerprint
/// set makes that an invariant rather than an assumption).
std::vector<serve::ScheduleRequest> unique_stream(const ServeBenchConfig& config,
                                                  std::size_t count) {
    auto params = trace_params(config, 0.0);
    params.requests = count + 8;  // headroom against generator fp collisions
    const auto trace = serve::generate_trace(params);
    std::vector<serve::ScheduleRequest> out;
    std::set<std::uint64_t> seen;
    for (const serve::TraceRequest& tr : trace) {
        auto request = serve::materialize(tr);
        if (!seen.insert(serve::fingerprint_request(request)).second) continue;
        out.push_back(std::move(request));
        if (out.size() == count) break;
    }
    if (out.size() != count)
        throw std::runtime_error("unique_stream: trace yielded fewer distinct requests");
    return out;
}

/// "ok ok ok" — n copies of an outcome name, space-joined (expected-sequence
/// literals for the gate bursts).
std::string times(const char* word, std::size_t n) {
    std::string out;
    for (std::size_t i = 0; i < n; ++i) {
        if (!out.empty()) out += ' ';
        out += word;
    }
    return out;
}

std::uint64_t outcome_sum(const serve::EngineStats& stats) {
    return stats.ok + stats.shed + stats.degraded + stats.timed_out + stats.draining +
           stats.failed;
}

struct BurstResult {
    std::string sequence;     ///< outcome names in request order, space-joined
    serve::EngineStats stats;  ///< read after every future resolved
};

/// Freeze the world at the chaos gate, submit the burst serially, release,
/// gather.  While the gate is closed nothing can complete, so every
/// admission decision is a pure function of submission order and the outcome
/// sequence must be bit-identical across runs and pool widths.
BurstResult run_gate_burst(ThreadPool& pool, const std::vector<serve::ScheduleRequest>& requests,
                           serve::ShedPolicy policy, std::size_t max_inflight,
                           std::size_t max_pending) {
    auto chaos = std::make_shared<serve::DeterministicChaos>(
        serve::ChaosOptions{.gate_stalls = true, .gate_all = true});
    serve::ServeConfig cfg;
    cfg.max_inflight = max_inflight;
    cfg.max_pending = max_pending;
    cfg.shed_policy = policy;
    cfg.chaos = chaos;
    serve::ServeEngine engine(cfg, pool);
    std::vector<std::future<serve::ServeResult>> futures;
    futures.reserve(requests.size());
    for (const serve::ScheduleRequest& request : requests) futures.push_back(engine.submit(request));
    chaos->release_stalls();
    BurstResult out;
    for (auto& future : futures) {
        if (!out.sequence.empty()) out.sequence += ' ';
        out.sequence += serve::outcome_name(future.get().outcome);
    }
    out.stats = engine.stats();
    return out;
}

struct GateScenario {
    const char* name;
    serve::ShedPolicy policy;
    std::size_t max_inflight;
    std::size_t max_pending;
    std::size_t requests;
    std::string expect;
};

/// The three canonical saturating bursts and their exact outcome sequences.
/// reject-new {4,4} x16: 0-3 run, 4-7 queue (promoted after release), 8-15
/// shed.  drop-oldest: each of 8-15 evicts the oldest pending, so 4-11 shed
/// and 12-15 survive the queue.  degrade {4,0} x8: 4-7 answered inline by
/// the substitute algorithm.
std::vector<GateScenario> gate_scenarios() {
    return {
        {"reject-new", serve::ShedPolicy::kRejectNew, 4, 4, 16,
         times("ok", 8) + ' ' + times("shed", 8)},
        {"drop-oldest", serve::ShedPolicy::kDropOldest, 4, 4, 16,
         times("ok", 4) + ' ' + times("shed", 8) + ' ' + times("ok", 4)},
        {"degrade", serve::ShedPolicy::kDegrade, 4, 0, 8,
         times("ok", 4) + ' ' + times("degraded", 4)},
    };
}

serve::ChaosOptions storm_options(std::uint64_t seed) {
    return serve::ChaosOptions{.seed = seed,
                               .stall_prob = 0.2,
                               .stall_ms = 2.0,
                               .throw_prob = 0.25,
                               .submit_fail_prob = 0.15};
}

// ---------------------------------------------------------------------------
// E21: network serving (src/net front-end; in-process server, real sockets).

net::ServerConfig net_server_config() {
    net::ServerConfig server;
    server.port = 0;  // ephemeral: the bench never collides with itself
    server.max_conns = 64;
    server.per_conn_queue = 64;
    return server;
}

net::NetReplayOptions net_replay_options(const ServeBenchConfig& config, std::uint16_t port,
                                         std::size_t conns) {
    net::NetReplayOptions options;
    options.port = port;
    options.conns = conns;
    options.window = config.window;
    options.epochs = config.epochs;
    options.client_name = "bench_serve";
    return options;
}

/// One steady-state measurement: fresh server on `pool`, full replay.
serve::ReplayReport measure_net(const ServeBenchConfig& config,
                                const std::vector<serve::TraceRequest>& trace,
                                std::size_t conns, ThreadPool& pool) {
    net::ServeServer server(net_server_config(), pool);
    server.start();
    const auto report = replay_net(trace, net_replay_options(config, server.port(), conns));
    server.stop();
    return report;
}

int run_net_sweep(const ServeBenchConfig& config) {
    std::cout << "== E21: network serving (" << config.algo << ", n=" << config.n << ", P="
              << config.procs << ", " << config.requests << " requests x " << config.epochs
              << " epochs, window=" << config.window << ", threads="
              << (config.threads ? std::to_string(config.threads) : std::string("hw"))
              << ") ==\n";
    ThreadPool pool(config.threads);
    Table table({"repeat", "conns", "qps", "p50 ms", "p95 ms", "p99 ms", "ok", "shed",
                 "failed", "hit %"});
    for (const double frac : config.repeat_fracs) {
        const auto trace = serve::generate_trace(trace_params(config, frac));
        for (const std::size_t conns : config.conns) {
            const auto report = measure_net(config, trace, conns, pool);
            const double hit_rate =
                report.replies > 0
                    ? static_cast<double>(report.cache_hits) / static_cast<double>(report.replies)
                    : 0.0;
            table.new_row()
                .add(frac, 2)
                .add(conns)
                .add(report.qps, 1)
                .add(report.latency_p50_ms, 3)
                .add(report.latency_p95_ms, 3)
                .add(report.latency_p99_ms, 3)
                .add(static_cast<std::size_t>(report.ok))
                .add(static_cast<std::size_t>(report.shed))
                .add(static_cast<std::size_t>(report.failed))
                .add(hit_rate * 100.0, 1);
            if (!report.accounting_ok())
                std::cerr << "bench_serve: WARNING: accounting identity violated at conns="
                          << conns << '\n';
        }
    }
    std::cout << table.to_markdown();
    if (!config.csv_path.empty() && !table.write_csv(config.csv_path))
        std::cerr << "bench_serve: could not write " << config.csv_path << '\n';

    // The serve-path perf point tools/perf_check.sh gates: steady-state
    // replay at the largest swept connection count, 50% repeats.
    if (!config.json_path.empty()) {
        const auto trace = serve::generate_trace(trace_params(config, 0.5));
        const std::size_t conns = config.conns.back();
        const auto report = measure_net(config, trace, conns, pool);
        std::ostringstream os;
        os.precision(6);
        os << std::fixed;
        os << "{\"schema\":1,\"serve\":{\"qps\":" << report.qps << ",\"p50_ms\":"
           << report.latency_p50_ms << ",\"p99_ms\":" << report.latency_p99_ms << ",\"conns\":"
           << conns << ",\"window\":" << config.window << ",\"requests\":" << report.requests
           << "}}";
        std::ofstream out(config.json_path);
        out << os.str() << '\n';
        if (!out) {
            std::cerr << "bench_serve: could not write " << config.json_path << '\n';
            return 2;
        }
        std::cout << "serve point: " << os.str() << '\n';
    }
    return 0;
}

int net_fail(const std::string& what) {
    std::cout << "net-check: FAIL — " << what << '\n';
    return 1;
}

int run_net_check(const ServeBenchConfig& config) {
    const auto trace = serve::generate_trace(trace_params(config, 0.5));

    // Gate N1 — wire accounting identity: every request sent over N
    // concurrent connections is answered and classified; nothing is lost.
    {
        ThreadPool pool(config.threads);
        const auto report = measure_net(config, trace, 8, pool);
        if (!report.accounting_ok())
            return net_fail("accounting identity: ok+shed+degraded+timed_out+draining+failed "
                            "!= requests");
        if (report.replies != report.requests)
            return net_fail("replies " + std::to_string(report.replies) + " != requests " +
                            std::to_string(report.requests));
        if (report.failed != 0)
            return net_fail(std::to_string(report.failed) + " transport failures on a healthy "
                            "loopback");
        if (report.ok != report.requests)
            return net_fail("an unloaded server answered " + std::to_string(report.ok) + "/" +
                            std::to_string(report.requests) + " ok");
    }
    std::cout << "net-check: wire accounting identity holds over 8 connections\n";

    // Gate N2 — byte-identity across reruns and pool widths: the digest is
    // an order-independent fold of every schedule payload; equal traces must
    // produce equal digests no matter the pool width, connection count, or
    // arrival order (response payloads carry no timing).
    {
        std::uint64_t reference = 0;
        bool first = true;
        for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
            for (int rerun = 0; rerun < 2; ++rerun) {
                ThreadPool pool(threads);
                const auto report = measure_net(config, trace, rerun == 0 ? 8 : 4, pool);
                if (!report.payload_consistent)
                    return net_fail("equal fingerprints carried different schedule bytes");
                if (report.schedule_digest == 0)
                    return net_fail("schedule digest is zero (no payloads hashed?)");
                if (first) {
                    reference = report.schedule_digest;
                    first = false;
                } else if (report.schedule_digest != reference) {
                    return net_fail("schedule digest differs across reruns/pool widths");
                }
            }
        }
    }
    std::cout << "net-check: schedule payloads byte-identical across reruns and pool widths\n";

    // Gate N3 — drain under fire: stopping the server mid-replay must still
    // account for every request (delivered, typed kDraining, or counted
    // failed) and drain the engine cleanly.
    {
        ThreadPool pool(config.threads);
        net::ServeServer server(net_server_config(), pool);
        server.start();
        auto options = net_replay_options(config, server.port(), 4);
        options.epochs = config.epochs * 4;  // enough traffic to straddle the stop
        auto replay = std::async(std::launch::async,
                                 [&] { return net::replay_net(trace, options); });
        // No sleep: stop immediately — the race lands differently every
        // run, but the identity below must hold wherever it lands.
        server.request_stop();
        const net::NetDrainReport drain = server.stop();
        const auto report = replay.get();
        if (!report.accounting_ok())
            return net_fail("accounting identity broken by drain-under-fire");
        if (!drain.engine.clean)
            return net_fail("engine drain not clean under client fire");
    }
    std::cout << "net-check: drain under fire keeps the accounting identity\n";

    std::cout << "net-check: PASS\n";
    return 0;
}

int run_sweep(const ServeBenchConfig& config) {
    std::cout << "== E17: serving core (" << config.algo << ", n=" << config.n << ", P="
              << config.procs << ", " << config.requests << " requests x " << config.epochs
              << " epochs, threads=" << (config.threads ? std::to_string(config.threads)
                                                        : std::string("hw"))
              << ") ==\n";
    ThreadPool pool(config.threads);
    Table table({"repeat", "capacity", "batch", "qps", "p50 ms", "p95 ms", "p99 ms",
                 "p99.9 ms", "hit %", "evict"});
    std::ofstream metrics_out;
    if (!config.metrics_path.empty()) {
        metrics_out.open(config.metrics_path, std::ios::trunc);
        if (!metrics_out)
            std::cerr << "bench_serve: could not open " << config.metrics_path << '\n';
    }
    for (const double frac : config.repeat_fracs) {
        const auto trace = serve::generate_trace(trace_params(config, frac));
        for (const std::size_t capacity : config.capacities) {
            for (const std::size_t batch : config.batches) {
                serve::ReplayOptions options;
                options.config.cache_capacity = capacity;
                options.batch = batch;
                options.epochs = config.epochs;
                const auto report = serve::replay_trace(trace, options, pool);
                table.new_row()
                    .add(frac, 2)
                    .add(capacity)
                    .add(batch)
                    .add(report.qps, 1)
                    .add(report.latency_p50_ms, 3)
                    .add(report.latency_p95_ms, 3)
                    .add(report.latency_p99_ms, 3)
                    .add(report.latency_p999_ms, 3)
                    .add(report.stats.hit_rate() * 100.0, 1)
                    .add(static_cast<std::size_t>(report.stats.cache.evictions));
                if (metrics_out.is_open())
                    metrics_out << obs::to_json(report.metrics) << '\n';
            }
        }
    }
    // Cache-off reference row (repeat fraction 0.5, largest batch).
    {
        const auto trace = serve::generate_trace(trace_params(config, 0.5));
        serve::ReplayOptions options;
        options.config.enable_cache = false;
        options.batch = config.batches.back();
        options.epochs = config.epochs;
        const auto report = serve::replay_trace(trace, options, pool);
        table.new_row()
            .add("0.50*")
            .add("off")
            .add(options.batch)
            .add(report.qps, 1)
            .add(report.latency_p50_ms, 3)
            .add(report.latency_p95_ms, 3)
            .add(report.latency_p99_ms, 3)
            .add(report.latency_p999_ms, 3)
            .add(0.0, 1)
            .add(std::size_t{0});
    }
    std::cout << table.to_markdown() << "(* = cache off)\n";
    if (!config.csv_path.empty() && !table.write_csv(config.csv_path))
        std::cerr << "bench_serve: could not write " << config.csv_path << '\n';
    return 0;
}

int fail(const std::string& what) {
    std::cout << "check: FAIL — " << what << '\n';
    return 1;
}

int run_check(const ServeBenchConfig& config) {
    ThreadPool pool(config.threads);
    const auto params = trace_params(config, 0.5);
    const auto trace = serve::generate_trace(params);

    // 1. Cache hits are bit-identical to cold runs: serve every distinct
    //    request twice through a caching engine and compare the hit against
    //    an engine-free cold computation, byte for byte through the TSS
    //    serializer.
    {
        serve::ServeConfig cfg;
        serve::ServeEngine engine(cfg, pool);
        const auto scheduler = make_scheduler(config.algo);
        std::set<std::uint64_t> seen;
        for (const serve::TraceRequest& tr : trace) {
            auto request = serve::materialize(tr);
            if (!seen.insert(serve::fingerprint_request(request)).second) continue;
            const auto cold_text = to_tss(scheduler->schedule(*request.problem));
            const auto first = engine.serve(request);
            const auto second = engine.serve(request);
            if (!second.cache_hit) return fail("second serve of an identical request missed");
            if (first.schedule != second.schedule)
                return fail("cache hit returned a different object than the cold run");
            if (to_tss(*second.schedule) != cold_text)
                return fail("cached schedule is not bit-identical to the cold computation");
        }
        std::cout << "check: " << seen.size()
                  << " distinct requests: hits bit-identical to cold runs\n";
    }

    // 2. Cache-on serving equals cache-off serving, request for request.
    {
        std::vector<serve::ScheduleRequest> prepared;
        for (const serve::TraceRequest& tr : trace) prepared.push_back(serve::materialize(tr));
        serve::ServeConfig on;
        serve::ServeConfig off;
        off.enable_cache = false;
        serve::ServeEngine engine_on(on, pool);
        serve::ServeEngine engine_off(off, pool);
        const auto results_on = engine_on.run_batch(prepared);
        const auto results_off = engine_off.run_batch(prepared);
        for (std::size_t i = 0; i < prepared.size(); ++i) {
            if (to_tss(*results_on[i].schedule) != to_tss(*results_off[i].schedule))
                return fail("cache-on and cache-off disagree on request " + std::to_string(i));
        }
        std::cout << "check: cache-on == cache-off on all " << prepared.size() << " requests\n";
    }

    // 3. Concurrent identical requests coalesce onto one computation.
    {
        serve::ServeConfig cfg;
        serve::ServeEngine engine(cfg, pool);
        std::vector<serve::ScheduleRequest> burst(16, serve::materialize(trace.front()));
        const auto results = engine.run_batch(std::move(burst));
        const auto stats = engine.stats();
        if (stats.computed != 1)
            return fail("burst of 16 identical requests ran " + std::to_string(stats.computed) +
                        " computations (want 1)");
        for (const auto& r : results)
            if (!r.schedule) return fail("burst request came back without a schedule");
        if (stats.coalesced + stats.cache_hits != 15)
            return fail("burst accounting is off: " + std::to_string(stats.coalesced) +
                        " coalesced + " + std::to_string(stats.cache_hits) + " hits != 15");
        std::cout << "check: 16 concurrent identical requests -> 1 computation ("
                  << stats.coalesced << " coalesced, " << stats.cache_hits << " cache hits)\n";
    }

    // 4. A cache hit on a resubmitted problem is work-free: no content hash
    //    (Problem::content_fingerprint memoizes it; before that memo every
    //    hit re-hashed the whole problem) and no recomputation.  Counted,
    //    not timed, so a loaded machine cannot fail it.
    {
        std::vector<serve::ScheduleRequest> prepared;
        std::set<std::uint64_t> distinct;
        for (const serve::TraceRequest& tr : trace) {
            prepared.push_back(serve::materialize(tr));
            distinct.insert(serve::fingerprint_request(prepared.back()));
        }
        const trace::Counter& hashes = trace::registry().counter("problem_content_hashes");
        serve::ServeConfig cfg;
        serve::ServeEngine engine(cfg, pool);
        (void)engine.run_batch(prepared);
        const std::uint64_t hashes_before = hashes.value();
        const std::uint64_t hits_before = engine.stats().cache_hits;
        (void)engine.run_batch(prepared);
        const std::uint64_t rehashes = hashes.value() - hashes_before;
        const auto stats = engine.stats();
        std::cout << "check: resubmitted " << prepared.size() << " requests: "
                  << stats.cache_hits - hits_before << " cache hits, " << rehashes
                  << " content hashes; " << stats.computed << " computations for "
                  << distinct.size() << " distinct requests\n";
        if (rehashes != 0)
            return fail("resubmitted problems were re-hashed " + std::to_string(rehashes) +
                        " times (want 0)");
        if (stats.cache_hits - hits_before != prepared.size())
            return fail("a resubmitted request missed the cache");
        if (stats.computed != distinct.size())
            return fail(std::to_string(stats.computed) + " computations for " +
                        std::to_string(distinct.size()) + " distinct requests");
    }

    // The throughput view of the same stream, printed for the record:
    // cache-on vs cache-off QPS, median of kPairs interleaved (off, on)
    // replays.  One replay lasts a few milliseconds, so the ratio swings with
    // machine load, and it shrinks whenever cold answers get cheaper; the
    // throughput benchmark is perfbench's wire-hot workload, not this check.
    {
        serve::ReplayOptions on;
        on.epochs = 2;
        on.batch = 16;
        serve::ReplayOptions off = on;
        off.config.enable_cache = false;
        (void)serve::replay_trace(trace, off, pool);  // warm-up
        constexpr std::size_t kPairs = 5;
        struct Pair {
            serve::ReplayReport off;
            serve::ReplayReport on;
            double ratio = 0.0;
        };
        std::vector<Pair> pairs;
        for (std::size_t i = 0; i < kPairs; ++i) {
            Pair pair;
            pair.off = serve::replay_trace(trace, off, pool);
            pair.on = serve::replay_trace(trace, on, pool);
            pair.ratio = pair.off.qps > 0.0 ? pair.on.qps / pair.off.qps : 0.0;
            pairs.push_back(std::move(pair));
        }
        std::sort(pairs.begin(), pairs.end(),
                  [](const Pair& a, const Pair& b) { return a.ratio < b.ratio; });
        const Pair& median = pairs[kPairs / 2];
        std::cout.precision(1);
        std::cout << std::fixed;
        std::cout << "check: 50%-repeat stream, " << on.epochs << " epochs: cache-on "
                  << median.on.qps << " qps (hit rate "
                  << median.on.stats.hit_rate() * 100 << "%), cache-off "
                  << median.off.qps << " qps -> " << median.ratio << "x (median of " << kPairs
                  << " pairs; min " << pairs.front().ratio << "x, max " << pairs.back().ratio
                  << "x; not gated)\n";
        if (median.on.stats.hit_rate() < 0.70)
            return fail("steady-state hit rate below 70% on a 50%-repeat stream");
    }

    // 5. Histogram error bound on live data: push every replayed latency
    //    through an obs::LatencyHistogram and require each histogram
    //    percentile to sit within kMaxRelativeError of the exact
    //    nearest-rank percentile of the same multiset (both sides use the
    //    same rank rule, util/stats.hpp, so the comparison is exact-vs-
    //    approximate, never convention-vs-convention).
    {
        serve::ServeConfig cfg;
        serve::ServeEngine engine(cfg, pool);
        std::vector<serve::ScheduleRequest> prepared;
        for (const serve::TraceRequest& tr : trace) prepared.push_back(serve::materialize(tr));
        obs::LatencyHistogram hist;
        std::vector<double> latencies;
        for (std::size_t epoch = 0; epoch < 2; ++epoch) {
            for (const serve::ServeResult& r : engine.run_batch(prepared)) {
                latencies.push_back(r.latency_ms);
                hist.record(r.latency_ms);
            }
        }
        std::sort(latencies.begin(), latencies.end());
        const obs::HistogramSnapshot snap = hist.snapshot();
        if (snap.count != latencies.size())
            return fail("histogram count " + std::to_string(snap.count) + " != " +
                        std::to_string(latencies.size()) + " recorded latencies");
        if (snap.min != latencies.front() || snap.max != latencies.back())
            return fail("histogram min/max are not the exact extremes");
        const double tol = obs::LatencyHistogram::kMaxRelativeError;
        for (const double q : {0.50, 0.95, 0.99, 0.999}) {
            const double exact = quantile_nearest_rank(latencies, q);
            const double approx = snap.quantile(q);
            if (std::abs(approx - exact) > tol * exact) {
                std::ostringstream os;
                os.precision(9);
                os << "histogram q" << q << " = " << approx << " strays beyond "
                   << tol * 100 << "% of exact " << exact;
                return fail(os.str());
            }
        }
        std::cout << "check: histogram p50/p95/p99/p99.9 within "
                  << tol * 100 << "% of exact nearest-rank over "
                  << latencies.size() << " latencies\n";
    }

    // 6. Deterministic overload semantics: for each shed policy, the frozen-
    //    gate burst's outcome sequence matches the hand-derived expectation
    //    and is bit-identical across reruns and across pool widths (2 vs 8
    //    workers) — admission decides while nothing can complete, so the
    //    pool's interleaving must not leak into who gets shed.
    {
        const auto burst = unique_stream(config, 16);
        ThreadPool narrow(2);
        ThreadPool wide(8);
        for (const GateScenario& sc : gate_scenarios()) {
            const std::vector<serve::ScheduleRequest> requests(burst.begin(),
                                                               burst.begin() + static_cast<std::ptrdiff_t>(sc.requests));
            const auto first = run_gate_burst(narrow, requests, sc.policy, sc.max_inflight,
                                              sc.max_pending);
            const auto rerun = run_gate_burst(narrow, requests, sc.policy, sc.max_inflight,
                                              sc.max_pending);
            const auto cross = run_gate_burst(wide, requests, sc.policy, sc.max_inflight,
                                              sc.max_pending);
            if (first.sequence != sc.expect)
                return fail(std::string(sc.name) + " burst produced [" + first.sequence +
                            "], expected [" + sc.expect + "]");
            if (rerun.sequence != first.sequence)
                return fail(std::string(sc.name) + " burst is not rerun-deterministic");
            if (cross.sequence != first.sequence)
                return fail(std::string(sc.name) +
                            " burst outcome sequence changed with the pool width");
            if (outcome_sum(first.stats) != first.stats.requests)
                return fail(std::string(sc.name) + " burst accounting is off: outcome sum " +
                            std::to_string(outcome_sum(first.stats)) + " != " +
                            std::to_string(first.stats.requests) + " requests");
            if (first.stats.admission.inflight_peak > sc.max_inflight)
                return fail(std::string(sc.name) + " burst exceeded the inflight budget: peak " +
                            std::to_string(first.stats.admission.inflight_peak));
        }
        std::cout << "check: overload outcome sequences bit-identical across reruns and "
                     "pool widths (reject-new, drop-oldest, degrade)\n";
    }

    // 7. Outcome accounting balances under a deterministic fault storm.
    //    Faults are fp-keyed (serve/chaos.hpp rule 1), so exactly the
    //    requests whose fingerprint is cursed with a scheduler throw or a
    //    pool-handoff failure must fail — whether they computed, retried, or
    //    coalesced onto the cursed computation — and everything else is ok.
    {
        auto chaos = std::make_shared<serve::DeterministicChaos>(storm_options(config.seed));
        serve::ServeConfig cfg;
        cfg.chaos = chaos;
        serve::ServeEngine engine(cfg, pool);
        std::vector<serve::ScheduleRequest> prepared;
        for (const serve::TraceRequest& tr : trace) prepared.push_back(serve::materialize(tr));
        std::size_t expect_failed = 0;
        for (const serve::ScheduleRequest& request : prepared) {
            const auto fp = serve::fingerprint_request(request);
            if (chaos->will_fail_submit(fp) || chaos->will_throw(fp)) ++expect_failed;
        }
        std::size_t failed = 0;
        std::size_t served = 0;
        std::vector<std::future<serve::ServeResult>> futures;
        for (const serve::ScheduleRequest& request : prepared) {
            try {
                futures.push_back(engine.submit(request));
            } catch (const std::exception&) {
                ++failed;  // submit-time pool failure; the future never left submit()
            }
        }
        for (auto& future : futures) {
            try {
                (void)future.get();
                ++served;
            } catch (const std::exception&) {
                ++failed;
            }
        }
        const auto stats = engine.stats();
        if (failed != expect_failed)
            return fail("fault storm failed " + std::to_string(failed) + " requests, fp-keyed "
                        "prediction says " + std::to_string(expect_failed));
        if (stats.requests != prepared.size())
            return fail("fault storm request accounting is off");
        if (outcome_sum(stats) != stats.requests)
            return fail("fault storm outcome sum " + std::to_string(outcome_sum(stats)) +
                        " != " + std::to_string(stats.requests) + " requests");
        std::cout << "check: fault storm over " << prepared.size() << " requests: " << served
                  << " ok, " << failed << " failed (= fp-keyed prediction); "
                     "ok+shed+degraded+timed_out+draining+failed == requests\n";
    }

    std::cout << "check: OK\n";
    return 0;
}

// ---------------------------------------------------------------------------
// --chaos: the deterministic chaos battery.  Every line this prints is a
// pure function of (algo, n, P, seed, requests) — no timings, no thread
// counts — so tools/serve_chaos_smoke.sh can run it twice (and at different
// --threads) and byte-compare the output.

int chaos_fail(const std::string& what) {
    std::cout << "chaos: FAIL — " << what << '\n';
    return 1;
}

int run_chaos(const ServeBenchConfig& config) {
    std::cout << "== serve chaos battery (" << config.algo << ", n=" << config.n << ", P="
              << config.procs << ", seed=" << config.seed << ", " << config.requests
              << " storm requests) ==\n";
    ThreadPool pool(config.threads);

    // 1. Burst freeze per shed policy: the frozen-gate outcome sequences.
    {
        const auto burst = unique_stream(config, 16);
        for (const GateScenario& sc : gate_scenarios()) {
            const std::vector<serve::ScheduleRequest> requests(burst.begin(),
                                                               burst.begin() + static_cast<std::ptrdiff_t>(sc.requests));
            const auto result = run_gate_burst(pool, requests, sc.policy, sc.max_inflight,
                                               sc.max_pending);
            if (result.sequence != sc.expect)
                return chaos_fail(std::string(sc.name) + " burst produced [" + result.sequence +
                                  "], expected [" + sc.expect + "]");
            if (outcome_sum(result.stats) != result.stats.requests)
                return chaos_fail(std::string(sc.name) + " burst accounting is off");
            if (result.stats.admission.inflight_peak > sc.max_inflight)
                return chaos_fail(std::string(sc.name) + " burst exceeded the inflight budget");
            std::cout << "chaos: burst freeze [" << sc.name << " inflight=" << sc.max_inflight
                      << " pending=" << sc.max_pending << "] ok=" << result.stats.ok
                      << " shed=" << result.stats.shed << " degraded=" << result.stats.degraded
                      << " sequence: " << result.sequence << '\n';
        }
    }

    // 2. Deadline-expiry cascade: a 1 ns budget is blown before any dequeue,
    //    so nothing ever starts — the runners skip at dequeue and the
    //    promotion loop flushes the queue, all as timed_out with no schedule.
    {
        auto requests = unique_stream(config, 8);
        for (serve::ScheduleRequest& request : requests) request.deadline_ms = 1e-9;
        serve::ServeConfig cfg;
        cfg.max_inflight = 2;
        cfg.max_pending = 6;
        serve::ServeEngine engine(cfg, pool);
        std::vector<std::future<serve::ServeResult>> futures;
        for (const serve::ScheduleRequest& request : requests)
            futures.push_back(engine.submit(request));
        std::size_t timed_out = 0;
        std::size_t with_schedule = 0;
        for (auto& future : futures) {
            const auto result = future.get();
            if (result.outcome == serve::ServeOutcome::kTimedOut) ++timed_out;
            if (result.schedule) ++with_schedule;
        }
        if (timed_out != requests.size())
            return chaos_fail("deadline cascade: " + std::to_string(timed_out) + "/" +
                              std::to_string(requests.size()) + " timed out");
        if (with_schedule != 0)
            return chaos_fail("deadline cascade: expired work still produced a schedule");
        const auto stats = engine.stats();
        if (outcome_sum(stats) != stats.requests)
            return chaos_fail("deadline cascade accounting is off");
        std::cout << "chaos: deadline cascade [inflight=2 pending=6 deadline=1ns] timed_out="
                  << timed_out << " with_schedule=" << with_schedule << '\n';
    }

    // 3. Fault storm over distinct fingerprints: every injection count is
    //    predictable from the fp-keyed predicates (a submit-cursed request
    //    never reaches compute, so its stall/throw curses never fire).
    {
        auto chaos = std::make_shared<serve::DeterministicChaos>(storm_options(config.seed));
        const auto requests = unique_stream(config, config.requests);
        std::uint64_t expect_stalls = 0;
        std::uint64_t expect_throws = 0;
        std::uint64_t expect_submit_failures = 0;
        for (const serve::ScheduleRequest& request : requests) {
            const auto fp = serve::fingerprint_request(request);
            if (chaos->will_fail_submit(fp)) {
                ++expect_submit_failures;
                continue;
            }
            if (chaos->will_stall(fp)) ++expect_stalls;
            if (chaos->will_throw(fp)) ++expect_throws;
        }
        serve::ServeConfig cfg;
        cfg.chaos = chaos;
        serve::ServeEngine engine(cfg, pool);
        std::size_t failed = 0;
        std::size_t served = 0;
        std::vector<std::future<serve::ServeResult>> futures;
        for (const serve::ScheduleRequest& request : requests) {
            try {
                futures.push_back(engine.submit(request));
            } catch (const std::exception&) {
                ++failed;
            }
        }
        for (auto& future : futures) {
            try {
                (void)future.get();
                ++served;
            } catch (const std::exception&) {
                ++failed;
            }
        }
        const auto stats = engine.stats();
        const auto injected = chaos->stats();
        if (failed != expect_throws + expect_submit_failures)
            return chaos_fail("fault storm failed " + std::to_string(failed) +
                              " requests, expected " +
                              std::to_string(expect_throws + expect_submit_failures));
        if (injected.stalls != expect_stalls || injected.throws != expect_throws ||
            injected.submit_failures != expect_submit_failures)
            return chaos_fail("injection counters drifted from the fp-keyed prediction");
        if (outcome_sum(stats) != stats.requests)
            return chaos_fail("fault storm accounting is off");
        std::cout << "chaos: fault storm [stall=0.20 throw=0.25 submit-fail=0.15] ok=" << served
                  << " failed=" << failed << " stalls=" << injected.stalls
                  << " throws=" << injected.throws
                  << " submit_failures=" << injected.submit_failures << '\n';
    }

    // 4. Drain under fire: two computations parked at the gate, two queued,
    //    four shed; drain(50 ms) flushes the queue as draining, times out on
    //    the parked pair, and expropriates their waiters — no future leaks.
    //    A submit after drain() resolves draining immediately.
    {
        auto chaos = std::make_shared<serve::DeterministicChaos>(
            serve::ChaosOptions{.gate_stalls = true, .gate_all = true});
        const auto requests = unique_stream(config, 9);
        serve::ServeConfig cfg;
        cfg.max_inflight = 2;
        cfg.max_pending = 2;
        cfg.chaos = chaos;
        serve::ServeEngine engine(cfg, pool);
        std::vector<std::future<serve::ServeResult>> futures;
        for (std::size_t i = 0; i < 8; ++i) futures.push_back(engine.submit(requests[i]));
        const auto report = engine.drain(50.0);
        futures.push_back(engine.submit(requests[8]));  // admission is closed
        std::size_t shed = 0;
        std::size_t draining = 0;
        for (auto& future : futures) {
            switch (future.get().outcome) {
                case serve::ServeOutcome::kShed: ++shed; break;
                case serve::ServeOutcome::kDraining: ++draining; break;
                default: return chaos_fail("drain under fire resolved an unexpected outcome");
            }
        }
        chaos->release_stalls();  // let the parked closures exit before ~ServeEngine
        if (report.clean || report.flushed_pending != 2 || report.forced_waiters != 2)
            return chaos_fail("drain report off: clean=" + std::string(report.clean ? "yes" : "no") +
                              " flushed_pending=" + std::to_string(report.flushed_pending) +
                              " forced_waiters=" + std::to_string(report.forced_waiters));
        if (shed != 4 || draining != 5)
            return chaos_fail("drain outcomes off: shed=" + std::to_string(shed) +
                              " draining=" + std::to_string(draining));
        std::cout << "chaos: drain under fire [inflight=2 pending=2 timeout=50ms] clean=no "
                     "flushed_pending=2 forced_waiters=2 shed=4 draining=5\n";
    }

    std::cout << "chaos: OK\n";
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    Args args(argc, argv);
    try {
        args.check_known({"requests", "n", "procs", "algo", "threads", "epochs", "batches",
                          "capacities", "repeat-fracs", "seed", "csv", "metrics-out", "check",
                          "chaos", "net", "net-check", "conns", "window", "json", "help",
                          "version"});
    } catch (const std::exception& e) {
        std::cerr << "bench_serve: " << e.what() << '\n';
        return 2;
    }
    if (args.has("version")) {
        std::cout << "bench_serve 1.0.0\n";
        return 0;
    }
    if (args.has("help")) {
        std::cout << "usage: bench_serve [--check] [--chaos] [--net] [--net-check]\n"
                     "                   [--requests=N] [--n=N] [--procs=P]\n"
                     "                   [--algo=NAME] [--threads=T] [--epochs=E]\n"
                     "                   [--batches=a,b] [--capacities=a,b]\n"
                     "                   [--repeat-fracs=a,b] [--conns=a,b] [--window=W]\n"
                     "                   [--seed=S] [--csv=PATH] [--json=PATH]\n"
                     "                   [--metrics-out=PATH]\n";
        return 0;
    }

    ServeBenchConfig config;
    config.requests = static_cast<std::size_t>(args.get_int("requests", 64));
    config.n = static_cast<std::size_t>(args.get_int("n", 150));
    config.procs = static_cast<std::size_t>(args.get_int("procs", 8));
    config.algo = args.get_string("algo", "ils-d");
    config.threads = static_cast<std::size_t>(args.get_int("threads", 0));
    config.epochs = static_cast<std::size_t>(args.get_int("epochs", 2));
    config.seed = static_cast<std::uint64_t>(args.get_int("seed", 2007));
    config.csv_path = args.get_string("csv", "");
    config.metrics_path = args.get_string("metrics-out", "");
    config.batches.clear();
    for (const auto b : args.get_int_list("batches", {1, 8, 32}))
        config.batches.push_back(static_cast<std::size_t>(b));
    config.capacities.clear();
    for (const auto c : args.get_int_list("capacities", {8, 1024}))
        config.capacities.push_back(static_cast<std::size_t>(c));
    config.repeat_fracs = args.get_double_list("repeat-fracs", {0.0, 0.5, 0.9});
    config.conns.clear();
    for (const auto c : args.get_int_list("conns", {1, 4, 8}))
        config.conns.push_back(static_cast<std::size_t>(c));
    config.window = static_cast<std::size_t>(args.get_int("window", 16));
    config.json_path = args.get_string("json", "");

    try {
        if (args.has("check")) return run_check(config);
        if (args.has("chaos")) return run_chaos(config);
        if (args.has("net-check")) return run_net_check(config);
        if (args.has("net")) return run_net_sweep(config);
        return run_sweep(config);
    } catch (const std::exception& e) {
        std::cerr << "bench_serve: " << e.what() << '\n';
        return 2;
    }
}
