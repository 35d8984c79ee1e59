// wire-cold / wire-hot: an in-process net::ServeServer on loopback, driven
// open-loop by one generator thread over three connections.  Thread budget:
// generator (this thread) + reactor + 2 pool workers = 4; generator +
// connections = 4.
//
//   wire-cold  every request is unique (ils-d, n = 100, with 5% at n = 1000),
//              so the cache never hits and the run overflows its capacity;
//              the thread pool is the bottleneck.
//   wire-hot   heft at n = 100; 95% of requests repeat a 256-entry working
//              set filled during set-up, 5% are fresh; the single reactor
//              thread is the bottleneck.
//
// Run shape (S = --seconds): set-up (pool + server start, connections,
// cache warm-up) is repeated nine times and setup_s is the median; a 0.1 S
// warm-up step at the reference rate absorbs start-up slowness; a 0.45 S
// reference step at that rate gives the client latencies and tasks_per_s,
// the answered tasks per CPU-second of the server's threads (a traced run
// splits the step into an untraced and a traced half); and a bisection over
// a fixed geometric rate ladder, 0.06 S per probe, finds slo_qps.  After
// the server stops, a sample of the distinct requests is recomputed
// in-process (materialize + Scheduler::schedule) and must reproduce the
// wire fingerprints and payload bytes; the sample is also linted and
// replayed in the event simulator.
#include <sched.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/schedule_lints.hpp"
#include "core/registry.hpp"
#include "loadgen.hpp"
#include "metrics/metrics.hpp"
#include "net/codec.hpp"
#include "net/frame.hpp"
#include "net/server.hpp"
#include "sched/ranks.hpp"
#include "serve/request.hpp"
#include "trace/counters.hpp"
#include "util/fingerprint.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace net = tsched::net;
namespace serve = tsched::serve;

namespace {

constexpr std::size_t kPoolWorkers = 2;
constexpr std::size_t kConnections = 3;
constexpr int kSetupRepeats = 9;
constexpr std::size_t kOracleSample = 400;  ///< distinct requests recomputed in-process
constexpr std::size_t kReplayRequests = 400;  ///< reactor-path replay length
constexpr int kLadderProbes = 5;  ///< bisection over 2^5 rungs
constexpr double kDrainSeconds = 30.0;
/// A ladder probe above capacity leaves a backlog; past this drain time its
/// remaining requests count as unanswered and the connections are reopened.
constexpr double kProbeDrainSeconds = 1.0;

struct Spec {
    const char* name;
    double limit_ms;  ///< p99 latency limit for slo_qps
    double ref_rate;  ///< reference rate (req/s), also rung 0 of the ladder
};

/// Rung k of the slo_qps ladder is ref_rate * kLadderRatio^k, k < 2^kLadderProbes:
/// up to 1.06^31 = 6.1 times the reference rate.
constexpr double kLadderRatio = 1.06;

// Both limits sit well above the few-millisecond scheduling stalls a virtual
// machine adds, so slo_qps tracks where the backlog starts to grow.  The
// reference rates are about a quarter of that knee.
constexpr Spec kCold{"wire-cold", 50.0, 400.0};
constexpr Spec kHot{"wire-hot", 50.0, 2000.0};

/// Seeded request stream (see file header for the two mixes).
class Stream {
public:
    Stream(bool hot, std::uint64_t seed) : hot_(hot), state_(mix(seed)), base_(mix(seed + 1)) {
        if (hot_)
            for (std::size_t i = 0; i < kWorkingSet; ++i) working_set_.push_back(fresh());
    }

    serve::TraceRequest next() {
        if (hot_) {
            if (uniform01(state_) < kRepeatShare) {
                const auto k = static_cast<std::size_t>(uniform01(state_) * kWorkingSet);
                return working_set_[std::min(k, kWorkingSet - 1)];
            }
            return fresh();
        }
        serve::TraceRequest r = fresh();
        if (uniform01(state_) < kLargeShare) r.size = 1000;
        return r;
    }

    /// Poisson arrivals at `rate` for `seconds`.
    std::vector<Arrival> arrivals(double rate, double seconds) {
        std::vector<Arrival> out;
        double t = 0.0;
        for (;;) {
            t += -std::log1p(-uniform01(state_)) / rate;
            if (t >= seconds) break;
            out.push_back({static_cast<std::int64_t>(t * 1e9), next()});
        }
        return out;
    }

    /// `requests` evenly spaced at `rate` (cache warm-up).
    static std::vector<Arrival> paced(const std::vector<serve::TraceRequest>& requests,
                                      double rate) {
        std::vector<Arrival> out;
        for (std::size_t i = 0; i < requests.size(); ++i)
            out.push_back({static_cast<std::int64_t>(static_cast<double>(i) / rate * 1e9),
                           requests[i]});
        return out;
    }

    [[nodiscard]] const std::vector<serve::TraceRequest>& working_set() const noexcept {
        return working_set_;
    }

private:
    static constexpr std::size_t kWorkingSet = 256;
    static constexpr double kRepeatShare = 0.95;
    static constexpr double kLargeShare = 0.05;

    /// A request no earlier one equals: a fresh descriptor seed.
    serve::TraceRequest fresh() {
        serve::TraceRequest r;
        r.algo = hot_ ? "heft" : "ils-d";
        r.size = 100;
        r.procs = 8;
        r.seed = mix(base_ + counter_++);
        return r;
    }

    bool hot_;
    std::uint64_t state_;
    std::uint64_t base_;
    std::uint64_t counter_ = 0;
    std::vector<serve::TraceRequest> working_set_;
};

/// Pool + server + connected generator, torn down in reverse order.
struct Rig {
    std::unique_ptr<tsched::ThreadPool> pool;
    std::unique_ptr<net::ServeServer> server;
    std::unique_ptr<LoadGen> gen;

    ~Rig() {
        gen.reset();
        if (server) server->stop();
        server.reset();
        pool.reset();
    }
};

/// Pin the calling thread to `cpus`; false when the process was not started
/// with all of them available (fewer CPUs than the thread budget), in which
/// case nothing moves.
bool pin_to(const std::vector<int>& cpus) {
    static const cpu_set_t allowed = [] {
        cpu_set_t set;
        CPU_ZERO(&set);
        if (sched_getaffinity(0, sizeof set, &set) != 0) CPU_ZERO(&set);
        return set;
    }();
    cpu_set_t set;
    CPU_ZERO(&set);
    for (int cpu : cpus) {
        if (!CPU_ISSET(cpu, &allowed)) return false;
        CPU_SET(cpu, &set);
    }
    return sched_setaffinity(0, sizeof set, &set) == 0;
}

/// CPU time of every thread of this process except the caller: on the wire
/// workloads, the server's reactor and pool threads.
double server_cpu_s() {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9 -
           thread_cpu_s();
}

std::unique_ptr<Rig> start_rig(bool hot, Stream& stream, double rate) {
    auto rig = std::make_unique<Rig>();
    // Every busy thread gets a CPU of its own.  Threads inherit the
    // affinity of the thread that starts them: the pool workers share CPUs
    // 2-3, the reactor gets CPU 1, and the spinning generator (this thread)
    // then moves to CPU 0, so a woken server thread never queues behind it
    // or behind each other.  On a machine with fewer CPUs nothing is pinned.
    const bool pinned = pin_to({2, 3});
    rig->pool = std::make_unique<tsched::ThreadPool>(kPoolWorkers);
    net::ServerConfig config;
    config.port = 0;
    rig->server = std::make_unique<net::ServeServer>(config, *rig->pool);
    if (pinned) pin_to({1});
    rig->server->start();
    if (pinned) pin_to({0});
    rig->gen = std::make_unique<LoadGen>(rig->server->port(), kConnections);
    // Hot: fill the working set.  Cold: a few fresh requests so connections
    // and code paths are warm.  Sent at the reference rate: a burst would
    // make set-up time depend on the reactor's burst handling (see
    // perfbench/README.md, "Findings").
    std::vector<serve::TraceRequest> warm = stream.working_set();
    if (!hot)
        for (int i = 0; i < 32; ++i) warm.push_back(stream.next());
    const StepResult step = rig->gen->run(Stream::paced(warm, rate), rate, kDrainSeconds);
    if (step.ok != warm.size()) throw std::runtime_error("wire: warm-up requests failed");
    return rig;
}

bool step_passes(const StepResult& step, const Spec& spec) {
    const double p99 = quantile(step.latency_ms, 0.99);
    // Little's law: a step whose p99 meets the limit keeps fewer than
    // rate x limit requests in flight; more at the end of the send window
    // means the backlog was growing.
    const double backlog_cap = step.rate * spec.limit_ms / 1e3;
    return step.not_ok() == 0 && p99 <= spec.limit_ms &&
           static_cast<double>(step.backlog_end) <= backlog_cap;
}

struct Tally {
    std::uint64_t sent = 0;
    std::uint64_t not_ok = 0;
    bool accounting_ok = true;
    void add(const StepResult& step) {
        sent += step.sent;
        not_ok += step.not_ok();
        accounting_ok = accounting_ok && step.accounting_ok();
    }
};

/// Per-layer numbers read from the program's own telemetry over one step.
struct ServerDelta {
    tsched::obs::MetricsSnapshot engine;
    net::NetServerStats before;
    net::NetServerStats after;
};

double hist_p(const tsched::obs::MetricsSnapshot& snapshot, const char* name, double q) {
    return obs_histogram(snapshot, name).quantile(q);
}

struct ReplayTimes {
    double decode_us = 0.0;
    double materialize_us = 0.0;
    double fingerprint_us = 0.0;
    double encode_us = 0.0;
};

/// Out-of-band, single-thread replay of `requests` through the public
/// functions the reactor calls for each request: frame decode + request
/// decode, materialize, fingerprint, and response build + encode + frame.
ReplayTimes replay_reactor_path(const std::vector<serve::TraceRequest>& requests) {
    std::vector<double> decode, materialize, fingerprint, encode;
    std::unordered_map<std::uint64_t, std::shared_ptr<const tsched::Schedule>> computed;
    std::map<std::string, tsched::SchedulerPtr> schedulers;
    std::uint64_t id = 0;
    for (const serve::TraceRequest& trace : requests) {
        net::WireRequest wire;
        wire.id = ++id;
        wire.trace = trace;
        const std::string bytes =
            net::encode_frame(net::FrameType::kRequest, net::encode_request(wire));

        auto t = Clock::now();
        net::FrameDecoder decoder;
        decoder.feed(bytes);
        const auto frame = decoder.next();
        if (!frame) throw std::runtime_error("replay: request frame did not decode");
        const net::WireRequest decoded = net::decode_request(frame->payload);
        decode.push_back(ms_since(t) * 1e3);

        t = Clock::now();
        const serve::ScheduleRequest request = serve::materialize(decoded.trace);
        materialize.push_back(ms_since(t) * 1e3);

        t = Clock::now();
        const std::uint64_t fp = serve::fingerprint_request(request);
        fingerprint.push_back(ms_since(t) * 1e3);

        auto& schedule = computed[fp];
        if (!schedule) {
            auto& scheduler = schedulers[request.algo];
            if (!scheduler) scheduler = tsched::make_scheduler(request.algo);
            schedule = std::make_shared<const tsched::Schedule>(scheduler->schedule(*request.problem));
        }
        serve::ServeResult result;
        result.schedule = schedule;
        result.fingerprint = fp;

        t = Clock::now();
        const std::string out = net::encode_frame(
            net::FrameType::kResponse, net::encode_response(net::make_response(decoded.id, result)));
        encode.push_back(ms_since(t) * 1e3);
        if (out.size() <= net::kFrameHeaderBytes) throw std::runtime_error("replay: empty frame");
    }
    return {median(decode), median(materialize), median(fingerprint), median(encode)};
}

struct OracleReport {
    std::size_t checked = 0;
    std::size_t mismatches = 0;
    std::uint64_t wire_digest = 0;
    std::uint64_t local_digest = 0;
    std::uint64_t lint_errors = 0;
    std::uint64_t sim_mismatches = 0;  ///< replay makespan != planned makespan
    std::uint64_t sim_failures = 0;    ///< check_simulation() rule broken
    std::vector<double> slr;
    std::vector<double> instance_ms;
    std::vector<double> upward_rank_ms;
    std::vector<double> schedule_ms;
    std::uint64_t tasks = 0;
    tsched::trace::Snapshot counters;  ///< registry delta over the scheduler calls
};

/// Recompute a deterministic sample of the distinct wire answers in-process.
OracleReport run_oracle(const std::unordered_map<std::uint64_t, SeenPayload>& seen) {
    OracleReport report;
    std::vector<std::uint64_t> fps;
    fps.reserve(seen.size());
    for (const auto& [fp, payload] : seen) fps.push_back(fp);
    std::sort(fps.begin(), fps.end());
    const std::size_t stride = std::max<std::size_t>(1, (fps.size() + kOracleSample - 1) / kOracleSample);
    std::map<std::string, tsched::SchedulerPtr> schedulers;
    const auto before = tsched::trace::registry().snapshot();
    for (std::size_t i = 0; i < fps.size(); i += stride) {
        const SeenPayload& wire = seen.at(fps[i]);
        auto t = Clock::now();
        const serve::ScheduleRequest request = serve::materialize(wire.request);
        report.instance_ms.push_back(ms_since(t));
        const tsched::Problem& problem = *request.problem;

        t = Clock::now();
        const auto rank = tsched::upward_rank(problem);
        report.upward_rank_ms.push_back(ms_since(t));

        auto& scheduler = schedulers[request.algo];
        if (!scheduler) scheduler = tsched::make_scheduler(request.algo);
        t = Clock::now();
        auto schedule = std::make_shared<const tsched::Schedule>(scheduler->schedule(problem));
        report.schedule_ms.push_back(ms_since(t));
        report.tasks += problem.num_tasks();

        const std::uint64_t fp = serve::fingerprint_request(request);
        serve::ServeResult result;
        result.schedule = schedule;
        result.fingerprint = fp;
        tsched::Fnv1a hasher;
        hasher.u64(fp);
        hasher.str(net::make_response(0, result).schedule_bytes);
        report.local_digest ^= hasher.value();
        report.wire_digest ^= wire.hash;
        if (fp != fps[i] || hasher.value() != wire.hash || rank.size() != problem.num_tasks())
            ++report.mismatches;

        tsched::analysis::Diagnostics diags;
        tsched::analysis::ScheduleLintOptions lint;
        lint.quality = false;
        tsched::analysis::lint_schedule(*schedule, problem, diags, lint);
        report.lint_errors += diags.error_count();
        const SimCheck sim = check_simulation(*schedule, problem);
        if (!sim.exact) ++report.sim_mismatches;
        if (!sim.ok) ++report.sim_failures;
        report.slr.push_back(tsched::slr(*schedule, problem));
        ++report.checked;
    }
    report.counters =
        tsched::trace::snapshot_delta(before, tsched::trace::registry().snapshot());
    return report;
}

std::string step_line(const char* label, const StepResult& step, bool passed) {
    char line[256];
    std::snprintf(line, sizeof line,
                  "  %-9s rate %8.1f req/s  sent %6llu  p50 %8.3f ms  p99 %8.3f ms  backlog_end "
                  "%4llu  lag_p99 %6.3f ms  %s",
                  label, step.rate, static_cast<unsigned long long>(step.sent),
                  quantile(step.latency_ms, 0.50), quantile(step.latency_ms, 0.99),
                  static_cast<unsigned long long>(step.backlog_end), quantile(step.lag_ms, 0.99),
                  passed ? "pass" : "miss");
    return line;
}

}  // namespace

Result run_wire(const Options& options, bool hot) {
    Result result;
    const Spec& spec = hot ? kHot : kCold;
    const double warm_s = 0.1 * options.seconds;
    const double ref_s = 0.45 * options.seconds;
    const double probe_s = 0.06 * options.seconds;

    // --- set-up, repeated; the last rig serves the run.
    Stream stream(hot, options.seed);
    std::vector<double> setup_s;
    std::unique_ptr<Rig> rig;
    for (int r = 0; r < kSetupRepeats; ++r) {
        rig.reset();
        const auto start = Clock::now();
        rig = start_rig(hot, stream, spec.ref_rate);
        setup_s.push_back(seconds_since(start));
    }
    char header[160];
    std::snprintf(header, sizeof header, "%s: p99 limit %.0f ms, reference rate %.0f req/s",
                  spec.name, spec.limit_ms, spec.ref_rate);
    result.note(header);
    net::ServeServer& server = *rig->server;
    LoadGen& gen = *rig->gen;
    Tally tally;  // the fixed-rate steps: attempted, failed and ok_share count these

    // --- warm-up step at the reference rate (reported, not measured).
    const StepResult warm = gen.run(stream.arrivals(spec.ref_rate, warm_s), spec.ref_rate,
                                    kDrainSeconds);
    tally.add(warm);
    result.note(step_line("warm-up", warm, step_passes(warm, spec)));

    // --- reference step (split into an untraced and a traced half when
    // tracing; the end-to-end run is untraced throughout).
    StepResult reference;
    StepResult traced;
    ServerDelta delta;
    std::size_t pool_queue_max = 0;
    std::vector<serve::TraceRequest> replay_stream;
    double reference_cpu_s = 0.0;
    if (!options.trace) {
        const double cpu_before = server_cpu_s();
        reference = gen.run(stream.arrivals(spec.ref_rate, ref_s), spec.ref_rate, kDrainSeconds);
        reference_cpu_s = server_cpu_s() - cpu_before;
        tally.add(reference);
        char line[160];
        std::snprintf(line, sizeof line,
                      "  reference: %llu tasks answered ok with %.3f s of server CPU",
                      static_cast<unsigned long long>(reference.tasks_ok), reference_cpu_s);
        result.note(line);
    } else {
        reference =
            gen.run(stream.arrivals(spec.ref_rate, ref_s / 2), spec.ref_rate, kDrainSeconds);
        tally.add(reference);
        const auto arrivals = stream.arrivals(spec.ref_rate, ref_s / 2);
        for (std::size_t i = 0; i < arrivals.size() && i < kReplayRequests; ++i)
            replay_stream.push_back(arrivals[i].request);
        const auto engine_before = server.engine_metrics();
        delta.before = server.stats();
        tsched::ThreadPool& pool = *rig->pool;
        traced = gen.run(arrivals, spec.ref_rate, kDrainSeconds, [&pool, &pool_queue_max] {
            pool_queue_max = std::max(pool_queue_max, pool.metrics().queue_depth);
        });
        delta.after = server.stats();
        delta.engine = tsched::obs::snapshot_delta(engine_before, server.engine_metrics());
        tally.add(traced);
    }
    // Memory at the fixed operating point; the overloaded ladder probes
    // below would make the peak depend on how far each one overshoots.
    const double rss_mb = peak_rss_mb();

    // Generator lag is host noise, not a wrong output: latencies already count
    // it (they start at the intended send time) and the bounded metrics do not
    // depend on it, so a lagging generator is reported, never a failure.
    const double lag_limit_ms = spec.limit_ms / 4;
    if (quantile(reference.lag_ms, 0.99) > lag_limit_ms)
        result.note("  note: generator lag p99 " + std::to_string(quantile(reference.lag_ms, 0.99)) +
                    " ms over " + std::to_string(lag_limit_ms) +
                    " ms; client latencies include the host's stalls");
    result.note(step_line("reference", reference, step_passes(reference, spec)));
    if (options.trace) result.note(step_line("traced", traced, step_passes(traced, spec)));

    // --- slo_qps: bisection over the fixed ladder.  lo / hi are the highest
    // passing and lowest failing rung known so far (-1 / size are virtual).
    // A rung fails only when two probes in a row miss, so one stall of the
    // host cannot send the search down the ladder.  If even rung 0 fails,
    // slo_qps reads half of rung 0.
    const int rungs = 1 << kLadderProbes;
    int lo = -1;
    int hi = rungs;
    Tally ladder;  // probes above capacity are expected to fail
    while (hi - lo > 1) {
        const int mid = lo + (hi - lo) / 2;
        const double rate = spec.ref_rate * std::pow(kLadderRatio, mid);
        bool passed = false;
        for (int attempt = 0; attempt < 2 && !passed; ++attempt) {
            const StepResult probe =
                gen.run(stream.arrivals(rate, probe_s), rate, kProbeDrainSeconds);
            ladder.add(probe);
            passed = step_passes(probe, spec);
            result.note(step_line(("rung " + std::to_string(mid)).c_str(), probe, passed));
        }
        (passed ? lo : hi) = mid;
    }
    const double slo_qps =
        lo >= 0 ? spec.ref_rate * std::pow(kLadderRatio, lo) : spec.ref_rate / 2;
    char knee[120];
    std::snprintf(knee, sizeof knee, "  slo_qps %.1f req/s (rung %d)", slo_qps, lo);
    result.note(knee);

    // --- stop everything, then check the server-side accounting: once
    // stop() returns the loop thread has joined and the engine has drained,
    // so every counter is final.  Requests of an aborted probe may never
    // have been read by the server, so after an abort only `<=` holds.
    const std::uint64_t total_sent = gen.total_sent();
    const bool aborted = gen.aborted_steps() > 0;
    if (!gen.payload_consistent())
        result.problem("wire: equal fingerprints carried different schedule payloads");
    const auto seen = gen.seen();
    rig->gen.reset();
    server.stop();
    const net::NetServerStats net_stats = server.stats();
    const serve::EngineStats engine = server.engine_stats();
    rig.reset();
    if (!tally.accounting_ok || !ladder.accounting_ok)
        result.problem("wire: a step's replies do not add up to its sends");
    const bool counts_ok = aborted ? net_stats.responses <= net_stats.requests &&
                                         net_stats.requests <= total_sent
                                   : net_stats.responses == total_sent &&
                                         net_stats.requests == total_sent;
    if (!counts_ok)
        result.problem("wire: server saw " + std::to_string(net_stats.requests) +
                       " requests / sent " + std::to_string(net_stats.responses) +
                       " responses for " + std::to_string(total_sent) + " client sends");
    if (engine.ok + engine.shed + engine.degraded + engine.timed_out + engine.draining +
            engine.failed != engine.requests)
        result.problem("wire: engine outcome accounting does not add up");

    // --- in-process oracle over a sample of the distinct answers.
    const OracleReport oracle = run_oracle(seen);
    if (oracle.mismatches > 0 || oracle.wire_digest != oracle.local_digest)
        result.problem("wire: " + std::to_string(oracle.mismatches) + " of " +
                       std::to_string(oracle.checked) +
                       " sampled answers differ from in-process Scheduler::schedule()");
    if (oracle.lint_errors > 0 || oracle.sim_failures > 0)
        result.problem("wire: sampled schedules fail the oracles: " +
                       std::to_string(oracle.lint_errors) + " lint errors, " +
                       std::to_string(oracle.sim_failures) + " simulator replay mismatches");
    char line[200];
    std::snprintf(line, sizeof line,
                  "  oracle: %zu of %zu distinct answers recomputed in-process, digest %016llx",
                  oracle.checked, seen.size(), static_cast<unsigned long long>(oracle.local_digest));
    result.note(line);

    result.attempted = tally.sent;
    result.failed = tally.not_ok;
    double slr_sum = 0.0;
    for (double s : oracle.slr) slr_sum += s;
    const double mean_slr = slr_sum / static_cast<double>(oracle.slr.size());
    const double ok_share =
        static_cast<double>(tally.sent - tally.not_ok) / static_cast<double>(tally.sent);

    if (!options.trace) {
        result.add("tasks_per_s", static_cast<double>(reference.tasks_ok) / reference_cpu_s,
                   "tasks/s");
        result.add("mean_slr", mean_slr, "ratio");
        result.add("ok_share", ok_share, "ratio");
        result.add("setup_s", median(setup_s), "s");
        result.add("peak_rss_mb", rss_mb, "MB");
        return result;
    }

    result.add("client.lat_p50_ms", quantile(reference.latency_ms, 0.50), "ms");
    result.add("client.lat_p99_ms", quantile(reference.latency_ms, 0.99), "ms");
    result.add("client.slo_qps", slo_qps, "req/s");

    const auto& d = delta.engine;
    const double requests = static_cast<double>(obs_counter(d, "serve/requests"));
    const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
    const std::string algo = hot ? "heft" : "ils-d";
    result.add("workload.instance_ms_p50", median(oracle.instance_ms), "ms");
    result.add("sched.upward_rank_ms_p50", median(oracle.upward_rank_ms), "ms");
    result.add("sched.schedule_ms_p50." + algo, median(oracle.schedule_ms), "ms");
    const auto per_task = [&](const char* counter) {
        return ratio(static_cast<double>(trace_counter(oracle.counters, counter)),
                     static_cast<double>(oracle.tasks));
    };
    result.add("sched.eft_evals_per_task", per_task("eft_evaluations"), "count");
    result.add("sched.rollbacks_per_task", per_task("speculative_rollbacks"), "count");
    result.add("sched.dup_accept_ratio",
               ratio(static_cast<double>(trace_counter(oracle.counters, "duplication_accepted")),
                     static_cast<double>(trace_counter(oracle.counters, "duplication_attempts"))),
               "ratio");
    result.add("metrics.slr_mean." + algo, mean_slr, "ratio");
    result.add("analysis.lint_errors", static_cast<double>(oracle.lint_errors), "count");
    result.add("sim.makespan_mismatches", static_cast<double>(oracle.sim_mismatches), "count");
    result.add("fail_share", 1.0 - ok_share, "ratio");

    result.add("serve.queue_wait_ms_p50", hist_p(d, "serve/latency/queue_wait_ms", 0.50), "ms");
    result.add("serve.queue_wait_ms_p99", hist_p(d, "serve/latency/queue_wait_ms", 0.99), "ms");
    result.add("serve.compute_ms_p50", hist_p(d, "serve/latency/compute_ms", 0.50), "ms");
    result.add("serve.compute_ms_p99", hist_p(d, "serve/latency/compute_ms", 0.99), "ms");
    result.add("serve.cache_lookup_ms_p50", hist_p(d, "serve/latency/cache_lookup_ms", 0.50),
               "ms");
    const double total_p50 = hist_p(d, "serve/latency/total_ms", 0.50);
    result.add("serve.total_ms_p50", total_p50, "ms");
    result.add("serve.total_ms_p99", hist_p(d, "serve/latency/total_ms", 0.99), "ms");
    result.add("serve.hit_ratio",
               ratio(static_cast<double>(obs_counter(d, "serve/served_from_cache")), requests),
               "ratio");
    result.add("serve.computed_ratio",
               ratio(static_cast<double>(obs_counter(d, "serve/computed")), requests), "ratio");
    result.add("serve.coalesced", static_cast<double>(obs_counter(d, "serve/coalesced")),
               "count");
    result.add("serve.cache_evictions",
               static_cast<double>(obs_counter(d, "serve/cache/evictions")), "count");

    const ReplayTimes replay = replay_reactor_path(replay_stream);
    const double reactor_us =
        replay.decode_us + replay.materialize_us + replay.fingerprint_us + replay.encode_us;
    result.add("net.decode_request_us_p50", replay.decode_us, "us");
    result.add("serve.materialize_us_p50", replay.materialize_us, "us");
    result.add("serve.fingerprint_us_p50", replay.fingerprint_us, "us");
    result.add("net.encode_response_us_p50", replay.encode_us, "us");
    result.add("net.reactor_us_per_req", reactor_us, "us");
    result.add("net.reactor_busy_share", reactor_us * slo_qps / 1e6, "ratio");

    const double traced_requests = static_cast<double>(delta.after.requests - delta.before.requests);
    result.add("net.bytes_in_per_req",
               ratio(static_cast<double>(delta.after.bytes_in - delta.before.bytes_in),
                     traced_requests),
               "B");
    result.add("net.bytes_out_per_req",
               ratio(static_cast<double>(delta.after.bytes_out - delta.before.bytes_out),
                     traced_requests),
               "B");
    result.add("net.backpressure_pauses",
               static_cast<double>(delta.after.backpressure_pauses -
                                   delta.before.backpressure_pauses),
               "count");
    const double traced_p50 = quantile(traced.latency_ms, 0.50);
    result.add("net.wire_ms_p50", traced_p50 - total_p50, "ms");

    const auto task_run = obs_histogram(d, "pool/task_run_ms");
    const double busy_ms = task_run.mean() * static_cast<double>(task_run.count);
    result.add("pool.busy_share",
               ratio(busy_ms, traced.send_window_s * 1e3 * static_cast<double>(kPoolWorkers)),
               "ratio");
    result.add("pool.queue_depth_max", static_cast<double>(pool_queue_max), "count");
    result.add("pool.task_run_ms_p50", task_run.quantile(0.50), "ms");

    result.add("gen.lag_p99_ms", quantile(traced.lag_ms, 0.99), "ms");
    result.add("gen.backlog_end", static_cast<double>(traced.backlog_end), "count");
    result.add("gen.samples", static_cast<double>(reference.latency_ms.size()), "count");
    const double untraced_p50 = quantile(reference.latency_ms, 0.50);
    result.add("trace.overhead_share", (traced_p50 - untraced_p50) / untraced_p50, "ratio");
    return result;
}

}  // namespace perfbench
