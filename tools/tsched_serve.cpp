// tsched_serve — generate and replay scheduling-request traces against the
// serving core (ServeEngine + content-addressed schedule cache).
//
//   tsched_serve --gen=trace.tsr --requests=200 --repeat-frac=0.5
//       write a .tsr request trace: a deterministic mix of repeated
//       (cache-hittable) and perturbed (fresh-seed) graphs
//   tsched_serve trace.tsr --threads=4 --batch=16
//       replay the trace through a ServeEngine and report QPS, latency
//       p50/p95/p99, and cache hit rate
//
// Generation flags (with --gen=PATH):
//   --requests=N      stream length (default 128)
//   --repeat-frac=F   exact fraction of requests repeating an earlier one
//                     (default 0.5)
//   --algos=a,b       algorithms drawn per request (default heft)
//   --shapes=s1,s2    DAG families drawn per request (default layered)
//   --n=N             instance size parameter (default 100)
//   --procs=P         processors (default 8)
//   --net=NAME        interconnect (default uniform)
//   --ccr=X --beta=X  cost calibration (defaults 1.0 / 0.5)
//   --seed=S          generation seed (default 2007)
//
// Replay flags (with a positional trace.tsr):
//   --cache=on|off    content-addressed schedule cache (default on)
//   --dedup=on|off    in-flight coalescing of identical requests (default on)
//   --capacity=K      cache entry budget (default 1024)
//   --shards=S        cache lock shards (default 8)
//   --threads=T       serving pool workers (default 0 = hardware)
//   --batch=B         requests per submitted batch (default 16)
//   --epochs=E        passes over the stream against one engine (default 1;
//                     >1 measures steady-state serving with a warm cache)
//   --deadline-ms=D   per-request latency budget (default 0 = none); expired
//                     requests resolve as timed_out (DESIGN §16)
//   --wait-budget-ms=W  per-batch wall budget; stragglers surface as
//                     timed_out instead of hanging the replay (default 0)
//   --max-inflight=N  admission budget: concurrent computations (default 0
//                     = unbounded, admission control off)
//   --max-pending=N   bounded backlog when saturated (default 0)
//   --shed-policy=P   reject-new|drop-oldest|degrade (default reject-new)
//   --degrade-algo=A  substitute algorithm for --shed-policy=degrade
//                     (default heft)
//   --drain-timeout-ms=D  engine teardown bound (default 0 = wait forever)
//   --json=PATH       also write the report as JSON ('-' = stdout); includes
//                     the engine obs metrics document under "metrics"
//   --metrics-out=PATH        live metrics during the replay (obs/reporter):
//                             JSONL lines, or a Prometheus scrape file
//   --metrics-format=json|prometheus   output format (default json)
//   --metrics-interval-ms=N   background flush period (default 1000)
//   --metrics-epoch           flush once per epoch instead of on a timer
//                             (deterministic line count: one per epoch + final)
//   --counters        print trace counters *and* the engine/cache/pool obs
//                     metrics after the replay, each name once
//   --version/--help  print and exit 0
//
// Network replay flags (with --connect; drives a live tsched_served over
// N concurrent connections instead of an in-process engine — E21):
//   --connect=HOST:PORT  replay the trace over the wire against this server
//   --conns=N            concurrent connections, one thread each (default 8)
//   --window=W           outstanding pipelined requests per connection
//                        (default 16)
//   --epochs/--deadline-ms/--json as above
//
// Both replay modes print and write one report (serve::ReplayReport): the
// shared keys — requests, replies, wall_ms, qps, latency_ms.*,
// hist_latency_ms.*, outcomes.{ok,shed,degraded,timed_out,draining,failed},
// cache_hits, accounting_ok (ok+shed+degraded+timed_out+draining+failed ==
// requests), shed_rate, deadline_hit_rate — plus each mode's own: the engine
// configuration, totals and obs document in-process; "mode":"net", conns,
// window and the order-independent schedule payload digest over the wire.
//
// Exit status: 0 success, 2 usage or file errors, 1 if the accounting
// identity fails or a schedule payload was inconsistent.
#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/serve_lints.hpp"
#include "net/net_replay.hpp"
#include "obs/export.hpp"
#include "serve/replay.hpp"
#include "serve/request_trace.hpp"
#include "trace/counters.hpp"
#include "util/args.hpp"

namespace {

using namespace tsched;

constexpr const char* kVersion = "tsched_serve 1.0.0";

void print_usage(std::ostream& os) {
    os << "usage: tsched_serve --gen=trace.tsr [--requests=N] [--repeat-frac=F]\n"
       << "                    [--algos=a,b] [--shapes=s1,s2] [--n=N] [--procs=P]\n"
       << "                    [--net=NAME] [--ccr=X] [--beta=X] [--seed=S]\n"
       << "       tsched_serve trace.tsr [--cache=on|off] [--dedup=on|off]\n"
       << "                    [--capacity=K] [--shards=S] [--threads=T]\n"
       << "                    [--batch=B] [--epochs=E] [--json=PATH] [--counters]\n"
       << "                    [--deadline-ms=D] [--wait-budget-ms=W]\n"
       << "                    [--max-inflight=N] [--max-pending=N]\n"
       << "                    [--shed-policy=reject-new|drop-oldest|degrade]\n"
       << "                    [--degrade-algo=A] [--drain-timeout-ms=D]\n"
       << "                    [--metrics-out=PATH] [--metrics-format=json|prometheus]\n"
       << "                    [--metrics-interval-ms=N] [--metrics-epoch]\n"
       << "       tsched_serve trace.tsr --connect=HOST:PORT [--conns=N] [--window=W]\n"
       << "                    [--epochs=E] [--deadline-ms=D] [--json=PATH]\n"
       << "Generate a scheduling-request trace, replay one through the serving\n"
       << "core, or replay one over the wire against a live tsched_served.\n";
}

[[noreturn]] void usage_error(const std::string& error) {
    std::cerr << "tsched_serve: " << error << '\n';
    print_usage(std::cerr);
    std::exit(2);
}

bool parse_on_off(const Args& args, const std::string& key, bool def) {
    const std::string v = args.get_string(key, def ? "on" : "off");
    if (v == "on" || v == "true" || v == "1") return true;
    if (v == "off" || v == "false" || v == "0") return false;
    usage_error("--" + key + " expects on|off, got '" + v + "'");
}

int generate(const Args& args) {
    serve::TraceGenParams params;
    params.requests = static_cast<std::size_t>(args.get_int("requests", 128));
    params.repeat_frac = args.get_double("repeat-frac", 0.5);
    params.algos = args.get_string_list("algos", {"heft"});
    params.size = static_cast<std::size_t>(args.get_int("n", 100));
    params.procs = static_cast<std::size_t>(args.get_int("procs", 8));
    params.ccr = args.get_double("ccr", 1.0);
    params.beta = args.get_double("beta", 0.5);
    params.seed = static_cast<std::uint64_t>(args.get_int("seed", 2007));
    params.shapes.clear();
    for (const std::string& name : args.get_string_list("shapes", {"layered"}))
        params.shapes.push_back(workload::shape_from_name(name));
    params.net = workload::net_from_name(args.get_string("net", "uniform"));

    const std::string path = args.get_string("gen", "");
    const auto trace = serve::generate_trace(params);
    serve::save_tsr(path, trace);
    std::cout << "tsched_serve: wrote " << trace.size() << " requests to " << path << " ("
              << params.repeat_frac * 100 << "% repeats)\n";
    return 0;
}

/// The replay report as JSON: the keys both modes share, after the mode's
/// own keys (each written as "key":value followed by a comma).
std::string report_json(const serve::ReplayReport& report,
                        const std::function<void(std::ostream&)>& mode_keys) {
    std::ostringstream os;
    os.precision(6);
    os << std::fixed;
    os << "{\"schema\":1,";
    mode_keys(os);
    os << "\"requests\":" << report.requests << ','
       << "\"replies\":" << report.replies << ','
       << "\"wall_ms\":" << report.wall_ms << ','
       << "\"qps\":" << report.qps << ','
       << "\"latency_ms\":{\"mean\":" << report.latency_mean_ms << ",\"p50\":"
       << report.latency_p50_ms << ",\"p95\":" << report.latency_p95_ms << ",\"p99\":"
       << report.latency_p99_ms << ",\"p999\":" << report.latency_p999_ms << ",\"max\":"
       << report.latency_max_ms << "},"
       << "\"hist_latency_ms\":{\"p50\":" << report.hist_p50_ms << ",\"p95\":"
       << report.hist_p95_ms << ",\"p99\":" << report.hist_p99_ms << ",\"p999\":"
       << report.hist_p999_ms << "},"
       << "\"outcomes\":{\"ok\":" << report.ok << ",\"shed\":" << report.shed
       << ",\"degraded\":" << report.degraded << ",\"timed_out\":" << report.timed_out
       << ",\"draining\":" << report.draining << ",\"failed\":" << report.failed << "},"
       << "\"cache_hits\":" << report.cache_hits << ','
       << "\"accounting_ok\":" << (report.accounting_ok() ? "true" : "false") << ','
       << "\"shed_rate\":" << report.shed_rate() << ','
       << "\"deadline_hit_rate\":" << report.deadline_hit_rate() << '}';
    return os.str();
}

/// Print the report (the mode's header line, the shared block, the mode's
/// detail line), write the JSON report if --json asks for it, and check the
/// accounting identity and payload consistency.  Returns the exit status.
int emit_report(const Args& args, const serve::ReplayReport& report, const std::string& header,
                const std::string& detail,
                const std::function<void(std::ostream&)>& mode_keys) {
    std::cout << header << '\n';
    std::cout.precision(3);
    std::cout << std::fixed;
    std::cout << "  wall      " << report.wall_ms << " ms\n"
              << "  qps       " << report.qps << '\n'
              << "  latency   mean " << report.latency_mean_ms << " ms | p50 "
              << report.latency_p50_ms << " | p95 " << report.latency_p95_ms << " | p99 "
              << report.latency_p99_ms << " | p99.9 " << report.latency_p999_ms << " | max "
              << report.latency_max_ms << '\n'
              << "  outcomes  ok " << report.ok << " shed " << report.shed << " degraded "
              << report.degraded << " timed_out " << report.timed_out << " draining "
              << report.draining << " failed " << report.failed << " (of " << report.requests
              << ")\n"
              << "  rates     shed " << report.shed_rate() * 100 << "% | deadline-hit "
              << report.deadline_hit_rate() * 100 << "%\n"
              << "  cache     " << report.cache_hits << " hits of " << report.replies
              << " replies\n"
              << "  " << detail << '\n';

    const std::string json_path = args.get_string("json", "");
    if (!json_path.empty()) {
        const std::string doc = report_json(report, mode_keys);
        if (json_path == "-") {
            std::cout << doc << '\n';
        } else {
            std::ofstream out(json_path);
            out << doc << '\n';
            if (!out) {
                std::cerr << "tsched_serve: could not write " << json_path << '\n';
                return 2;
            }
        }
    }

    if (!report.accounting_ok()) {
        std::cerr << "tsched_serve: accounting identity FAILED: ok+shed+degraded+timed_out"
                     "+draining+failed != requests\n";
        return 1;
    }
    if (!report.payload_consistent) {
        std::cerr << "tsched_serve: schedule payloads INCONSISTENT for equal fingerprints\n";
        return 1;
    }
    return 0;
}

int replay_over_wire(const Args& args, const std::string& trace_path) {
    net::NetReplayOptions options;
    const std::string endpoint = args.get_string("connect", "");
    const auto colon = endpoint.rfind(':');
    if (colon == std::string::npos || colon == 0 || colon + 1 == endpoint.size())
        usage_error("--connect expects HOST:PORT, got '" + endpoint + "'");
    options.host = endpoint.substr(0, colon);
    const int port = std::stoi(endpoint.substr(colon + 1));
    if (port <= 0 || port > 65535) usage_error("--connect port must be in [1, 65535]");
    options.port = static_cast<std::uint16_t>(port);
    options.conns = static_cast<std::size_t>(args.get_int("conns", 8));
    options.window = static_cast<std::size_t>(args.get_int("window", 16));
    options.epochs = static_cast<std::size_t>(args.get_int("epochs", 1));
    options.deadline_ms = args.get_double("deadline-ms", 0.0);

    const auto trace = serve::load_tsr(trace_path);
    if (trace.empty()) {
        std::cerr << "tsched_serve: trace " << trace_path << " has no requests\n";
        return 2;
    }

    const auto report = net::replay_net(trace, options);

    std::ostringstream header;
    header << "tsched_serve: replayed " << trace.size() << " requests x " << options.epochs
           << " epoch(s) over " << options.conns << " connection(s) to " << options.host << ':'
           << options.port << " (window=" << options.window << ")";
    std::ostringstream detail;
    detail << "payload   digest " << std::hex << report.schedule_digest << std::dec << ", "
           << (report.payload_consistent ? "consistent" : "INCONSISTENT");
    return emit_report(args, report, header.str(), detail.str(), [&](std::ostream& os) {
        os << "\"mode\":\"net\","
           << "\"conns\":" << report.conns << ','
           << "\"window\":" << options.window << ','
           << "\"epochs\":" << options.epochs << ','
           << "\"schedule_digest\":\"" << std::hex << report.schedule_digest << std::dec
           << "\","
           << "\"payload_consistent\":" << (report.payload_consistent ? "true" : "false")
           << ',';
    });
}

int replay(const Args& args, const std::string& trace_path) {
    serve::ReplayOptions options;
    options.config.enable_cache = parse_on_off(args, "cache", true);
    options.config.enable_dedup = parse_on_off(args, "dedup", true);
    options.config.cache_capacity = static_cast<std::size_t>(args.get_int("capacity", 1024));
    options.config.cache_shards = static_cast<std::size_t>(args.get_int("shards", 8));
    options.batch = static_cast<std::size_t>(args.get_int("batch", 16));
    options.epochs = static_cast<std::size_t>(args.get_int("epochs", 1));
    const auto threads = static_cast<std::size_t>(args.get_int("threads", 0));

    options.deadline_ms = args.get_double("deadline-ms", 0.0);
    options.wait_budget_ms = args.get_double("wait-budget-ms", 0.0);
    options.config.max_inflight = static_cast<std::size_t>(args.get_int("max-inflight", 0));
    options.config.max_pending = static_cast<std::size_t>(args.get_int("max-pending", 0));
    const std::string policy_name = args.get_string("shed-policy", "reject-new");
    if (const auto policy = serve::shed_policy_from_name(policy_name)) {
        options.config.shed_policy = *policy;
    } else {
        usage_error("--shed-policy expects reject-new|drop-oldest|degrade, got '" +
                    policy_name + "'");
    }
    options.config.degrade_algo = args.get_string("degrade-algo", "heft");
    options.config.drain_timeout_ms = args.get_double("drain-timeout-ms", 0.0);

    // Config sanity lints (TS07xx, analysis/serve_lints.hpp): nonsense knob
    // combinations are warnings on stderr, never a refusal to run.
    {
        analysis::Diagnostics diags;
        analysis::lint_serve_config(options.config, options.deadline_ms, diags);
        for (const auto& d : diags.all())
            std::cerr << "tsched_serve: " << analysis::severity_name(d.severity) << '['
                      << analysis::code_name(d.code) << "] " << d.message << '\n';
    }

    options.metrics.path = args.get_string("metrics-out", "");
    const std::string metrics_format = args.get_string("metrics-format", "json");
    if (metrics_format == "json") {
        options.metrics.format = obs::ReporterOptions::Format::kJson;
    } else if (metrics_format == "prometheus" || metrics_format == "prom") {
        options.metrics.format = obs::ReporterOptions::Format::kPrometheus;
    } else {
        usage_error("--metrics-format expects json|prometheus, got '" + metrics_format + "'");
    }
    options.metrics.interval_ms =
        static_cast<std::uint64_t>(args.get_int("metrics-interval-ms", 1000));
    options.metrics_per_epoch = args.has("metrics-epoch");

    const auto trace = serve::load_tsr(trace_path);
    if (trace.empty()) {
        std::cerr << "tsched_serve: trace " << trace_path << " has no requests\n";
        return 2;
    }

    ThreadPool pool(threads);
    const auto report = serve::replay_trace(trace, options, pool);

    std::ostringstream header;
    header << "tsched_serve: replayed " << trace.size() << " requests x " << options.epochs
           << " epoch(s) on " << pool.size() << " worker(s), batch=" << options.batch
           << ", cache=" << (options.config.enable_cache ? "on" : "off")
           << " (capacity=" << options.config.cache_capacity << ")";
    if (options.config.max_inflight > 0 || options.deadline_ms > 0.0 ||
        options.wait_budget_ms > 0.0) {
        header << ", policy=" << serve::shed_policy_name(options.config.shed_policy)
               << " inflight<=" << options.config.max_inflight
               << " pending<=" << options.config.max_pending;
    }
    std::ostringstream detail;
    detail.precision(3);
    detail << std::fixed << "engine    " << report.stats.computed << " cold runs, "
           << report.stats.coalesced << " coalesced, " << report.stats.cache.evictions
           << " evictions (hit rate " << report.stats.hit_rate() * 100 << "%)";
    const int status = emit_report(args, report, header.str(), detail.str(), [&](std::ostream& os) {
        os << "\"batch\":" << options.batch << ','
           << "\"epochs\":" << options.epochs << ','
           << "\"cache\":" << (options.config.enable_cache ? "true" : "false") << ','
           << "\"capacity\":" << options.config.cache_capacity << ','
           << "\"shed_policy\":\"" << serve::shed_policy_name(options.config.shed_policy)
           << "\","
           << "\"max_inflight\":" << options.config.max_inflight << ','
           << "\"max_pending\":" << options.config.max_pending << ','
           << "\"deadline_ms\":" << options.deadline_ms << ','
           << "\"computed\":" << report.stats.computed << ','
           << "\"coalesced\":" << report.stats.coalesced << ','
           << "\"hits\":" << report.stats.cache_hits << ','
           << "\"evictions\":" << report.stats.cache.evictions << ','
           << "\"hit_rate\":" << report.stats.hit_rate() << ','
           << "\"metrics\":" << obs::to_json(report.metrics) << ',';
    });
    if (status != 0) return status;

    if (args.has("counters")) {
        // The process trace counters (scheduler internals), then the
        // engine/cache/pool obs document for the same run, so one flag
        // gives the full picture (counters alone miss distributions and
        // gauges).  The two share no name: every serve-layer count lives in
        // the document only.  Histograms print as a one-line summary each.
        for (const auto& counter : trace::registry().snapshot().counters)
            if (counter.value > 0) std::cout << counter.name << " = " << counter.value << '\n';
        for (const auto& counter : report.metrics.counters)
            std::cout << counter.name << " = " << counter.value << '\n';
        for (const auto& gauge : report.metrics.gauges) {
            std::cout << gauge.name;
            for (const auto& [key, value] : gauge.labels)
                std::cout << '{' << key << '=' << value << '}';
            std::cout << " = " << gauge.value << '\n';
        }
        for (const auto& hist : report.metrics.histograms) {
            std::cout << hist.name << " count=" << hist.hist.count;
            if (hist.hist.count > 0) {
                std::cout << " p50=" << hist.hist.quantile(0.5)
                          << " p99=" << hist.hist.quantile(0.99)
                          << " max=" << hist.hist.max;
            }
            std::cout << '\n';
        }
    }
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    Args args(argc, argv);
    if (args.has("version")) {
        std::cout << kVersion << '\n';
        return 0;
    }
    if (args.has("help")) {
        print_usage(std::cout);
        return 0;
    }
    try {
        args.check_known({"gen", "requests", "repeat-frac", "algos", "shapes", "n", "procs",
                          "net", "ccr", "beta", "seed", "cache", "dedup", "capacity", "shards",
                          "threads", "batch", "epochs", "json", "counters", "deadline-ms",
                          "wait-budget-ms", "max-inflight", "max-pending", "shed-policy",
                          "degrade-algo", "drain-timeout-ms", "metrics-out", "metrics-format",
                          "metrics-interval-ms", "metrics-epoch", "connect", "conns", "window",
                          "version", "help"});
    } catch (const std::exception& e) {
        usage_error(e.what());
    }
    try {
        if (args.has("gen")) return generate(args);
        if (args.positional().size() != 1)
            usage_error("expected exactly one trace.tsr argument (or --gen=PATH)");
        if (args.has("connect")) return replay_over_wire(args, args.positional().front());
        return replay(args, args.positional().front());
    } catch (const std::exception& e) {
        std::cerr << "tsched_serve: " << e.what() << '\n';
        return 2;
    }
}
