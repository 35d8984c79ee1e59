// tsched_served — the scheduling service daemon: a ServeEngine behind the
// tsched wire protocol (src/net, DESIGN §17).
//
//   tsched_served --port=0 --threads=4 --max-conns=32
//       bind a loopback listener (port 0 = kernel-assigned; the bound port
//       is printed on stdout and flushed before serving, so scripts can
//       parse it — the flake-proof ephemeral-port discovery CI relies on),
//       then serve until SIGTERM/SIGINT, drain gracefully, and exit.
//
// Network flags:
//   --host=ADDR            IPv4 listen address (default 127.0.0.1)
//   --port=P               listen port (default 0 = ephemeral)
//   --max-conns=N          concurrent connections; extras get a typed
//                          too_many_connections error (default 64)
//   --per-conn-queue=N     outstanding replies per connection before the
//                          server stops reading that socket (default 64)
//   --max-frame-bytes=N    frame payload cap both directions (default 1 MiB)
//   --requests-per-tick=N  per-session fair-dispatch budget (default 8)
//   --flush-timeout-ms=D   post-drain outbox flush bound (default 5000)
//   --threads=T            serving pool workers (default 0 = hardware)
//
// Engine flags (same knobs as tsched_serve replay; DESIGN §16):
//   --cache=on|off --capacity=K --shards=S
//   --max-inflight=N --max-pending=N
//   --shed-policy=reject-new|drop-oldest|degrade --degrade-algo=A
//   --drain-timeout-ms=D   engine drain bound at shutdown (default 5000;
//                          0 = wait forever — fine in-process, risky for a
//                          daemon, hence the non-zero default)
//
// Config lints: TS07xx (engine) and TS08xx (net) diagnostics print on
// stderr before binding; warnings never refuse to run, errors do.
//
// Exit status: 0 clean drain, 2 usage/bind errors, 3 forced (drain timed
// out with work or unflushed replies outstanding).
#include <atomic>
#include <csignal>
#include <iostream>
#include <string>

#include "analysis/net_lints.hpp"
#include "analysis/serve_lints.hpp"
#include "net/server.hpp"
#include "util/args.hpp"

namespace {

using namespace tsched;

constexpr const char* kVersion = "tsched_served 1.0.0";

net::ServeServer* g_server = nullptr;

extern "C" void handle_signal(int) {
    // request_stop() is async-signal-safe: an atomic store plus a self-pipe
    // write.  Everything else (drain, flush, reporting) happens on the
    // event-loop and main threads.
    if (g_server != nullptr) g_server->request_stop();
}

void print_usage(std::ostream& os) {
    os << "usage: tsched_served [--host=ADDR] [--port=P] [--max-conns=N]\n"
       << "                     [--per-conn-queue=N] [--max-frame-bytes=N]\n"
       << "                     [--requests-per-tick=N] [--flush-timeout-ms=D]\n"
       << "                     [--threads=T] [--cache=on|off]\n"
       << "                     [--capacity=K] [--shards=S] [--max-inflight=N]\n"
       << "                     [--max-pending=N] [--shed-policy=P] [--degrade-algo=A]\n"
       << "                     [--drain-timeout-ms=D]\n"
       << "Serve scheduling requests over TCP until SIGTERM, then drain and exit.\n";
}

[[noreturn]] void usage_error(const std::string& error) {
    std::cerr << "tsched_served: " << error << '\n';
    print_usage(std::cerr);
    std::exit(2);
}

bool parse_on_off(const Args& args, const std::string& key, bool def) {
    const std::string v = args.get_string(key, def ? "on" : "off");
    if (v == "on" || v == "true" || v == "1") return true;
    if (v == "off" || v == "false" || v == "0") return false;
    usage_error("--" + key + " expects on|off, got '" + v + "'");
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
        args.check_known({"host", "port", "max-conns", "per-conn-queue", "max-frame-bytes",
                          "requests-per-tick", "flush-timeout-ms", "threads", "cache",
                          "capacity", "shards", "max-inflight", "max-pending", "shed-policy",
                          "degrade-algo", "drain-timeout-ms", "version", "help"});
        if (!args.positional().empty()) usage_error("tsched_served takes no positional arguments");
    } catch (const std::exception& e) {
        usage_error(e.what());
    }

    net::ServerConfig config;
    std::size_t threads = 0;
    try {
        config.host = args.get_string("host", "127.0.0.1");
        const std::int64_t port = args.get_int("port", 0);
        if (port < 0 || port > 65535) usage_error("--port must be in [0, 65535]");
        config.port = static_cast<std::uint16_t>(port);
        config.max_conns = args.get_size("max-conns", 64);
        config.per_conn_queue = args.get_size("per-conn-queue", 64);
        config.max_frame_bytes = args.get_size("max-frame-bytes", 1 << 20);
        config.max_requests_per_tick = args.get_size("requests-per-tick", 8);
        config.flush_timeout_ms = args.get_double("flush-timeout-ms", 5000.0);

        config.engine.enable_cache = parse_on_off(args, "cache", true);
        config.engine.cache_capacity = args.get_size("capacity", 1024);
        config.engine.cache_shards = args.get_size("shards", 8);
        config.engine.max_inflight = args.get_size("max-inflight", 0);
        config.engine.max_pending = args.get_size("max-pending", 0);
        const std::string policy_name = args.get_string("shed-policy", "reject-new");
        if (const auto policy = serve::shed_policy_from_name(policy_name)) {
            config.engine.shed_policy = *policy;
        } else {
            usage_error("--shed-policy expects reject-new|drop-oldest|degrade, got '" +
                        policy_name + "'");
        }
        config.engine.degrade_algo = args.get_string("degrade-algo", "heft");
        config.engine.drain_timeout_ms = args.get_double("drain-timeout-ms", 5000.0);
        threads = args.get_size("threads", 0);
    } catch (const std::exception& e) {
        usage_error(e.what());
    }

    // Config sanity (TS07xx engine + TS08xx net): warnings run, errors do
    // not — a daemon that can never answer a request should fail fast.
    {
        analysis::Diagnostics diags;
        analysis::lint_serve_config(config.engine, 0.0, diags);
        analysis::lint_net_config(config, diags);
        bool fatal = false;
        for (const auto& d : diags.all()) {
            std::cerr << "tsched_served: " << analysis::severity_name(d.severity) << '['
                      << analysis::code_name(d.code) << "] " << d.message << '\n';
            fatal = fatal || d.severity == analysis::Severity::kError;
        }
        if (fatal) return 2;
    }

    try {
        ThreadPool pool(threads);
        net::ServeServer server(config, pool);
        server.start();

        // The discovery line scripts parse; flush before installing the
        // handlers so a parser never races a signal.
        std::cout << "tsched_served: listening on " << config.host << ':' << server.port()
                  << " (" << pool.size() << " workers, max-conns=" << config.max_conns
                  << ", per-conn-queue=" << config.per_conn_queue << ")" << std::endl;

        g_server = &server;
        std::signal(SIGTERM, handle_signal);
        std::signal(SIGINT, handle_signal);

        server.wait();
        const net::NetDrainReport report = server.stop();
        g_server = nullptr;

        const net::NetServerStats stats = server.stats();
        const serve::EngineStats engine = server.engine_stats();
        std::cout << "tsched_served: drained (" << (report.clean ? "clean" : "forced") << "): "
                  << stats.accepted << " conns (" << stats.refused << " refused), "
                  << stats.requests << " requests, " << stats.responses << " responses, "
                  << stats.errors_sent << " errors (" << stats.protocol_errors
                  << " protocol), " << stats.backpressure_pauses << " backpressure pauses\n";
        std::cout << "tsched_served: outcomes ok=" << engine.ok << " shed=" << engine.shed
                  << " degraded=" << engine.degraded << " timed_out=" << engine.timed_out
                  << " draining=" << engine.draining << " | cache hits=" << engine.cache_hits
                  << " computed=" << engine.computed << " coalesced=" << engine.coalesced
                  << '\n';
        std::cout << "tsched_served: drain engine_clean=" << (report.engine.clean ? 1 : 0)
                  << " flushed_pending=" << report.engine.flushed_pending
                  << " flushed_sessions=" << report.flushed_sessions
                  << " forced_sessions=" << report.forced_sessions << std::endl;
        return report.clean ? 0 : 3;
    } catch (const std::exception& e) {
        std::cerr << "tsched_served: " << e.what() << '\n';
        return 2;
    }
}
