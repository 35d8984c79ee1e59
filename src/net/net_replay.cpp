#include "net/net_replay.hpp"

#include <chrono>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <utility>

#include "net/client.hpp"
#include "util/fingerprint.hpp"
#include "util/stopwatch.hpp"

namespace tsched::net {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
    return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

struct WorkerResult {
    serve::ReplayTally tally;
    std::size_t sent = 0;
    std::size_t assigned = 0;
    /// fingerprint -> fnv1a(fingerprint || payload) for responses that
    /// carried a schedule; merged across workers for the digest.
    std::unordered_map<std::uint64_t, std::uint64_t> payloads;
    bool payload_consistent = true;
};

void audit_payload(WorkerResult& result, const WireResponse& response) {
    if (!response.has_schedule()) return;
    Fnv1a hasher;
    hasher.u64(response.fingerprint);
    hasher.str(response.schedule_bytes);
    const auto [it, inserted] = result.payloads.emplace(response.fingerprint, hasher.value());
    if (!inserted && it->second != hasher.value()) result.payload_consistent = false;
}

void run_worker(const std::vector<serve::TraceRequest>& trace, const NetReplayOptions& options,
                std::size_t worker, WorkerResult& result) {
    // Round-robin slice, repeated `epochs` times.
    std::vector<std::size_t> slice;
    for (std::size_t i = worker; i < trace.size(); i += options.conns) slice.push_back(i);
    result.assigned = slice.size() * options.epochs;
    if (result.assigned == 0) return;

    serve::ReplayTally& tally = result.tally;
    tally.latencies.reserve(result.assigned);
    std::unordered_map<std::uint64_t, Clock::time_point> outstanding;

    ClientConfig config;
    config.host = options.host;
    config.port = options.port;
    config.client_name = options.client_name + "#" + std::to_string(worker);

    try {
        ServeClient client(config);
        while (result.sent < result.assigned || !outstanding.empty()) {
            if (result.sent < result.assigned && outstanding.size() < options.window) {
                const serve::TraceRequest& request = trace[slice[result.sent % slice.size()]];
                const std::uint64_t id = client.send(request, options.deadline_ms);
                outstanding.emplace(id, Clock::now());
                ++result.sent;
                continue;
            }
            ClientReply reply = client.recv();
            if (reply.id == 0) {
                // Session-level error: the server is closing this
                // connection; everything outstanding is lost.
                tally.record_lost(outstanding.size());
                break;
            }
            const auto it = outstanding.find(reply.id);
            if (it == outstanding.end()) continue;  // stale duplicate; ignore
            const double latency = ms_since(it->second);
            outstanding.erase(it);
            if (reply.ok()) {
                tally.record(reply.response->outcome, latency, reply.response->cache_hit);
                audit_payload(result, *reply.response);
            } else {
                tally.record_failure(latency);
            }
        }
    } catch (const std::exception&) {
        // Connection drop mid-run: outstanding requests are lost.
        tally.record_lost(outstanding.size());
    }
    // Requests this worker never managed to send still count against the
    // accounting identity — a dead connection must not shrink the universe.
    tally.record_lost(result.assigned - result.sent);
}

}  // namespace

serve::ReplayReport replay_net(const std::vector<serve::TraceRequest>& trace,
                               const NetReplayOptions& options) {
    if (options.conns == 0) throw std::invalid_argument("replay_net: conns must be >= 1");
    if (options.window == 0) throw std::invalid_argument("replay_net: window must be >= 1");
    if (options.epochs == 0) throw std::invalid_argument("replay_net: epochs must be >= 1");

    if (trace.empty()) {
        serve::ReplayReport report;
        report.conns = options.conns;
        return report;
    }

    std::vector<WorkerResult> results(options.conns);
    const Stopwatch wall;
    {
        std::vector<std::thread> workers;
        workers.reserve(options.conns);
        for (std::size_t i = 0; i < options.conns; ++i)
            workers.emplace_back(
                [&trace, &options, i, &results] { run_worker(trace, options, i, results[i]); });
        for (auto& worker : workers) worker.join();
    }
    const double wall_ms = wall.elapsed_ms();

    serve::ReplayTally tally;
    std::size_t requests = 0;
    bool payload_consistent = true;
    std::unordered_map<std::uint64_t, std::uint64_t> payloads;
    for (const WorkerResult& result : results) {
        requests += result.assigned;
        tally.merge(result.tally);
        payload_consistent = payload_consistent && result.payload_consistent;
        for (const auto& [fingerprint, hash] : result.payloads) {
            const auto [it, inserted] = payloads.emplace(fingerprint, hash);
            if (!inserted && it->second != hash) payload_consistent = false;
        }
    }

    serve::ReplayReport report = tally.finish(requests, wall_ms);
    report.conns = options.conns;
    report.payload_consistent = payload_consistent;
    // XOR over distinct fingerprints: arrival order and hit counts cancel
    // out, so the digest compares across pool widths and connection counts.
    for (const auto& [fingerprint, hash] : payloads) {
        (void)fingerprint;
        report.schedule_digest ^= hash;
    }
    return report;
}

}  // namespace tsched::net
