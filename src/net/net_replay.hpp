// Multi-connection replay driver: E21's measurement loop (DESIGN §17).
//
// Replays a .tsr request stream against a *live* server over N concurrent
// connections: one thread per connection, each owning one ServeClient, each
// replaying its round-robin slice of the stream with a sliding window of
// `window` outstanding pipelined requests.  Latency is the client-observed
// round trip (send -> matching reply).  Each thread keeps one
// serve::ReplayTally; the tallies merge into the same serve::ReplayReport
// the in-process replay_trace returns (serve/replay.hpp) — merge order
// cannot change it, so the report is deterministic given the per-request
// samples.
//
// The wire-level accounting identity extends the engine's (DESIGN §16) with
// a transport failure class:
//
//   ok + shed + degraded + timed_out + draining + failed == requests
//
// `failed` counts requests answered by a typed Error frame or lost to a
// connection drop; nothing is silently dropped.
//
// Byte-identity is audited on the fly: every kOk/kDegraded response's
// schedule payload is hashed, and
//   * payload_consistent — within the run, equal fingerprints always
//     carried byte-identical schedule payloads;
//   * schedule_digest    — XOR over *distinct* fingerprints of
//     fnv1a(fingerprint || payload).  XOR makes the digest independent of
//     arrival order and of how many cache hits repeated a payload, so two
//     runs of the same trace — different pool widths, different connection
//     counts, cache on or off — must produce the same digest (the
//     determinism battery and net_smoke.sh assert exactly this).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "serve/replay.hpp"
#include "serve/request_trace.hpp"

namespace tsched::net {

struct NetReplayOptions {
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;
    std::size_t conns = 8;    ///< concurrent connections (threads); >= 1
    std::size_t window = 16;  ///< outstanding pipelined requests per connection; >= 1
    std::size_t epochs = 1;   ///< full passes over the stream (>= 1)
    double deadline_ms = 0.0;  ///< stamped on every request (<= 0 = none)
    std::string client_name = "net_replay";
};

/// Replay `trace` x epochs against a live server.  Connection failures are
/// not exceptions: a connection that cannot be established, or drops
/// mid-run, counts its unanswered requests as `failed`.  The report's
/// wire-only fields (conns, schedule_digest, payload_consistent) are
/// filled; stats and metrics stay empty.
[[nodiscard]] serve::ReplayReport replay_net(const std::vector<serve::TraceRequest>& trace,
                                             const NetReplayOptions& options);

}  // namespace tsched::net
