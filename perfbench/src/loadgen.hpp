// Open-loop load generator for the wire workloads.
//
// One thread drives up to a few connections with a poll loop built on the
// public codec and framing functions (net::encode_request, encode_frame,
// FrameDecoder, decode_response); net::ServeClient cannot be used because
// it blocks and allows one connection per thread.  Requests leave on a
// precomputed schedule whether or not earlier replies have arrived, and a
// request's latency runs from its *intended* send time, so a stall in the
// server is charged to every request it delays (no coordinated omission).
//
// Every reply carrying a schedule is audited as it arrives: equal
// fingerprints must carry byte-identical payloads, and the first payload
// hash per fingerprint is kept, with the request that produced it, for the
// in-process oracle (wire.cpp).
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "net/frame.hpp"
#include "net/socket.hpp"
#include "serve/request_trace.hpp"

namespace perfbench {

/// One scheduled request: when to send it (ns after the step starts) and
/// what to send.
struct Arrival {
    std::int64_t offset_ns = 0;
    tsched::serve::TraceRequest request;
};

struct StepResult {
    double rate = 0.0;            ///< offered rate (req/s); 0 for a burst
    double send_window_s = 0.0;   ///< time from the step start to the last send
    std::uint64_t sent = 0;
    std::uint64_t ok = 0;
    std::uint64_t shed = 0;
    std::uint64_t degraded = 0;
    std::uint64_t timed_out = 0;
    std::uint64_t draining = 0;
    std::uint64_t errors = 0;      ///< answered by a typed Error frame
    std::uint64_t unanswered = 0;  ///< no reply before the drain deadline
    std::uint64_t tasks_ok = 0;    ///< tasks in requests answered ok
    std::uint64_t backlog_end = 0; ///< requests outstanding when the last one was sent
    std::vector<double> latency_ms;  ///< per request; +inf for any non-ok answer
    std::vector<double> lag_ms;      ///< how late each send left against its schedule

    [[nodiscard]] std::uint64_t not_ok() const noexcept {
        return shed + timed_out + draining + errors + unanswered;
    }
    [[nodiscard]] bool accounting_ok() const noexcept {
        return ok + shed + degraded + timed_out + draining + errors + unanswered == sent;
    }
};

/// First payload seen for a fingerprint, with the request that produced it.
struct SeenPayload {
    std::uint64_t hash = 0;  ///< fnv1a(fingerprint || schedule bytes)
    tsched::serve::TraceRequest request;
};

class LoadGen {
public:
    /// Connect `conns` sockets to 127.0.0.1:port and complete the handshake.
    LoadGen(std::uint16_t port, std::size_t conns);

    LoadGen(const LoadGen&) = delete;
    LoadGen& operator=(const LoadGen&) = delete;

    /// Send `arrivals` on schedule (round-robin over connections), then wait
    /// up to `drain_s` for the outstanding replies.  Requests still
    /// unanswered then count as `unanswered`, and the connections are closed
    /// and reopened so the next step starts clean.  `on_tick` (optional)
    /// runs about once per millisecond on the generator thread.  Throws on
    /// a transport or protocol failure.
    StepResult run(const std::vector<Arrival>& arrivals, double rate, double drain_s,
                   const std::function<void()>& on_tick = {});

    [[nodiscard]] bool payload_consistent() const noexcept { return payload_consistent_; }
    [[nodiscard]] const std::unordered_map<std::uint64_t, SeenPayload>& seen() const noexcept {
        return seen_;
    }
    [[nodiscard]] std::uint64_t total_sent() const noexcept { return next_id_ - 1; }
    /// Steps that ended with unanswered requests (and reconnected).
    [[nodiscard]] std::uint64_t aborted_steps() const noexcept { return aborted_steps_; }

private:
    struct Conn {
        tsched::net::FdHandle fd;
        tsched::net::FrameDecoder decoder;
        std::string out;
        std::size_t out_offset = 0;
    };

    void connect();
    void flush(Conn& conn);

    std::uint16_t port_;
    std::vector<Conn> conns_;
    std::uint64_t next_id_ = 1;
    std::uint64_t aborted_steps_ = 0;
    bool payload_consistent_ = true;
    std::unordered_map<std::uint64_t, SeenPayload> seen_;
};

}  // namespace perfbench
