// ServeServer: the socket front-end that puts a wire on the ServeEngine
// (DESIGN §17).
//
// One poll()-driven event-loop thread owns the listener and every
// per-connection Session state machine:
//
//   handshake --Hello/HelloAck--> open --stop()--> draining --flush--> closed
//
// Sessions speak length-prefixed CRC-checked frames (net/frame.hpp) carrying
// codec messages (net/codec.hpp).  The loop reads a bounded amount per
// session per tick and decodes at most `max_requests_per_tick` request
// frames per session per tick — per-client fair dispatch into the engine, so
// one firehose connection cannot starve its neighbours.  While any session
// still holds a complete frame left over by that budget, the loop polls with
// timeout 0 rather than sleeping: no new bytes may ever arrive to wake it.
// Each decoded request goes to ServeEngine::submit_descriptor(), which
// answers exactly what materialize() + submit() would; a repeated
// descriptor whose answer is cached is served from the engine's descriptor
// index (a process-local hash of the descriptor and options) without
// building the DAG or hashing the problem, and the key never reaches the
// wire, so kCodecVersion and kFingerprintVersion are unchanged.  The
// returned future is parked on the session and pumped into the outbox when
// ready.  Responses are correlated by the client-chosen request id and may
// complete out of order (cache hits resolve immediately); ordering across
// requests is explicitly NOT a protocol guarantee.
//
// Backpressure (the bounded-queue discipline of DESIGN §16, applied per
// connection): when a session's outstanding work — parked futures plus
// encoded-but-unsent response frames — reaches `per_conn_queue`, the loop
// stops polling that socket for reads.  The kernel receive buffer fills, TCP
// flow control pushes back on the client, and no queue in the server grows
// without bound.  Reading resumes as soon as replies drain.
//
// Shutdown composes with the engine's lifecycle: request_stop() (async-
// signal-safe — the tsched_served SIGTERM handler calls it directly) wakes
// the loop via a self-pipe; the loop closes the listener, stops reading new
// bytes, drains the engine (pending work resolves kDraining, in-flight work
// completes and its replies are still delivered), flushes every session's
// outbox bounded by `flush_timeout_ms`, and exits.  Frames already buffered
// when the stop arrived still get typed kDraining responses — a draining
// server answers everything it ever read, it just refuses to compute more.
//
// Wake-ups: the loop sleeps in poll() until a socket is ready, the wake pipe
// is written, or the idle timeout expires.  The engine runs a hook at the
// end of every pool closure (ServeEngine's `on_closure_done`), which writes
// one byte to the self-pipe, so a computed reply goes out as soon as it is
// resolved; cache hits resolve on the loop thread and write nothing.  The
// pipe is created once by start() and closed only when the server is
// destroyed, after the engine has joined every closure it launched, so the
// hook never writes to a closed or reused descriptor.
//
// Threading: the loop thread exclusively owns all session state; the
// constructor/start()/stop() run on the owner's thread; cross-thread
// communication is the stop flag, the wake pipe, and atomic counters.  The
// ThreadPool is borrowed (two servers can share one pool; draining one must
// not disturb the other — tests/test_net.cpp pins it).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/codec.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"
#include "serve/serve_engine.hpp"
#include "util/thread_pool.hpp"

namespace tsched::net {

struct ServerConfig {
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;        ///< 0 = ephemeral; read back via ServeServer::port()
    std::size_t max_conns = 64;    ///< concurrent sessions; 0 = unbounded
    std::size_t per_conn_queue = 64;  ///< outstanding replies per session; 0 = unbounded
    std::size_t max_frame_bytes = 1u << 20;  ///< frame payload cap (both directions)
    std::size_t max_requests_per_tick = 8;   ///< fair-dispatch budget per session per tick
    double flush_timeout_ms = 5000.0;  ///< post-drain outbox flush bound
    int listen_backlog = 64;
    std::string server_name = "tsched_served";
    serve::ServeConfig engine;  ///< cache + admission config (DESIGN §16 knobs)
};

struct NetServerStats {
    std::uint64_t accepted = 0;         ///< connections accepted
    std::uint64_t refused = 0;          ///< refused at the connection cap
    std::uint64_t handshakes = 0;       ///< sessions that completed Hello/HelloAck
    std::uint64_t requests = 0;         ///< request frames decoded and submitted
    std::uint64_t responses = 0;        ///< response frames fully written
    std::uint64_t errors_sent = 0;      ///< Error frames sent (session or request level)
    std::uint64_t protocol_errors = 0;  ///< sessions closed on a malformed stream
    std::uint64_t backpressure_pauses = 0;  ///< read-pause transitions
    std::uint64_t bytes_in = 0;
    std::uint64_t bytes_out = 0;
    std::uint64_t loop_wakeups = 0;  ///< event-loop iterations (poll() returns)
};

/// What shutdown did (mirrors serve::DrainReport one level up).
struct NetDrainReport {
    bool clean = true;              ///< engine drained and every outbox flushed in time
    serve::DrainReport engine;      ///< the engine-level drain outcome
    std::size_t flushed_sessions = 0;  ///< sessions whose outbox emptied before close
    std::size_t forced_sessions = 0;   ///< sessions closed with unsent replies
};

class ServeServer {
public:
    /// The pool is borrowed and must outlive the server (exactly the
    /// ServeEngine contract; the engine lives inside the server).
    ServeServer(ServerConfig config, ThreadPool& pool);

    /// stop()s if still running.
    ~ServeServer();

    ServeServer(const ServeServer&) = delete;
    ServeServer& operator=(const ServeServer&) = delete;

    /// Bind + listen (throws std::system_error on failure — port in use,
    /// bad host), then start the event loop thread.  After start() returns,
    /// port() is the live bound port.  A server starts at most once.
    void start();

    /// Async-signal-safe stop request: flags the loop and wakes it through
    /// the self-pipe.  Returns immediately; the loop performs the graceful
    /// drain described in the file header.
    void request_stop() noexcept;

    /// request_stop() + join the loop thread; returns the drain report.
    /// Idempotent (later calls return the first report).
    NetDrainReport stop();

    /// Block until the loop exits (a stop was requested by someone —
    /// typically a signal handler).  Does not itself request the stop.
    void wait();

    [[nodiscard]] bool running() const noexcept { return running_.load(std::memory_order_acquire); }
    [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
    [[nodiscard]] const ServerConfig& config() const noexcept { return config_; }
    [[nodiscard]] NetServerStats stats() const noexcept;
    [[nodiscard]] serve::EngineStats engine_stats() const { return engine_.stats(); }
    [[nodiscard]] obs::MetricsSnapshot engine_metrics() const { return engine_.metrics_snapshot(); }

private:
    struct Session;

    void loop();
    /// Write one byte to the wake pipe (async-signal-safe; a full pipe
    /// already holds a pending wake-up).
    void wake_loop() noexcept;
    void accept_ready();
    void read_session(Session& session);
    void process_frames(Session& session);
    void handle_frame(Session& session, FrameType type, const std::string& payload);
    void pump_futures(Session& session);
    void flush_session(Session& session);
    void send_frame(Session& session, FrameType type, const std::string& payload);
    void send_error(Session& session, std::uint64_t request_id, WireErrorCode code,
                    const std::string& message, bool close_after);
    [[nodiscard]] bool backpressured(const Session& session) const noexcept;

    ServerConfig config_;
    ThreadPool& pool_;
    // Declared before engine_ so the pipe outlives every engine closure.
    FdHandle wake_read_;
    FdHandle wake_write_;
    serve::ServeEngine engine_;

    Listener listener_;
    std::uint16_t port_ = 0;

    std::thread loop_thread_;
    std::atomic<bool> stop_requested_{false};
    std::atomic<bool> running_{false};
    bool stopped_ = false;          ///< owner-thread latch for idempotent stop()
    NetDrainReport drain_report_;   ///< written by the loop thread before exit

    std::vector<std::unique_ptr<Session>> sessions_;

    std::atomic<std::uint64_t> accepted_{0};
    std::atomic<std::uint64_t> refused_{0};
    std::atomic<std::uint64_t> handshakes_{0};
    std::atomic<std::uint64_t> requests_{0};
    std::atomic<std::uint64_t> responses_{0};
    std::atomic<std::uint64_t> errors_sent_{0};
    std::atomic<std::uint64_t> protocol_errors_{0};
    std::atomic<std::uint64_t> backpressure_pauses_{0};
    std::atomic<std::uint64_t> bytes_in_{0};
    std::atomic<std::uint64_t> bytes_out_{0};
    std::atomic<std::uint64_t> loop_wakeups_{0};
};

}  // namespace tsched::net
