#include "net/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <deque>
#include <future>
#include <system_error>
#include <utility>

#include "net/codec.hpp"
#include "net/frame.hpp"
#include "util/stopwatch.hpp"

namespace tsched::net {

namespace {

constexpr std::size_t kReadChunk = 16 * 1024;
constexpr int kReadsPerTick = 4;

}  // namespace

// ---------------------------------------------------------------------------
// Session: all state for one connection.  Owned and touched exclusively by
// the event-loop thread.
// ---------------------------------------------------------------------------

struct ServeServer::Session {
    enum class State : std::uint8_t { kHandshake, kOpen, kClosing, kClosed };

    explicit Session(FdHandle socket, std::size_t max_payload)
        : fd(std::move(socket)), decoder(max_payload) {}

    FdHandle fd;
    State state = State::kHandshake;
    FrameDecoder decoder;
    bool protocol_error_sent = false;
    bool was_paused = false;

    struct OutFrame {
        std::string bytes;
        std::size_t offset = 0;
        bool is_response = false;
    };
    std::deque<OutFrame> outbox;

    struct PendingReply {
        std::uint64_t id = 0;
        std::future<serve::ServeResult> future;
    };
    std::vector<PendingReply> pending;

    [[nodiscard]] bool open_for_requests() const noexcept { return state == State::kOpen; }
    [[nodiscard]] bool closed() const noexcept { return state == State::kClosed; }
    [[nodiscard]] std::size_t load() const noexcept { return pending.size() + outbox.size(); }
};

// ---------------------------------------------------------------------------
// Construction / lifecycle.
// ---------------------------------------------------------------------------

ServeServer::ServeServer(ServerConfig config, ThreadPool& pool)
    : config_(std::move(config)), pool_(pool), engine_(config_.engine, pool_, [this] {
          wake_loop();
      }) {}

ServeServer::~ServeServer() { (void)stop(); }

void ServeServer::start() {
    if (running_.load(std::memory_order_acquire) || loop_thread_.joinable() ||
        wake_write_.valid())
        throw std::logic_error("ServeServer: start() called twice");
    listener_ = listen_tcp(config_.host, config_.port, config_.listen_backlog);
    set_nonblocking(listener_.fd.get());
    port_ = listener_.port;

    int pipe_fds[2] = {-1, -1};
    if (::pipe(pipe_fds) != 0)
        throw std::system_error(errno, std::generic_category(), "pipe");
    wake_read_ = FdHandle(pipe_fds[0]);
    wake_write_ = FdHandle(pipe_fds[1]);
    set_nonblocking(wake_read_.get());
    set_nonblocking(wake_write_.get());

    stop_requested_.store(false, std::memory_order_release);
    running_.store(true, std::memory_order_release);
    loop_thread_ = std::thread([this] { loop(); });
}

void ServeServer::request_stop() noexcept {
    stop_requested_.store(true, std::memory_order_release);
    wake_loop();
}

void ServeServer::wake_loop() noexcept {
    // write(2) is async-signal-safe; the byte's only job is waking poll().
    if (wake_write_.valid()) {
        const ssize_t rc = ::write(wake_write_.get(), "x", 1);
        (void)rc;  // pipe full means a wake-up is already pending
    }
}

NetDrainReport ServeServer::stop() {
    request_stop();
    if (loop_thread_.joinable()) loop_thread_.join();
    stopped_ = true;
    return drain_report_;
}

void ServeServer::wait() {
    if (loop_thread_.joinable()) loop_thread_.join();
}

NetServerStats ServeServer::stats() const noexcept {
    NetServerStats s;
    s.accepted = accepted_.load(std::memory_order_relaxed);
    s.refused = refused_.load(std::memory_order_relaxed);
    s.handshakes = handshakes_.load(std::memory_order_relaxed);
    s.requests = requests_.load(std::memory_order_relaxed);
    s.responses = responses_.load(std::memory_order_relaxed);
    s.errors_sent = errors_sent_.load(std::memory_order_relaxed);
    s.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
    s.backpressure_pauses = backpressure_pauses_.load(std::memory_order_relaxed);
    s.bytes_in = bytes_in_.load(std::memory_order_relaxed);
    s.bytes_out = bytes_out_.load(std::memory_order_relaxed);
    s.loop_wakeups = loop_wakeups_.load(std::memory_order_relaxed);
    return s;
}

bool ServeServer::backpressured(const Session& session) const noexcept {
    return config_.per_conn_queue > 0 && session.load() >= config_.per_conn_queue;
}

// ---------------------------------------------------------------------------
// Event loop.
// ---------------------------------------------------------------------------

void ServeServer::loop() {
    bool draining = false;
    Stopwatch flush_clock;

    std::vector<pollfd> fds;
    while (true) {
        // --- enter the drain phase exactly once ---------------------------
        if (stop_requested_.load(std::memory_order_acquire) && !draining) {
            draining = true;
            listener_.fd.reset();
            // Resolves the engine's pending queue as kDraining, waits
            // (bounded by the engine's drain_timeout_ms) for in-flight
            // computations, and leaves every submitted future ready.
            drain_report_.engine = engine_.drain();
            // Frames buffered before the stop still get typed answers:
            // submits against a drained engine resolve kDraining instantly.
            for (auto& session : sessions_)
                if (session->open_for_requests()) process_frames(*session);
            flush_clock = Stopwatch();
        }

        // --- poll registration --------------------------------------------
        fds.clear();
        fds.push_back({wake_read_.get(), POLLIN, 0});
        const bool accepting = !draining && listener_.fd.valid();
        if (accepting) fds.push_back({listener_.fd.get(), POLLIN, 0});
        const std::size_t session_base = fds.size();
        bool any_buffered = false;
        for (auto& session : sessions_) {
            short events = 0;
            const bool paused = backpressured(*session);
            if (paused && !session->was_paused)
                backpressure_pauses_.fetch_add(1, std::memory_order_relaxed);
            session->was_paused = paused;
            if (!draining && !paused &&
                (session->state == Session::State::kHandshake ||
                 session->state == Session::State::kOpen)) {
                events |= POLLIN;
                // Frames left over by max_requests_per_tick: no new bytes
                // may ever arrive for them, so the loop must not sleep.
                if (session->decoder.ready()) any_buffered = true;
            }
            if (!session->outbox.empty()) events |= POLLOUT;
            fds.push_back({session->fd.get(), events, 0});
        }

        // Parked futures need no tick: the engine's completion hook writes
        // the wake pipe when a computation resolves them.
        const int timeout_ms = any_buffered ? 0 : (draining ? 5 : 200);
        const int rc = ::poll(fds.data(), static_cast<nfds_t>(fds.size()), timeout_ms);
        if (rc < 0 && errno != EINTR && errno != EAGAIN) break;  // unrecoverable
        loop_wakeups_.fetch_add(1, std::memory_order_relaxed);

        // --- wake pipe ----------------------------------------------------
        if (fds[0].revents != 0) {
            char buf[64];
            while (::read(wake_read_.get(), buf, sizeof buf) > 0) {
            }
        }

        // --- accept -------------------------------------------------------
        if (accepting && fds[1].revents != 0) accept_ready();

        // --- per-session work ---------------------------------------------
        for (std::size_t i = 0; i < sessions_.size(); ++i) {
            Session& session = *sessions_[i];
            if (session.closed()) continue;
            const short revents =
                session_base + i < fds.size() ? fds[session_base + i].revents : 0;
            if ((revents & (POLLERR | POLLHUP | POLLNVAL)) != 0 &&
                (revents & POLLIN) == 0 && session.outbox.empty()) {
                session.state = Session::State::kClosed;
                continue;
            }
            if ((revents & POLLIN) != 0) read_session(session);
            if (!session.closed() && !draining) process_frames(session);
            if (!session.closed()) pump_futures(session);
            if (!session.closed()) flush_session(session);
            if (session.state == Session::State::kClosing && session.outbox.empty())
                session.state = Session::State::kClosed;
        }
        sessions_.erase(std::remove_if(sessions_.begin(), sessions_.end(),
                                       [](const std::unique_ptr<Session>& s) {
                                           return s->closed();
                                       }),
                        sessions_.end());

        // --- drain exit condition -----------------------------------------
        if (draining) {
            bool all_flushed = true;
            for (auto& session : sessions_) {
                pump_futures(*session);
                flush_session(*session);
                if (!session->pending.empty() || !session->outbox.empty()) all_flushed = false;
            }
            if (all_flushed) {
                drain_report_.flushed_sessions += sessions_.size();
                sessions_.clear();
                break;
            }
            if (flush_clock.elapsed_ms() > config_.flush_timeout_ms) {
                for (auto& session : sessions_)
                    if (!session->pending.empty() || !session->outbox.empty())
                        ++drain_report_.forced_sessions;
                    else
                        ++drain_report_.flushed_sessions;
                sessions_.clear();
                drain_report_.clean = false;
                break;
            }
        }
    }

    drain_report_.clean = drain_report_.clean && drain_report_.engine.clean;
    running_.store(false, std::memory_order_release);
}

void ServeServer::accept_ready() {
    while (true) {
        FdHandle conn(::accept(listener_.fd.get(), nullptr, nullptr));
        if (!conn.valid()) {
            if (errno == EINTR) continue;
            return;  // EAGAIN or transient accept failure: try next tick
        }
        if (config_.max_conns > 0 && sessions_.size() >= config_.max_conns) {
            // Typed refusal (still a blocking fd: the frame is tiny and the
            // socket buffer is empty, so this cannot stall the loop).
            WireError err;
            err.code = static_cast<std::uint32_t>(WireErrorCode::kTooManyConnections);
            err.message = "connection cap " + std::to_string(config_.max_conns) + " reached";
            const std::string frame = encode_frame(FrameType::kError, encode_error(err),
                                                   config_.max_frame_bytes);
            (void)::send(conn.get(), frame.data(), frame.size(), MSG_NOSIGNAL);
            refused_.fetch_add(1, std::memory_order_relaxed);
            continue;
        }
        set_nonblocking(conn.get());
        set_nodelay(conn.get());
        accepted_.fetch_add(1, std::memory_order_relaxed);
        sessions_.push_back(std::make_unique<Session>(std::move(conn), config_.max_frame_bytes));
    }
}

void ServeServer::read_session(Session& session) {
    char buf[kReadChunk];
    for (int i = 0; i < kReadsPerTick; ++i) {
        const long n = read_some(session.fd.get(), buf, sizeof buf);
        if (n > 0) {
            bytes_in_.fetch_add(static_cast<std::uint64_t>(n), std::memory_order_relaxed);
            session.decoder.feed(std::string_view(buf, static_cast<std::size_t>(n)));
            if (static_cast<std::size_t>(n) < sizeof buf) break;
            continue;
        }
        if (n == 0) break;  // EAGAIN
        // EOF or error: deliver what is already queued, then close.
        session.state = session.outbox.empty() ? Session::State::kClosed
                                               : Session::State::kClosing;
        return;
    }
}

void ServeServer::process_frames(Session& session) {
    std::size_t handled = 0;
    while (!session.closed() && session.state != Session::State::kClosing &&
           handled < config_.max_requests_per_tick && !backpressured(session)) {
        auto frame = session.decoder.next();
        if (!frame) break;
        handle_frame(session, frame->type, frame->payload);
        ++handled;
    }
    if (session.decoder.failed() && !session.protocol_error_sent) {
        session.protocol_error_sent = true;
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        send_error(session, 0, WireErrorCode::kMalformedFrame,
                   std::string("malformed frame: ") +
                       frame_error_name(session.decoder.error()),
                   /*close_after=*/true);
    }
}

void ServeServer::handle_frame(Session& session, FrameType type, const std::string& payload) {
    if (session.state == Session::State::kHandshake) {
        if (type != FrameType::kHello) {
            send_error(session, 0, WireErrorCode::kBadHandshake,
                       "first frame must be hello", /*close_after=*/true);
            return;
        }
        WireHello hello;
        try {
            hello = decode_hello(payload);
        } catch (const CodecError& e) {
            send_error(session, 0, WireErrorCode::kBadMessage, e.what(), true);
            return;
        }
        if (hello.codec_version != kCodecVersion) {
            send_error(session, 0, WireErrorCode::kBadHandshake,
                       "codec version " + std::to_string(hello.codec_version) +
                           " != " + std::to_string(kCodecVersion),
                       true);
            return;
        }
        WireHelloAck ack;
        ack.max_frame_bytes = config_.max_frame_bytes;
        ack.server_name = config_.server_name;
        send_frame(session, FrameType::kHelloAck, encode_hello_ack(ack));
        session.state = Session::State::kOpen;
        handshakes_.fetch_add(1, std::memory_order_relaxed);
        return;
    }

    switch (type) {
        case FrameType::kRequest: {
            WireRequest wire;
            try {
                wire = decode_request(payload);
            } catch (const CodecError& e) {
                send_error(session, 0, WireErrorCode::kBadMessage, e.what(), true);
                return;
            }
            try {
                Session::PendingReply reply;
                reply.id = wire.id;
                reply.future = engine_.submit_descriptor(wire.trace, std::move(wire.options),
                                                         wire.deadline_ms);
                session.pending.push_back(std::move(reply));
                requests_.fetch_add(1, std::memory_order_relaxed);
            } catch (const std::exception& e) {
                // Materialization or pool-handoff failure: request-level
                // error, session stays open.
                send_error(session, wire.id, WireErrorCode::kRequestFailed, e.what(), false);
            }
            return;
        }
        case FrameType::kError:
            // Client-initiated abort: close quietly after flushing.
            session.state = session.outbox.empty() ? Session::State::kClosed
                                                   : Session::State::kClosing;
            return;
        case FrameType::kHello:
        case FrameType::kHelloAck:
        case FrameType::kResponse:
            send_error(session, 0, WireErrorCode::kBadMessage,
                       std::string("unexpected frame type ") + frame_type_name(type),
                       /*close_after=*/true);
            return;
    }
}

void ServeServer::pump_futures(Session& session) {
    for (std::size_t i = 0; i < session.pending.size();) {
        auto& reply = session.pending[i];
        if (reply.future.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
            ++i;
            continue;
        }
        const std::uint64_t id = reply.id;
        std::future<serve::ServeResult> future = std::move(reply.future);
        session.pending.erase(session.pending.begin() + static_cast<std::ptrdiff_t>(i));
        try {
            const serve::ServeResult result = future.get();
            Session::OutFrame out;
            out.bytes = encode_frame(FrameType::kResponse,
                                     encode_response(make_response(id, result)),
                                     config_.max_frame_bytes);
            out.is_response = true;
            session.outbox.push_back(std::move(out));
        } catch (const std::exception& e) {
            send_error(session, id, WireErrorCode::kRequestFailed, e.what(), false);
        }
    }
}

void ServeServer::send_frame(Session& session, FrameType type, const std::string& payload) {
    Session::OutFrame out;
    out.bytes = encode_frame(type, payload, config_.max_frame_bytes);
    session.outbox.push_back(std::move(out));
}

void ServeServer::send_error(Session& session, std::uint64_t request_id, WireErrorCode code,
                             const std::string& message, bool close_after) {
    WireError err;
    err.request_id = request_id;
    err.code = static_cast<std::uint32_t>(code);
    err.message = message;
    send_frame(session, FrameType::kError, encode_error(err));
    errors_sent_.fetch_add(1, std::memory_order_relaxed);
    if (close_after) session.state = Session::State::kClosing;
}

void ServeServer::flush_session(Session& session) {
    while (!session.outbox.empty()) {
        auto& out = session.outbox.front();
        const long n = write_some(session.fd.get(), out.bytes.data() + out.offset,
                                  out.bytes.size() - out.offset);
        if (n < 0) {
            session.state = Session::State::kClosed;
            return;
        }
        bytes_out_.fetch_add(static_cast<std::uint64_t>(n), std::memory_order_relaxed);
        out.offset += static_cast<std::size_t>(n);
        if (out.offset < out.bytes.size()) return;  // kernel buffer full
        if (out.is_response) responses_.fetch_add(1, std::memory_order_relaxed);
        session.outbox.pop_front();
    }
}

}  // namespace tsched::net
