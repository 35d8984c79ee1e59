#include "loadgen.hpp"

#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>

#include "net/codec.hpp"
#include "report.hpp"
#include "util/fingerprint.hpp"

namespace perfbench {

namespace net = tsched::net;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::int64_t kSpinPollNs = 20'000;

std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
        .count();
}

void write_all_blocking(int fd, const std::string& bytes) {
    std::size_t done = 0;
    while (done < bytes.size()) {
        const long n = net::write_some(fd, bytes.data() + done, bytes.size() - done);
        if (n < 0) throw std::runtime_error("loadgen: write failed during handshake");
        done += static_cast<std::size_t>(n);
    }
}

struct Outstanding {
    std::int64_t intended_ns = 0;
    const tsched::serve::TraceRequest* request = nullptr;
};

}  // namespace

LoadGen::LoadGen(std::uint16_t port, std::size_t conns) : port_(port), conns_(conns) {
    connect();
}

void LoadGen::connect() {
    for (std::size_t i = 0; i < conns_.size(); ++i) {
        Conn& conn = conns_[i];
        conn = Conn();
        conn.fd = net::connect_tcp("127.0.0.1", port_);
        net::WireHello hello;
        hello.client_name = "perfbench#" + std::to_string(i);
        write_all_blocking(conn.fd.get(),
                           net::encode_frame(net::FrameType::kHello, net::encode_hello(hello)));
        std::optional<net::Frame> frame;
        char buffer[4096];
        while (!(frame = conn.decoder.next())) {
            if (conn.decoder.failed()) throw std::runtime_error("loadgen: bad handshake frame");
            const long n = ::recv(conn.fd.get(), buffer, sizeof buffer, 0);
            if (n <= 0) throw std::runtime_error("loadgen: connection closed during handshake");
            conn.decoder.feed(std::string_view(buffer, static_cast<std::size_t>(n)));
        }
        if (frame->type != net::FrameType::kHelloAck)
            throw std::runtime_error("loadgen: handshake refused");
        net::set_nonblocking(conn.fd.get());
        net::set_nodelay(conn.fd.get());
    }
}

void LoadGen::flush(Conn& conn) {
    while (conn.out_offset < conn.out.size()) {
        const long n = net::write_some(conn.fd.get(), conn.out.data() + conn.out_offset,
                                       conn.out.size() - conn.out_offset);
        if (n < 0) throw std::runtime_error("loadgen: connection lost while sending");
        if (n == 0) break;  // socket buffer full; POLLOUT resumes it
        conn.out_offset += static_cast<std::size_t>(n);
    }
    if (conn.out_offset == conn.out.size()) {
        conn.out.clear();
        conn.out_offset = 0;
    }
}

StepResult LoadGen::run(const std::vector<Arrival>& arrivals, double rate, double drain_s,
                        const std::function<void()>& on_tick) {
    StepResult step;
    step.rate = rate;
    step.latency_ms.reserve(arrivals.size());
    step.lag_ms.reserve(arrivals.size());
    std::unordered_map<std::uint64_t, Outstanding> outstanding;
    outstanding.reserve(arrivals.size());

    const auto record = [&step](double latency) { step.latency_ms.push_back(latency); };
    const auto on_frame = [&](const net::Frame& frame, std::int64_t now) {
        if (frame.type == net::FrameType::kError) {
            const net::WireError error = net::decode_error(frame.payload);
            if (error.request_id == 0)
                throw std::runtime_error("loadgen: session error from server: " + error.message);
            if (outstanding.erase(error.request_id) == 0)
                throw std::runtime_error("loadgen: error reply for an unknown request id");
            ++step.errors;
            record(kInf);
            return;
        }
        if (frame.type != net::FrameType::kResponse)
            throw std::runtime_error("loadgen: unexpected frame type from server");
        const net::WireResponse response = net::decode_response(frame.payload);
        const auto it = outstanding.find(response.id);
        if (it == outstanding.end())
            throw std::runtime_error("loadgen: reply for an unknown request id");
        const double latency = static_cast<double>(now - it->second.intended_ns) / 1e6;
        switch (response.outcome) {
            case tsched::serve::ServeOutcome::kOk:
                ++step.ok;
                step.tasks_ok += it->second.request->size;
                record(latency);
                break;
            case tsched::serve::ServeOutcome::kDegraded:
                ++step.degraded;
                record(latency);
                break;
            case tsched::serve::ServeOutcome::kShed: ++step.shed; record(kInf); break;
            case tsched::serve::ServeOutcome::kTimedOut: ++step.timed_out; record(kInf); break;
            case tsched::serve::ServeOutcome::kDraining: ++step.draining; record(kInf); break;
        }
        if (response.has_schedule()) {
            tsched::Fnv1a hasher;
            hasher.u64(response.fingerprint);
            hasher.str(response.schedule_bytes);
            const auto [seen, inserted] =
                seen_.try_emplace(response.fingerprint, SeenPayload{hasher.value(), {}});
            if (inserted) seen->second.request = *it->second.request;
            else if (seen->second.hash != hasher.value()) payload_consistent_ = false;
        }
        outstanding.erase(it);
    };

    std::vector<pollfd> fds(conns_.size());
    char buffer[1 << 16];
    std::size_t next = 0;
    std::size_t rr = 0;
    const std::int64_t start = now_ns();
    std::int64_t last_tick = start;
    std::int64_t drain_deadline = std::numeric_limits<std::int64_t>::max();
    for (;;) {
        std::int64_t now = now_ns();
        // Send everything that is due.
        while (next < arrivals.size() && start + arrivals[next].offset_ns <= now) {
            const Arrival& arrival = arrivals[next];
            net::WireRequest request;
            request.id = next_id_++;
            request.trace = arrival.request;
            Conn& conn = conns_[rr++ % conns_.size()];
            conn.out += net::encode_frame(net::FrameType::kRequest, net::encode_request(request));
            flush(conn);
            const std::int64_t intended = start + arrival.offset_ns;
            outstanding.emplace(request.id, Outstanding{intended, &arrival.request});
            step.lag_ms.push_back(static_cast<double>(now_ns() - intended) / 1e6);
            ++step.sent;
            if (++next == arrivals.size()) {
                step.backlog_end = outstanding.size();
                step.send_window_s = static_cast<double>(now_ns() - start) / 1e9;
                drain_deadline = now_ns() + static_cast<std::int64_t>(drain_s * 1e9);
            }
            now = now_ns();
        }
        if (on_tick && now - last_tick >= 1'000'000) {
            on_tick();
            last_tick = now;
        }
        if (next == arrivals.size() && outstanding.empty()) break;
        if (now > drain_deadline) break;

        // The generator never sleeps: on a virtual machine a sleeping thread
        // can take milliseconds to wake, which would show up as send lag and
        // as late reply timestamps.  It spins on the clock and polls the
        // sockets without blocking at least every kSpinPollNs.
        std::int64_t until = now + kSpinPollNs;
        if (next < arrivals.size()) until = std::min(until, start + arrivals[next].offset_ns);
        while (now_ns() < until) {
        }
        for (std::size_t i = 0; i < conns_.size(); ++i) {
            fds[i].fd = conns_[i].fd.get();
            fds[i].events = static_cast<short>(POLLIN | (conns_[i].out.empty() ? 0 : POLLOUT));
            fds[i].revents = 0;
        }
        const int ready = ::poll(fds.data(), fds.size(), 0);
        if (ready < 0) {
            if (errno == EINTR) continue;
            throw std::runtime_error(std::string("loadgen: poll: ") + std::strerror(errno));
        }
        if (ready == 0) continue;
        for (std::size_t i = 0; i < conns_.size(); ++i) {
            Conn& conn = conns_[i];
            if (fds[i].revents & POLLOUT) flush(conn);
            if (!(fds[i].revents & (POLLIN | POLLHUP | POLLERR))) continue;
            for (;;) {
                const long n = net::read_some(conn.fd.get(), buffer, sizeof buffer);
                if (n < 0) throw std::runtime_error("loadgen: server closed a connection");
                if (n == 0) break;
                conn.decoder.feed(std::string_view(buffer, static_cast<std::size_t>(n)));
                const std::int64_t arrived = now_ns();
                while (auto frame = conn.decoder.next()) on_frame(*frame, arrived);
                if (conn.decoder.failed())
                    throw std::runtime_error(std::string("loadgen: bad frame from server: ") +
                                             net::frame_error_name(conn.decoder.error()));
                if (static_cast<std::size_t>(n) < sizeof buffer) break;
            }
        }
    }
    step.unanswered = outstanding.size();
    if (step.unanswered > 0) {
        // Their replies may still come; drop the connections so they cannot
        // reach a later step.
        for (std::size_t i = 0; i < step.unanswered; ++i) record(kInf);
        ++aborted_steps_;
        connect();
    }
    return step;
}

}  // namespace perfbench
