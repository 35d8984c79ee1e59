// Network serving tests (src/net): frame format + hostile-input battery,
// codec round trips, and live socket integration — handshake, cache-hit
// responses, multi-client replay, malformed-frame resilience, backpressure,
// connection caps, and drain semantics (including two servers sharing one
// ThreadPool: draining one must not disturb the other).
//
// Every suite name starts with "Net" so the CI TSan leg can select the
// whole battery with -R 'Net'.  Integration tests bind loopback port 0
// (ephemeral) — no fixed ports, no collisions, no flakes.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/time.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "analysis/net_lints.hpp"
#include "core/registry.hpp"
#include "net/client.hpp"
#include "net/codec.hpp"
#include "net/frame.hpp"
#include "net/net_replay.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "sched/schedule.hpp"
#include "serve/chaos.hpp"
#include "serve/replay.hpp"
#include "serve/request.hpp"
#include "serve/request_trace.hpp"
#include "serve/serve_engine.hpp"
#include "trace/counters.hpp"
#include "workload/instance.hpp"
#include "util/fingerprint.hpp"
#include "util/thread_pool.hpp"

namespace tsched {
namespace {

using net::Frame;
using net::FrameDecoder;
using net::FrameError;
using net::FrameType;

// ---------------------------------------------------------------------------
// Shared fixtures/helpers.
// ---------------------------------------------------------------------------

serve::TraceRequest small_request(std::uint64_t seed = 1) {
    serve::TraceRequest request;
    request.algo = "heft";
    request.shape = workload::Shape::kLayered;
    request.size = 30;
    request.procs = 4;
    request.net = workload::Net::kUniform;
    request.ccr = 1.0;
    request.beta = 0.5;
    request.seed = seed;
    return request;
}

std::vector<serve::TraceRequest> small_trace(std::size_t count) {
    std::vector<serve::TraceRequest> trace;
    for (std::size_t i = 0; i < count; ++i)
        trace.push_back(small_request(1 + i % (count / 2 + 1)));  // ~half repeats
    return trace;
}

/// The wire smokes' stream: 32 ils-d requests (layered n=60, P=8) with an
/// exact 50% repeat fraction.
std::vector<serve::TraceRequest> gate_trace() {
    serve::TraceGenParams params;
    params.requests = 32;
    params.repeat_frac = 0.5;
    params.algos = {"ils-d"};
    params.size = 60;
    params.procs = 8;
    params.seed = 2007;
    return serve::generate_trace(params);
}

net::ServerConfig loopback_config() {
    net::ServerConfig config;
    config.port = 0;
    return config;
}

/// Raw (non-ServeClient) connection for protocol-violation tests.
struct RawConn {
    net::FdHandle fd;
    FrameDecoder decoder;

    explicit RawConn(std::uint16_t port) : fd(net::connect_tcp("127.0.0.1", port)) {}

    void send_bytes(std::string_view bytes) {
        std::size_t written = 0;
        while (written < bytes.size()) {
            const ssize_t n =
                ::send(fd.get(), bytes.data() + written, bytes.size() - written, MSG_NOSIGNAL);
            ASSERT_GT(n, 0) << "send failed: errno " << errno;
            written += static_cast<std::size_t>(n);
        }
    }

    /// Blocking read until one frame decodes or the peer closes (nullopt).
    std::optional<Frame> read_frame() {
        while (true) {
            if (auto frame = decoder.next()) return frame;
            if (decoder.failed()) return std::nullopt;
            char buf[4096];
            ssize_t n = 0;
            do {
                n = ::recv(fd.get(), buf, sizeof buf, 0);
            } while (n < 0 && errno == EINTR);
            if (n <= 0) return std::nullopt;
            decoder.feed(std::string_view(buf, static_cast<std::size_t>(n)));
        }
    }

    /// Like read_frame() but gives up after `ms` milliseconds of silence —
    /// for corrupted streams where the server may legitimately be waiting
    /// for payload bytes that will never arrive.
    std::optional<Frame> read_frame_with_timeout(int ms) {
        timeval tv{};
        tv.tv_sec = ms / 1000;
        tv.tv_usec = (ms % 1000) * 1000;
        ::setsockopt(fd.get(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
        while (true) {
            if (auto frame = decoder.next()) return frame;
            if (decoder.failed()) return std::nullopt;
            char buf[4096];
            const ssize_t n = ::recv(fd.get(), buf, sizeof buf, 0);
            if (n <= 0) return std::nullopt;  // EOF, timeout, or reset
            decoder.feed(std::string_view(buf, static_cast<std::size_t>(n)));
        }
    }

    /// True once the peer closes (EOF after draining anything pending).
    bool peer_closed() {
        while (true) {
            char buf[4096];
            ssize_t n = 0;
            do {
                n = ::recv(fd.get(), buf, sizeof buf, 0);
            } while (n < 0 && errno == EINTR);
            if (n == 0) return true;
            if (n < 0) return errno == ECONNRESET;
        }
    }
};

// ---------------------------------------------------------------------------
// NetFrame: format, incremental decode, hostile input.
// ---------------------------------------------------------------------------

TEST(NetFrame, RoundTripAllTypes) {
    for (const FrameType type : {FrameType::kHello, FrameType::kHelloAck, FrameType::kRequest,
                                 FrameType::kResponse, FrameType::kError}) {
        const std::string payload = "payload for " + std::string(net::frame_type_name(type));
        const std::string bytes = net::encode_frame(type, payload);
        ASSERT_EQ(bytes.size(), net::kFrameHeaderBytes + payload.size());
        FrameDecoder decoder;
        decoder.feed(bytes);
        const auto frame = decoder.next();
        ASSERT_TRUE(frame.has_value());
        EXPECT_EQ(frame->type, type);
        EXPECT_EQ(frame->payload, payload);
        EXPECT_FALSE(decoder.next().has_value());
        EXPECT_FALSE(decoder.failed());
        EXPECT_EQ(decoder.buffered(), 0u);
    }
}

TEST(NetFrame, GoldenHeaderBytes) {
    // "abc": the exact header layout is a wire contract (frame.hpp table).
    const std::string bytes = net::encode_frame(FrameType::kRequest, "abc");
    ASSERT_EQ(bytes.size(), 19u);
    const auto u8 = [&](std::size_t i) { return static_cast<unsigned char>(bytes[i]); };
    // magic 0x464E5354 little-endian: 54 53 4E 46 ("TSNF").
    EXPECT_EQ(u8(0), 0x54u);
    EXPECT_EQ(u8(1), 0x53u);
    EXPECT_EQ(u8(2), 0x4Eu);
    EXPECT_EQ(u8(3), 0x46u);
    EXPECT_EQ(u8(4), net::kProtocolVersion);
    EXPECT_EQ(u8(5), static_cast<unsigned char>(FrameType::kRequest));
    EXPECT_EQ(u8(6), 0u);  // reserved
    EXPECT_EQ(u8(7), 0u);
    EXPECT_EQ(u8(8), 3u);  // payload length LE
    EXPECT_EQ(u8(9), 0u);
    EXPECT_EQ(u8(10), 0u);
    EXPECT_EQ(u8(11), 0u);
    // CRC-32("abc") = 0x352441C2 (IEEE reflected — a published test vector).
    EXPECT_EQ(net::crc32("abc"), 0x352441C2u);
    EXPECT_EQ(u8(12), 0xC2u);
    EXPECT_EQ(u8(13), 0x41u);
    EXPECT_EQ(u8(14), 0x24u);
    EXPECT_EQ(u8(15), 0x35u);
    EXPECT_EQ(bytes.substr(16), "abc");
}

TEST(NetFrame, Crc32KnownVectors) {
    EXPECT_EQ(net::crc32(""), 0x00000000u);
    EXPECT_EQ(net::crc32("123456789"), 0xCBF43926u);  // the canonical check value
}

/// Bit-at-a-time reflected CRC-32: the definition the table-driven
/// implementation must reproduce exactly.
std::uint32_t crc32_bitwise(std::string_view data) {
    std::uint32_t crc = 0xFFFFFFFFu;
    for (const char ch : data) {
        crc ^= static_cast<unsigned char>(ch);
        for (int bit = 0; bit < 8; ++bit)
            crc = (crc & 1u) != 0 ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
    }
    return crc ^ 0xFFFFFFFFu;
}

TEST(NetFrame, Crc32MatchesBitwiseReferenceAtEveryLengthAndAlignment) {
    std::string buffer(257 + 8, '\0');
    std::uint64_t x = 0x9E3779B97F4A7C15ULL;
    for (char& c : buffer) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        c = static_cast<char>(x >> 24);
    }
    int mismatches = 0;
    for (std::size_t offset = 0; offset < 8; ++offset) {
        for (std::size_t length = 0; length <= 257; ++length) {
            const std::string_view slice(buffer.data() + offset, length);
            if (net::crc32(slice) != crc32_bitwise(slice)) {
                ADD_FAILURE() << "offset " << offset << " length " << length;
                if (++mismatches > 8) return;
            }
        }
    }
}

TEST(NetFrame, ReadyMeansNextProgressesWithoutMoreBytes) {
    const std::string bytes = net::encode_frame(FrameType::kRequest, "payload");
    FrameDecoder decoder;
    EXPECT_FALSE(decoder.ready());
    decoder.feed(std::string_view(bytes).substr(0, net::kFrameHeaderBytes + 3));
    EXPECT_FALSE(decoder.ready());  // header plus a partial payload
    decoder.feed(std::string_view(bytes).substr(net::kFrameHeaderBytes + 3));
    EXPECT_TRUE(decoder.ready());
    ASSERT_TRUE(decoder.next().has_value());
    EXPECT_FALSE(decoder.ready());

    std::string corrupt = bytes.substr(0, net::kFrameHeaderBytes);
    corrupt[0] = static_cast<char>(corrupt[0] ^ 1);
    FrameDecoder bad;
    bad.feed(corrupt);
    EXPECT_TRUE(bad.ready());  // a malformed header fails without more input
    EXPECT_FALSE(bad.next().has_value());
    EXPECT_TRUE(bad.failed());
    EXPECT_FALSE(bad.ready());
}

TEST(NetFrame, OneByteAtATime) {
    const std::string bytes =
        net::encode_frame(FrameType::kHello, "incremental") +
        net::encode_frame(FrameType::kError, "");
    FrameDecoder decoder;
    std::vector<Frame> frames;
    for (const char byte : bytes) {
        decoder.feed(std::string_view(&byte, 1));
        while (auto frame = decoder.next()) frames.push_back(std::move(*frame));
    }
    ASSERT_EQ(frames.size(), 2u);
    EXPECT_EQ(frames[0].type, FrameType::kHello);
    EXPECT_EQ(frames[0].payload, "incremental");
    EXPECT_EQ(frames[1].type, FrameType::kError);
    EXPECT_TRUE(frames[1].payload.empty());
}

TEST(NetFrame, EncodeOverCapThrows) {
    EXPECT_THROW((void)net::encode_frame(FrameType::kHello, std::string(65, 'x'), 64),
                 std::length_error);
    EXPECT_NO_THROW((void)net::encode_frame(FrameType::kHello, std::string(64, 'x'), 64));
}

// Every corruption class latches the matching sticky typed error.
TEST(NetFrame, TypedErrorBattery) {
    const std::string good = net::encode_frame(FrameType::kHello, "x");

    struct Case {
        const char* name;
        std::size_t offset;
        unsigned char value;
        FrameError expect;
    };
    const Case cases[] = {
        {"bad magic", 0, 0xFF, FrameError::kBadMagic},
        {"bad version", 4, 99, FrameError::kBadVersion},
        {"bad type", 5, 0, FrameError::kBadType},
        {"bad type high", 5, 200, FrameError::kBadType},
        {"reserved nonzero", 6, 1, FrameError::kBadReserved},
        {"reserved nonzero 2", 7, 0x80, FrameError::kBadReserved},
        {"bad crc", 12, static_cast<unsigned char>(good[12] ^ 0x01), FrameError::kBadCrc},
    };
    for (const Case& c : cases) {
        std::string bytes = good;
        bytes[c.offset] = static_cast<char>(c.value);
        FrameDecoder decoder;
        decoder.feed(bytes);
        EXPECT_FALSE(decoder.next().has_value()) << c.name;
        EXPECT_TRUE(decoder.failed()) << c.name;
        EXPECT_EQ(decoder.error(), c.expect) << c.name;
        // Sticky: feeding good bytes afterwards changes nothing.
        decoder.feed(good);
        EXPECT_FALSE(decoder.next().has_value()) << c.name;
        EXPECT_EQ(decoder.error(), c.expect) << c.name;
    }
}

// The oversized-length rejection must be O(1) at header-parse time: a
// 16-byte header declaring a 4 GiB payload fails immediately, without the
// decoder waiting for (or allocating) the declared length.
TEST(NetFrame, OversizedDeclaredLengthRejectedUpFront) {
    std::string header = net::encode_frame(FrameType::kHello, "");
    header.resize(net::kFrameHeaderBytes);
    header[8] = static_cast<char>(0xFF);  // declared length 0xFFFFFFFF
    header[9] = static_cast<char>(0xFF);
    header[10] = static_cast<char>(0xFF);
    header[11] = static_cast<char>(0xFF);
    FrameDecoder decoder(1 << 20);
    decoder.feed(header);  // 16 bytes only — no payload will ever arrive
    EXPECT_FALSE(decoder.next().has_value());
    EXPECT_TRUE(decoder.failed());
    EXPECT_EQ(decoder.error(), FrameError::kOversized);
    EXPECT_LE(decoder.buffered(), net::kFrameHeaderBytes);
}

TEST(NetFrame, TruncationIsPendingNotError) {
    const std::string bytes = net::encode_frame(FrameType::kHello, "hello world");
    FrameDecoder decoder;
    decoder.feed(std::string_view(bytes).substr(0, bytes.size() - 3));
    EXPECT_FALSE(decoder.next().has_value());
    EXPECT_FALSE(decoder.failed());  // short read: more bytes may arrive
    decoder.feed(std::string_view(bytes).substr(bytes.size() - 3));
    const auto frame = decoder.next();
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->payload, "hello world");
}

// Deterministic bit-flip fuzz: flip every bit of a two-frame stream, one at
// a time.  The decoder must never crash and must never *invent* bytes: the
// re-encoding of everything it emits must reproduce, byte for byte, a prefix
// of the corrupted input.  (A type-byte flip to another valid type decodes —
// the CRC covers the payload, not the header — but even then the emitted
// frame is exactly the bytes on the wire, so the prefix property holds.)
TEST(NetFrame, BitFlipFuzzNeverCrashes) {
    const std::string f1 = net::encode_frame(FrameType::kRequest, "first payload");
    const std::string f2 = net::encode_frame(FrameType::kResponse, "second");
    const std::string stream = f1 + f2;
    int decode_failures = 0;
    for (std::size_t bit = 0; bit < stream.size() * 8; ++bit) {
        std::string corrupt = stream;
        corrupt[bit / 8] = static_cast<char>(
            static_cast<unsigned char>(corrupt[bit / 8]) ^ (1u << (bit % 8)));
        FrameDecoder decoder;
        decoder.feed(corrupt);
        std::string replayed;
        while (auto frame = decoder.next())
            replayed += net::encode_frame(frame->type, frame->payload);
        if (decoder.failed()) ++decode_failures;
        EXPECT_EQ(corrupt.compare(0, replayed.size(), replayed), 0)
            << "bit " << bit << ": decoder emitted bytes it never received";
        // Payload corruption never passes silently: any emitted payload is
        // one of the two originals (the CRC guards payload bits; only
        // header-byte flips can alter what decodes).
        if (replayed.size() == corrupt.size() && bit >= net::kFrameHeaderBytes * 8) {
            const bool payload_bit_in_f1 = bit < f1.size() * 8;
            const std::size_t header2_start = f1.size() * 8;
            const bool in_some_header =
                bit < net::kFrameHeaderBytes * 8 ||
                (bit >= header2_start && bit < header2_start + net::kFrameHeaderBytes * 8);
            EXPECT_TRUE(in_some_header)
                << "bit " << bit << " flipped a payload bit yet both frames decoded"
                << (payload_bit_in_f1 ? " (frame 1)" : " (frame 2)");
        }
    }
    EXPECT_GT(decode_failures, 0);  // the battery actually exercised errors
}

// ---------------------------------------------------------------------------
// NetCodec: message round trips and hostile payloads.
// ---------------------------------------------------------------------------

TEST(NetCodec, HelloRoundTrip) {
    net::WireHello hello;
    hello.client_name = "test-client";
    const auto back = net::decode_hello(net::encode_hello(hello));
    EXPECT_EQ(back.codec_version, net::kCodecVersion);
    EXPECT_EQ(back.client_name, "test-client");

    net::WireHelloAck ack;
    ack.max_frame_bytes = 12345;
    ack.server_name = "srv";
    const auto ack_back = net::decode_hello_ack(net::encode_hello_ack(ack));
    EXPECT_EQ(ack_back.max_frame_bytes, 12345u);
    EXPECT_EQ(ack_back.server_name, "srv");
}

// The round-trip property that makes caching work over the wire: a decoded
// request materializes to the same fingerprint the sender's would.
TEST(NetCodec, RequestRoundTripPreservesFingerprint) {
    net::WireRequest request;
    request.id = 42;
    request.trace = small_request(7);
    request.deadline_ms = 12.5;
    request.options = "opts";
    const std::string bytes = net::encode_request(request);
    const auto back = net::decode_request(bytes);
    EXPECT_EQ(back.id, 42u);
    EXPECT_TRUE(back.trace == request.trace);
    EXPECT_EQ(back.deadline_ms, 12.5);
    EXPECT_EQ(back.options, "opts");

    const auto lhs = serve::materialize(request.trace);
    const auto rhs = serve::materialize(back.trace);
    EXPECT_EQ(serve::fingerprint_request(lhs), serve::fingerprint_request(rhs));
    // And the encoding itself is canonical: re-encoding is byte-identical.
    EXPECT_EQ(net::encode_request(back), bytes);
}

TEST(NetCodec, ResponseRoundTrip) {
    ScheduleDraft schedule_draft(2, 2);
    schedule_draft.add(0, 1, 0.0, 2.5);
    schedule_draft.add(1, 0, 2.5, 4.0);
    const Schedule schedule = std::move(schedule_draft).build();
    net::WireResponse response;
    response.id = 9;
    response.outcome = serve::ServeOutcome::kDegraded;
    response.cache_hit = true;
    response.fingerprint = 0xDEADBEEFu;
    response.schedule_bytes = net::encode_schedule(schedule);
    const std::string bytes = net::encode_response(response);
    const auto back = net::decode_response(bytes);
    EXPECT_EQ(back.id, 9u);
    EXPECT_EQ(back.outcome, serve::ServeOutcome::kDegraded);
    EXPECT_TRUE(back.cache_hit);
    EXPECT_FALSE(back.coalesced);
    EXPECT_EQ(back.fingerprint, 0xDEADBEEFu);
    EXPECT_EQ(back.schedule_bytes, response.schedule_bytes);
    EXPECT_EQ(net::encode_response(back), bytes);

    const Schedule decoded = net::decode_schedule(back.schedule_bytes);
    EXPECT_EQ(decoded.num_tasks(), 2u);
    EXPECT_EQ(decoded.num_procs(), 2u);
    EXPECT_EQ(decoded.num_placements(), 2u);
    // Canonical: re-encoding the decoded schedule is byte-identical.
    EXPECT_EQ(net::encode_schedule(decoded), response.schedule_bytes);
}

TEST(NetCodec, ErrorRoundTrip) {
    net::WireError error;
    error.request_id = 3;
    error.code = static_cast<std::uint32_t>(net::WireErrorCode::kRequestFailed);
    error.message = "boom";
    const auto back = net::decode_error(net::encode_error(error));
    EXPECT_EQ(back.request_id, 3u);
    EXPECT_EQ(back.code, static_cast<std::uint32_t>(net::WireErrorCode::kRequestFailed));
    EXPECT_EQ(back.message, "boom");
}

TEST(NetCodec, MalformedPayloadsThrowTyped) {
    const auto status_of = [](const auto& fn) {
        try {
            fn();
        } catch (const net::CodecError& e) {
            return e.status();
        }
        return net::CodecStatus::kOk;
    };
    net::WireRequest request;
    request.trace = small_request();
    const std::string good = net::encode_request(request);

    EXPECT_EQ(status_of([&] { (void)net::decode_request(good.substr(0, 5)); }),
              net::CodecStatus::kTruncated);
    EXPECT_EQ(status_of([&] { (void)net::decode_request(good + "zz"); }),
              net::CodecStatus::kTrailingBytes);
    {
        std::string bad = good;
        bad[8] = 99;  // body-format byte (after the u64 id)
        EXPECT_EQ(status_of([&] { (void)net::decode_request(bad); }),
                  net::CodecStatus::kBadBodyFormat);
    }
    {
        net::WireRequest zero = request;
        zero.trace.size = 0;
        EXPECT_EQ(status_of([&] { (void)net::decode_request(net::encode_request(zero)); }),
                  net::CodecStatus::kBadValue);
    }
    {
        // Unknown shape name: encode by hand with a bogus string.
        net::WireRequest bogus = request;
        std::string bytes = net::encode_request(bogus);
        const std::string shape = workload::shape_name(bogus.trace.shape);
        const auto pos = bytes.find(shape);
        ASSERT_NE(pos, std::string::npos);
        for (std::size_t i = 0; i < shape.size(); ++i) bytes[pos + i] = 'Z';
        EXPECT_EQ(status_of([&] { (void)net::decode_request(bytes); }),
                  net::CodecStatus::kBadEnum);
    }
    {
        std::string bad_outcome;
        net::WireResponse response;
        response.outcome = serve::ServeOutcome::kOk;
        bad_outcome = net::encode_response(response);
        bad_outcome[8] = 77;  // outcome byte
        EXPECT_EQ(status_of([&] { (void)net::decode_response(bad_outcome); }),
                  net::CodecStatus::kBadEnum);
    }
}

// A hostile schedule payload declaring astronomical counts must be rejected
// before any allocation sized by those counts.
TEST(NetCodec, HostileScheduleCountsRejected) {
    const auto encode_counts = [](std::uint64_t tasks, std::uint64_t procs,
                                  std::uint64_t placements) {
        std::string out;
        for (const std::uint64_t v : {tasks, procs, placements})
            for (int i = 0; i < 8; ++i)
                out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
        return out;
    };
    // 2^60 placements in a 24-byte payload.
    EXPECT_THROW((void)net::decode_schedule(encode_counts(4, 4, 1ull << 60)), net::CodecError);
    // Plausible placement count but absurd task/proc dimensions.
    EXPECT_THROW((void)net::decode_schedule(encode_counts(1ull << 60, 4, 0)), net::CodecError);
    EXPECT_THROW((void)net::decode_schedule(encode_counts(0, 1ull << 40, 0)), net::CodecError);
    // Truncated mid-header.
    EXPECT_THROW((void)net::decode_schedule(encode_counts(1, 1, 1).substr(0, 20)),
                 net::CodecError);
}

// ---------------------------------------------------------------------------
// NetServer: live-socket integration.
// ---------------------------------------------------------------------------

TEST(NetServer, StartStopIdempotent) {
    ThreadPool pool(2);
    net::ServeServer server(loopback_config(), pool);
    server.start();
    EXPECT_TRUE(server.running());
    EXPECT_GT(server.port(), 0);
    const auto report = server.stop();
    EXPECT_TRUE(report.clean);
    EXPECT_FALSE(server.running());
    const auto again = server.stop();  // idempotent
    EXPECT_TRUE(again.clean);
}

// While one slow computation is the only work, the loop sleeps in poll():
// the engine's completion hook, not a poll tick, wakes it to send the reply.
TEST(NetServer, LoopSleepsWhileTheOnlyComputationRuns) {
    struct SlowCompute final : serve::ChaosHook {
        void on_compute(std::uint64_t /*fp*/) override {
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
        }
    };
    ThreadPool pool(2);
    net::ServerConfig config = loopback_config();
    config.engine.chaos = std::make_shared<SlowCompute>();
    net::ServeServer server(config, pool);
    server.start();

    net::ClientConfig client_config;
    client_config.port = server.port();
    net::ServeClient client(client_config);
    const std::uint64_t before = server.stats().loop_wakeups;
    const auto reply = client.call(small_request());
    const std::uint64_t wakeups = server.stats().loop_wakeups - before;
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply.response->outcome, serve::ServeOutcome::kOk);
    EXPECT_FALSE(reply.response->cache_hit);
    // The request's arrival, the completion wake and a stray tick or two; a
    // 1 ms poll tick would wake about 50 times during the computation.
    EXPECT_LE(wakeups, 6u) << wakeups << " loop wake-ups for one 50 ms computation";
    EXPECT_GE(wakeups, 1u);
    server.stop();
}

TEST(NetServer, CallReturnsValidScheduleAndCacheHitFlag) {
    ThreadPool pool(2);
    net::ServeServer server(loopback_config(), pool);
    server.start();

    net::ClientConfig config;
    config.port = server.port();
    net::ServeClient client(config);
    EXPECT_EQ(client.server_info().server_name, "tsched_served");

    const auto first = client.call(small_request());
    ASSERT_TRUE(first.ok());
    EXPECT_EQ(first.response->outcome, serve::ServeOutcome::kOk);
    EXPECT_FALSE(first.response->cache_hit);
    ASSERT_TRUE(first.response->has_schedule());
    const Schedule schedule = net::decode_schedule(first.response->schedule_bytes);
    EXPECT_EQ(schedule.num_tasks(), small_request().size);

    const auto second = client.call(small_request());
    ASSERT_TRUE(second.ok());
    EXPECT_TRUE(second.response->cache_hit);
    EXPECT_EQ(second.response->fingerprint, first.response->fingerprint);
    // The wire-level bit-identity contract: cached == cold, byte for byte.
    EXPECT_EQ(second.response->schedule_bytes, first.response->schedule_bytes);

    server.stop();
}

TEST(NetServer, MultiClientReplayAccountingIdentity) {
    const std::pair<std::vector<serve::TraceRequest>, std::size_t> inputs[] = {
        {small_trace(16), 4}, {gate_trace(), 16}};  // (trace, window)
    for (const auto& [trace, window] : inputs) {
        SCOPED_TRACE(trace.front().algo);
        ThreadPool pool(4);
        net::ServeServer server(loopback_config(), pool);
        server.start();

        net::NetReplayOptions options;
        options.port = server.port();
        options.conns = 8;
        options.window = window;
        options.epochs = 2;
        const auto report = net::replay_net(trace, options);
        EXPECT_TRUE(report.accounting_ok());
        EXPECT_EQ(report.requests, trace.size() * 2u);
        EXPECT_EQ(report.replies, report.requests);
        EXPECT_EQ(report.ok, report.requests);
        EXPECT_EQ(report.failed, 0u);
        EXPECT_TRUE(report.payload_consistent);
        EXPECT_NE(report.schedule_digest, 0u);

        // stop() joins the loop thread, after which the counters are final
        // (the response counter ticks after the write syscall, so reading it
        // while the client races ahead would be off by the in-flight tail).
        server.stop();
        const auto stats = server.stats();
        EXPECT_EQ(stats.requests, report.requests);
        EXPECT_EQ(stats.responses, report.requests);
    }
}

// The wire hit path is work-free: replayed a second time, a 50%-repeat
// stream is answered entirely from the descriptor index and the cache, with
// no problem hashed (so none materialized) and nothing computed beyond the
// first epoch's distinct requests.  Counted, not timed.
TEST(NetServer, SecondEpochIsAllHitsWithNoRehashOrRecompute) {
    const auto trace = gate_trace();
    std::set<std::uint64_t> distinct;
    for (const auto& tr : trace) distinct.insert(serve::fingerprint_request(serve::materialize(tr)));
    const trace::Counter& hashes = trace::registry().counter("problem_content_hashes");

    ThreadPool pool(2);
    net::ServeServer server(loopback_config(), pool);
    server.start();
    net::NetReplayOptions options;
    options.port = server.port();
    options.conns = 4;
    options.window = 8;
    const auto first = net::replay_net(trace, options);
    ASSERT_EQ(first.ok, trace.size());
    EXPECT_EQ(server.engine_stats().computed, distinct.size());

    const std::uint64_t hashes_before = hashes.value();
    const auto second = net::replay_net(trace, options);
    EXPECT_EQ(hashes.value() - hashes_before, 0u) << "a repeated descriptor was re-hashed";
    EXPECT_EQ(second.ok, trace.size());
    EXPECT_EQ(second.cache_hits, trace.size());
    EXPECT_EQ(second.schedule_digest, first.schedule_digest);  // hits carry the cold bytes
    EXPECT_EQ(server.engine_stats().computed, distinct.size());
    server.stop();
}

// One trace, one ServeConfig, replayed in-process and over the wire with one
// request in flight at a time: both drivers produce the same report type and
// the same tally, so any gap between E17 and E21 numbers for a trace is the
// cost of the wire layer, not a difference in what was counted.
TEST(NetServer, InProcessAndWireReplayAgreeOnOneTrace) {
    serve::TraceGenParams params;
    params.requests = 24;
    params.repeat_frac = 0.5;
    params.size = 30;
    params.procs = 4;
    params.seed = 2007;
    const auto trace = serve::generate_trace(params);
    std::set<std::uint64_t> distinct;
    for (const auto& tr : trace) distinct.insert(serve::fingerprint_request(serve::materialize(tr)));
    const serve::ServeConfig config;
    constexpr std::size_t kEpochs = 2;
    ThreadPool pool(2);

    serve::ReplayOptions in_process_options;
    in_process_options.config = config;
    in_process_options.batch = 1;
    in_process_options.epochs = kEpochs;
    const serve::ReplayReport in_process = serve::replay_trace(trace, in_process_options, pool);

    net::ServerConfig server_config = loopback_config();
    server_config.engine = config;
    net::ServeServer server(server_config, pool);
    server.start();
    net::NetReplayOptions wire_options;
    wire_options.port = server.port();
    wire_options.conns = 1;
    wire_options.window = 1;
    wire_options.epochs = kEpochs;
    const serve::ReplayReport wire = net::replay_net(trace, wire_options);
    server.stop();

    EXPECT_TRUE(in_process.accounting_ok());
    EXPECT_TRUE(wire.accounting_ok());
    EXPECT_EQ(in_process.requests, trace.size() * kEpochs);
    EXPECT_EQ(wire.requests, in_process.requests);
    EXPECT_EQ(wire.replies, in_process.replies);
    EXPECT_EQ(wire.ok, in_process.ok);
    EXPECT_EQ(wire.shed, in_process.shed);
    EXPECT_EQ(wire.degraded, in_process.degraded);
    EXPECT_EQ(wire.timed_out, in_process.timed_out);
    EXPECT_EQ(wire.draining, in_process.draining);
    EXPECT_EQ(wire.failed, in_process.failed);
    // Sequential submission: every request after the first of its kind hits.
    EXPECT_EQ(in_process.cache_hits, in_process.requests - distinct.size());
    EXPECT_EQ(wire.cache_hits, in_process.cache_hits);
}

// The descriptor path: a repeat is answered from the descriptor index, and
// must carry exactly what materialize() + submit() in-process produces.
TEST(NetServer, RepeatedDescriptorAnswersLikeColdAndInProcess) {
    ThreadPool pool(2);
    net::ServeServer server(loopback_config(), pool);
    server.start();
    net::ClientConfig client_config;
    client_config.port = server.port();
    net::ServeClient client(client_config);

    const serve::TraceRequest descriptor = small_request(11);
    const auto cold = client.call(descriptor, 0.0, "opt=1");
    const auto warm = client.call(descriptor, 0.0, "opt=1");
    ASSERT_TRUE(cold.ok());
    ASSERT_TRUE(warm.ok());
    EXPECT_FALSE(cold.response->cache_hit);
    EXPECT_TRUE(warm.response->cache_hit);
    EXPECT_EQ(warm.response->schedule_bytes, cold.response->schedule_bytes);

    serve::ScheduleRequest request = serve::materialize(descriptor);
    request.options = "opt=1";
    EXPECT_EQ(warm.response->fingerprint, serve::fingerprint_request(request));
    serve::ServeEngine engine(serve::ServeConfig{}, pool);
    const auto local_cold = engine.serve(request);
    const auto local_hit = engine.serve(request);
    ASSERT_TRUE(local_hit.cache_hit);
    EXPECT_EQ(net::encode_response(*cold.response),
              net::encode_response(net::make_response(cold.id, local_cold)));
    EXPECT_EQ(net::encode_response(*warm.response),
              net::encode_response(net::make_response(warm.id, local_hit)));
    server.stop();
}

// Differential check: for every registered scheduler, the schedule a client
// fetches over the wire is byte-identical to the in-process schedule() of the
// same descriptor (the layout-golden shapes of test_schedule_io.cpp).
TEST(NetServer, EverySchedulerAnswersOverTheWireAsInProcess) {
    ThreadPool pool(2);
    net::ServeServer server(loopback_config(), pool);
    server.start();
    net::ClientConfig client_config;
    client_config.port = server.port();
    net::ServeClient client(client_config);
    for (const std::string& algo : scheduler_names()) {
        for (const auto& [shape, size] :
             {std::pair{workload::Shape::kLayered, std::size_t{60}},
              std::pair{workload::Shape::kGauss, std::size_t{9}}}) {
            for (const workload::Net links : {workload::Net::kUniform, workload::Net::kRing}) {
                serve::TraceRequest descriptor;
                descriptor.algo = algo;
                descriptor.shape = shape;
                descriptor.size = size;
                descriptor.procs = 4;
                descriptor.net = links;
                descriptor.ccr = 2.0;
                descriptor.seed = 7;
                SCOPED_TRACE(algo + " " + workload::shape_name(shape) + " " +
                             workload::net_name(links));
                const auto reply = client.call(descriptor);
                ASSERT_TRUE(reply.ok());
                const Schedule local =
                    make_scheduler(algo)->schedule(*serve::materialize(descriptor).problem);
                EXPECT_EQ(reply.response->schedule_bytes, net::encode_schedule(local));
            }
        }
    }
    server.stop();
}

// Frames left in a session's decoder by max_requests_per_tick must be served
// without waiting for new bytes: with one request per tick, 64 pipelined
// cache hits written at once used to cost one idle poll timeout each.
TEST(NetServer, LeftoverFramesAreServedWithoutWaitingForNewBytes) {
    net::ServerConfig config = loopback_config();
    config.max_requests_per_tick = 1;
    ThreadPool pool(2);
    net::ServeServer server(config, pool);
    server.start();
    net::ClientConfig client_config;
    client_config.port = server.port();
    net::ServeClient client(client_config);
    ASSERT_TRUE(client.call(small_request(5)).ok());  // every request below hits

    std::string burst;
    for (std::uint64_t i = 0; i < 64; ++i) {
        net::WireRequest wire;
        wire.id = 1000 + i;
        wire.trace = small_request(5);
        burst += net::encode_frame(FrameType::kRequest, net::encode_request(wire));
    }
    const auto start = std::chrono::steady_clock::now();
    client.send_raw(burst);
    std::set<std::uint64_t> answered;
    for (int i = 0; i < 64; ++i) {
        const auto reply = client.recv();
        ASSERT_TRUE(reply.ok());
        EXPECT_TRUE(reply.response->cache_hit);
        answered.insert(reply.id);
    }
    const auto elapsed = std::chrono::steady_clock::now() - start;
    EXPECT_EQ(answered.size(), 64u);
    EXPECT_LT(elapsed, std::chrono::seconds(2));
    server.stop();
}

// Response payloads are pure functions of content: same trace, different
// pool widths and connection counts, identical digests.
TEST(NetServer, DigestStableAcrossPoolWidthsAndConns) {
    for (const auto& trace : {small_trace(12), gate_trace()}) {
        SCOPED_TRACE(trace.front().algo);
        std::set<std::uint64_t> digests;
        for (const std::size_t threads : {2u, 8u}) {
            for (const std::size_t conns : {2u, 6u}) {
                ThreadPool pool(threads);
                net::ServeServer server(loopback_config(), pool);
                server.start();
                net::NetReplayOptions options;
                options.port = server.port();
                options.conns = conns;
                const auto report = net::replay_net(trace, options);
                EXPECT_TRUE(report.accounting_ok());
                EXPECT_TRUE(report.payload_consistent);
                EXPECT_NE(report.schedule_digest, 0u);
                digests.insert(report.schedule_digest);
                server.stop();
            }
        }
        EXPECT_EQ(digests.size(), 1u);
    }
}

TEST(NetServer, MalformedFrameGetsTypedErrorAndServerStaysUp) {
    ThreadPool pool(2);
    net::ServeServer server(loopback_config(), pool);
    server.start();

    {
        RawConn raw(server.port());
        raw.send_bytes("GET / HTTP/1.1\r\n\r\n");  // not a frame
        const auto frame = raw.read_frame();
        ASSERT_TRUE(frame.has_value());
        EXPECT_EQ(frame->type, FrameType::kError);
        const auto error = net::decode_error(frame->payload);
        EXPECT_EQ(error.request_id, 0u);  // session-level
        EXPECT_EQ(error.code,
                  static_cast<std::uint32_t>(net::WireErrorCode::kMalformedFrame));
        EXPECT_TRUE(raw.peer_closed());
    }

    // The server must keep serving honest clients afterwards.
    net::ClientConfig config;
    config.port = server.port();
    net::ServeClient client(config);
    const auto reply = client.call(small_request());
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply.response->outcome, serve::ServeOutcome::kOk);

    EXPECT_GE(server.stats().protocol_errors, 1u);
    server.stop();
}

// Deterministic malformed-frame fuzz over the wire: corrupted hello frames
// (bit flips in every header byte), truncated streams, and random garbage.
// Every session must end with either a typed error or a close — and the
// server must survive all of it and still answer a real client.
TEST(NetServer, MalformedFrameFuzzBatteryServerSurvives) {
    ThreadPool pool(2);
    net::ServeServer server(loopback_config(), pool);
    server.start();

    const std::string hello =
        net::encode_frame(FrameType::kHello, net::encode_hello(net::WireHello{}));
    for (std::size_t byte = 0; byte < net::kFrameHeaderBytes; ++byte) {
        for (const int mask : {0x01, 0x80}) {
            std::string corrupt = hello;
            corrupt[byte] =
                static_cast<char>(static_cast<unsigned char>(corrupt[byte]) ^ mask);
            RawConn raw(server.port());
            raw.send_bytes(corrupt);
            // Either a typed error frame arrives or the connection just
            // closes (a length-field flip can leave the server waiting for
            // payload that never comes — then *we* close).
            if (const auto frame = raw.read_frame_with_timeout(200)) {
                EXPECT_EQ(frame->type, FrameType::kError);
            }
        }
    }

    // Short reads: a lone truncated header, then EOF.
    {
        RawConn raw(server.port());
        raw.send_bytes(std::string_view(hello).substr(0, 7));
    }

    // Still alive and serving.
    net::ClientConfig config;
    config.port = server.port();
    net::ServeClient client(config);
    EXPECT_TRUE(client.call(small_request()).ok());
    server.stop();
}

TEST(NetServer, HandshakeViolationRequestFirstIsRejected) {
    ThreadPool pool(2);
    net::ServeServer server(loopback_config(), pool);
    server.start();

    RawConn raw(server.port());
    net::WireRequest request;
    request.id = 1;
    request.trace = small_request();
    raw.send_bytes(net::encode_frame(FrameType::kRequest, net::encode_request(request)));
    const auto frame = raw.read_frame();
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->type, FrameType::kError);
    const auto error = net::decode_error(frame->payload);
    EXPECT_EQ(error.code, static_cast<std::uint32_t>(net::WireErrorCode::kBadHandshake));
    EXPECT_TRUE(raw.peer_closed());
    server.stop();
}

TEST(NetServer, WrongCodecVersionRejected) {
    ThreadPool pool(2);
    net::ServeServer server(loopback_config(), pool);
    server.start();

    RawConn raw(server.port());
    net::WireHello hello;
    hello.codec_version = 999;
    raw.send_bytes(net::encode_frame(FrameType::kHello, net::encode_hello(hello)));
    const auto frame = raw.read_frame();
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->type, FrameType::kError);
    EXPECT_EQ(net::decode_error(frame->payload).code,
              static_cast<std::uint32_t>(net::WireErrorCode::kBadHandshake));
    server.stop();
}

TEST(NetServer, OversizedFrameFromClientIsTypedError) {
    net::ServerConfig config = loopback_config();
    config.max_frame_bytes = 1024;
    ThreadPool pool(2);
    net::ServeServer server(config, pool);
    server.start();

    RawConn raw(server.port());
    // Header declaring a payload over the server's cap; never send the rest.
    std::string header = net::encode_frame(FrameType::kHello, "");
    header.resize(net::kFrameHeaderBytes);
    header[8] = static_cast<char>(0xFF);
    header[9] = static_cast<char>(0xFF);
    header[10] = 0x10;
    raw.send_bytes(header);
    const auto frame = raw.read_frame();
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->type, FrameType::kError);
    const auto error = net::decode_error(frame->payload);
    EXPECT_EQ(error.code, static_cast<std::uint32_t>(net::WireErrorCode::kMalformedFrame));
    EXPECT_NE(error.message.find("oversized"), std::string::npos);
    server.stop();
}

TEST(NetServer, ConnectionCapRefusesWithTypedError) {
    net::ServerConfig config = loopback_config();
    config.max_conns = 1;
    ThreadPool pool(2);
    net::ServeServer server(config, pool);
    server.start();

    net::ClientConfig client_config;
    client_config.port = server.port();
    net::ServeClient first(client_config);  // occupies the only slot
    try {
        net::ServeClient second(client_config);
        FAIL() << "second connection should have been refused";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("too_many_connections"), std::string::npos);
    }
    EXPECT_TRUE(first.call(small_request()).ok());  // the first still works
    EXPECT_GE(server.stats().refused, 1u);
    server.stop();
}

// Backpressure: with computations frozen at the chaos gate and a
// per-connection queue of 2, a client pipelining 6 requests must trip the
// read pause; after the gate opens every request is still answered.
TEST(NetServer, BackpressurePausesReadsAndRecovers) {
    auto chaos = std::make_shared<serve::DeterministicChaos>(
        serve::ChaosOptions{.gate_stalls = true, .gate_all = true});
    net::ServerConfig config = loopback_config();
    config.per_conn_queue = 2;
    config.engine.chaos = chaos;
    ThreadPool pool(2);
    net::ServeServer server(config, pool);
    server.start();

    net::ClientConfig client_config;
    client_config.port = server.port();
    net::ServeClient client(client_config);
    std::vector<std::uint64_t> ids;
    for (std::uint64_t i = 0; i < 6; ++i) ids.push_back(client.send(small_request(100 + i)));

    // The gate is closed: nothing can complete, so the session's parked
    // futures reach per_conn_queue and reads pause.
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (server.stats().backpressure_pauses == 0 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_GE(server.stats().backpressure_pauses, 1u);

    chaos->release_stalls();
    std::set<std::uint64_t> answered;
    for (std::size_t i = 0; i < ids.size(); ++i) {
        const auto reply = client.recv();
        ASSERT_TRUE(reply.ok());
        EXPECT_EQ(reply.response->outcome, serve::ServeOutcome::kOk);
        answered.insert(reply.id);
    }
    EXPECT_EQ(answered.size(), ids.size());  // every id answered exactly once
    server.stop();
}

// Drain with in-flight work: requests the server has read are answered
// (computed or typed kDraining) and flushed before the connection closes.
TEST(NetServer, DrainDeliversInFlightReplies) {
    auto chaos = std::make_shared<serve::DeterministicChaos>(
        serve::ChaosOptions{.gate_stalls = true, .gate_all = true});
    net::ServerConfig config = loopback_config();
    config.engine.chaos = chaos;
    config.engine.drain_timeout_ms = 5000.0;
    ThreadPool pool(2);
    net::ServeServer server(config, pool);
    server.start();

    net::ClientConfig client_config;
    client_config.port = server.port();
    net::ServeClient client(client_config);
    std::vector<std::uint64_t> ids;
    for (std::uint64_t i = 0; i < 4; ++i) ids.push_back(client.send(small_request(200 + i)));

    // Wait until the server has submitted all four into the gated engine.
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (server.stats().requests < ids.size() &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ASSERT_EQ(server.stats().requests, ids.size());

    server.request_stop();          // drain begins; gate still closed
    chaos->release_stalls();        // in-flight work can now finish

    std::set<std::uint64_t> answered;
    try {
        for (std::size_t i = 0; i < ids.size(); ++i) {
            const auto reply = client.recv();
            ASSERT_TRUE(reply.ok());
            // Computed before the drain finished, or typed kDraining — both
            // are delivered answers, never a silent drop.
            answered.insert(reply.id);
        }
    } catch (const std::exception&) {
        // Connection closed early: fail below via the count.
    }
    EXPECT_EQ(answered.size(), ids.size()) << "in-flight replies lost in drain";

    const auto report = server.stop();
    EXPECT_TRUE(report.engine.clean);
    EXPECT_EQ(report.forced_sessions, 0u);
}

// Two servers, one ThreadPool: draining one must not disturb the other's
// sessions (the engine-level independence of PR 9, now at the wire level).
TEST(NetServer, TwoServersOnePoolIndependentDrain) {
    ThreadPool pool(4);
    net::ServeServer alpha(loopback_config(), pool);
    net::ServeServer beta(loopback_config(), pool);
    alpha.start();
    beta.start();

    // Client fire at alpha on a background thread...
    net::NetReplayOptions options;
    options.port = alpha.port();
    options.conns = 4;
    options.epochs = 4;
    auto replay = std::async(std::launch::async,
                             [&] { return net::replay_net(small_trace(12), options); });

    // ...while beta drains mid-fire.
    const auto beta_report = beta.stop();
    EXPECT_TRUE(beta_report.clean);

    const auto report = replay.get();
    EXPECT_TRUE(report.accounting_ok());
    EXPECT_EQ(report.ok, report.requests) << "alpha sessions disturbed by beta's drain";
    EXPECT_EQ(report.failed, 0u);

    const auto alpha_report = alpha.stop();
    EXPECT_TRUE(alpha_report.clean);
}

// Stopping a server mid-replay still accounts for every request (delivered,
// typed kDraining, or counted failed by the client) and drains the engine
// cleanly.  The stop follows the first request the server reads, so the
// race lands differently every run, and the identity must hold wherever it
// lands.
TEST(NetServer, DrainUnderClientFireKeepsTheAccountingIdentity) {
    const auto trace = gate_trace();
    for (const std::size_t threads : {2u, 8u}) {
        SCOPED_TRACE("pool width " + std::to_string(threads));
        ThreadPool pool(threads);
        net::ServeServer server(loopback_config(), pool);
        server.start();
        net::NetReplayOptions options;
        options.port = server.port();
        options.conns = 4;
        options.window = 16;
        options.epochs = 8;  // enough traffic to straddle the stop
        auto replay = std::async(std::launch::async,
                                 [&] { return net::replay_net(trace, options); });
        const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (server.stats().requests == 0 && std::chrono::steady_clock::now() < deadline)
            std::this_thread::yield();
        EXPECT_GT(server.stats().requests, 0u) << "no request arrived before the stop";
        server.request_stop();
        const net::NetDrainReport drain = server.stop();
        const auto report = replay.get();
        EXPECT_TRUE(report.accounting_ok());
        EXPECT_EQ(report.requests, trace.size() * options.epochs);
        EXPECT_TRUE(drain.engine.clean);
    }
}

// ---------------------------------------------------------------------------
// NetLints: TS08xx triggers.
// ---------------------------------------------------------------------------

TEST(NetLints, CleanConfigIsQuiet) {
    analysis::Diagnostics diags;
    analysis::lint_net_config(net::ServerConfig{}, diags);
    EXPECT_EQ(diags.size(), 0u) << "default ServerConfig must lint clean";
}

TEST(NetLints, EveryTriggerFires) {
    using analysis::Code;
    const auto codes_for = [](const net::ServerConfig& config) {
        analysis::Diagnostics diags;
        analysis::lint_net_config(config, diags);
        std::set<Code> codes;
        for (const auto& d : diags.all()) codes.insert(d.code);
        return codes;
    };
    {
        net::ServerConfig config;
        config.per_conn_queue = 0;
        EXPECT_TRUE(codes_for(config).count(Code::kNetNoBackpressure));
    }
    {
        net::ServerConfig config;
        config.max_frame_bytes = 64;
        EXPECT_TRUE(codes_for(config).count(Code::kNetFrameCapTiny));
    }
    {
        net::ServerConfig config;
        config.max_requests_per_tick = 0;
        EXPECT_TRUE(codes_for(config).count(Code::kNetDispatchStarved));
    }
    {
        net::ServerConfig config;
        config.flush_timeout_ms = -1.0;
        EXPECT_TRUE(codes_for(config).count(Code::kNetBadFlushTimeout));
    }
    {
        net::ServerConfig config;
        config.max_conns = 64;
        config.per_conn_queue = 64;
        config.engine.max_inflight = 4;
        config.engine.max_pending = 4;
        EXPECT_TRUE(codes_for(config).count(Code::kNetQueueExceedsGate));
    }
}

// ---------------------------------------------------------------------------
// NetReplay: option validation.
// ---------------------------------------------------------------------------

TEST(NetReplay, RejectsDegenerateOptions) {
    net::NetReplayOptions options;
    options.conns = 0;
    EXPECT_THROW((void)net::replay_net(small_trace(4), options), std::invalid_argument);
    options.conns = 1;
    options.window = 0;
    EXPECT_THROW((void)net::replay_net(small_trace(4), options), std::invalid_argument);
    options.window = 1;
    options.epochs = 0;
    EXPECT_THROW((void)net::replay_net(small_trace(4), options), std::invalid_argument);
}

// Every computation throws, so every request is answered by a typed Error
// frame on a session that stays open.  Each error reply is one reply and one
// failure; the worker must keep draining its window until every request it
// sent is answered, or the identity loses the requests still in flight.
TEST(NetReplay, ErrorRepliesKeepTheAccountingIdentity) {
    net::ServerConfig config = loopback_config();
    config.engine.chaos =
        std::make_shared<serve::DeterministicChaos>(serve::ChaosOptions{.throw_prob = 1.0});
    ThreadPool pool(2);
    net::ServeServer server(config, pool);
    server.start();

    net::NetReplayOptions options;
    options.port = server.port();
    options.conns = 1;
    options.window = 4;
    const auto report = net::replay_net(small_trace(8), options);
    server.stop();

    EXPECT_EQ(report.requests, 8u);
    EXPECT_EQ(report.replies, 8u);
    EXPECT_EQ(report.failed, 8u);
    EXPECT_EQ(report.ok, 0u);
    EXPECT_TRUE(report.accounting_ok());
}

TEST(NetReplay, EmptyTraceIsEmptyReport) {
    net::NetReplayOptions options;
    options.port = 1;  // never connected: the empty trace short-circuits
    const auto report = net::replay_net({}, options);
    EXPECT_EQ(report.requests, 0u);
    EXPECT_TRUE(report.accounting_ok());
}

}  // namespace
}  // namespace tsched
