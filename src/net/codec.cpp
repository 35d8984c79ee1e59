#include "net/codec.hpp"

#include <cstring>

#include "util/fingerprint.hpp"

namespace tsched::net {

namespace {

// Canonical little-endian writer mirroring the Fnv1a absorption encodings
// (util/fingerprint.hpp): u64 LE, doubles as canonicalized bit patterns,
// strings length-prefixed.
class Writer {
public:
    Writer() = default;
    /// Pre-size for a message of exactly `bytes` bytes.
    explicit Writer(std::size_t bytes) { out_.reserve(bytes); }

    void u8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }
    void u64(std::uint64_t v) {
        char bytes[8];
        for (int i = 0; i < 8; ++i) bytes[i] = static_cast<char>((v >> (8 * i)) & 0xff);
        out_.append(bytes, sizeof bytes);
    }
    void f64(double v) { u64(Fnv1a::canonical_bits(v)); }
    void str(std::string_view s) {
        u64(s.size());
        out_.append(s.data(), s.size());
    }
    [[nodiscard]] std::string take() { return std::move(out_); }

private:
    std::string out_;
};

class Reader {
public:
    explicit Reader(std::string_view payload) : data_(payload) {}

    std::uint8_t u8() {
        need(1);
        return static_cast<std::uint8_t>(data_[pos_++]);
    }
    std::uint64_t u64() {
        need(8);
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(static_cast<unsigned char>(data_[pos_ + static_cast<std::size_t>(i)]))
                 << (8 * i);
        pos_ += 8;
        return v;
    }
    double f64() {
        const std::uint64_t bits = u64();
        double v = 0.0;
        static_assert(sizeof(v) == sizeof(bits));
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }
    std::string str() {
        const std::uint64_t len = u64();
        if (len > data_.size() - pos_)
            throw CodecError(CodecStatus::kTruncated,
                             "net codec: string length " + std::to_string(len) +
                                 " overruns the payload");
        std::string s(data_.substr(pos_, len));
        pos_ += len;
        return s;
    }
    /// Every message must consume its payload exactly.
    void done() const {
        if (pos_ != data_.size())
            throw CodecError(CodecStatus::kTrailingBytes,
                             "net codec: " + std::to_string(data_.size() - pos_) +
                                 " trailing bytes after the message");
    }

private:
    void need(std::size_t n) const {
        if (n > data_.size() - pos_)
            throw CodecError(CodecStatus::kTruncated, "net codec: payload truncated");
    }

    std::string_view data_;
    std::size_t pos_ = 0;
};

workload::Shape shape_or_throw(const std::string& name) {
    try {
        return workload::shape_from_name(name);
    } catch (const std::exception&) {
        throw CodecError(CodecStatus::kBadEnum, "net codec: unknown shape '" + name + "'");
    }
}

workload::Net net_or_throw(const std::string& name) {
    try {
        return workload::net_from_name(name);
    } catch (const std::exception&) {
        throw CodecError(CodecStatus::kBadEnum, "net codec: unknown net '" + name + "'");
    }
}

}  // namespace

const char* codec_status_name(CodecStatus status) noexcept {
    switch (status) {
        case CodecStatus::kOk: return "ok";
        case CodecStatus::kTruncated: return "truncated";
        case CodecStatus::kTrailingBytes: return "trailing_bytes";
        case CodecStatus::kBadBodyFormat: return "bad_body_format";
        case CodecStatus::kBadEnum: return "bad_enum";
        case CodecStatus::kBadValue: return "bad_value";
    }
    return "unknown";
}

const char* wire_error_code_name(WireErrorCode code) noexcept {
    switch (code) {
        case WireErrorCode::kUnknown: return "unknown";
        case WireErrorCode::kMalformedFrame: return "malformed_frame";
        case WireErrorCode::kBadHandshake: return "bad_handshake";
        case WireErrorCode::kBadMessage: return "bad_message";
        case WireErrorCode::kRequestFailed: return "request_failed";
        case WireErrorCode::kTooManyConnections: return "too_many_connections";
        case WireErrorCode::kServerDraining: return "server_draining";
    }
    return "unknown";
}

std::string encode_hello(const WireHello& hello) {
    Writer w;
    w.u64(hello.codec_version);
    w.str(hello.client_name);
    return w.take();
}

WireHello decode_hello(std::string_view payload) {
    Reader r(payload);
    WireHello hello;
    hello.codec_version = r.u64();
    hello.client_name = r.str();
    r.done();
    return hello;
}

std::string encode_hello_ack(const WireHelloAck& ack) {
    Writer w;
    w.u64(ack.codec_version);
    w.u64(ack.max_frame_bytes);
    w.str(ack.server_name);
    return w.take();
}

WireHelloAck decode_hello_ack(std::string_view payload) {
    Reader r(payload);
    WireHelloAck ack;
    ack.codec_version = r.u64();
    ack.max_frame_bytes = r.u64();
    ack.server_name = r.str();
    r.done();
    return ack;
}

std::string encode_request(const WireRequest& request) {
    Writer w;
    w.u64(request.id);
    w.u8(kRequestBodyDescriptor);
    w.str(request.trace.algo);
    w.str(workload::shape_name(request.trace.shape));
    w.u64(request.trace.size);
    w.u64(request.trace.procs);
    w.str(workload::net_name(request.trace.net));
    w.f64(request.trace.ccr);
    w.f64(request.trace.beta);
    w.u64(request.trace.seed);
    w.f64(request.deadline_ms);
    w.str(request.options);
    return w.take();
}

WireRequest decode_request(std::string_view payload) {
    Reader r(payload);
    WireRequest request;
    request.id = r.u64();
    const std::uint8_t format = r.u8();
    if (format != kRequestBodyDescriptor)
        throw CodecError(CodecStatus::kBadBodyFormat,
                         "net codec: unknown request body format " + std::to_string(format));
    request.trace.algo = r.str();
    request.trace.shape = shape_or_throw(r.str());
    request.trace.size = r.u64();
    request.trace.procs = r.u64();
    request.trace.net = net_or_throw(r.str());
    request.trace.ccr = r.f64();
    request.trace.beta = r.f64();
    request.trace.seed = r.u64();
    request.deadline_ms = r.f64();
    request.options = r.str();
    if (request.trace.size == 0 || request.trace.procs == 0)
        throw CodecError(CodecStatus::kBadValue, "net codec: zero size or procs");
    r.done();
    return request;
}

std::string encode_response(const WireResponse& response) {
    Writer w(8 + 1 + 1 + 8 + 8 + response.schedule_bytes.size());
    w.u64(response.id);
    w.u8(static_cast<std::uint8_t>(response.outcome));
    std::uint8_t flags = 0;
    if (response.cache_hit) flags |= 1u;
    if (response.coalesced) flags |= 2u;
    w.u8(flags);
    w.u64(response.fingerprint);
    w.str(response.schedule_bytes);
    return w.take();
}

WireResponse decode_response(std::string_view payload) {
    Reader r(payload);
    WireResponse response;
    response.id = r.u64();
    const std::uint8_t outcome = r.u8();
    if (outcome > static_cast<std::uint8_t>(serve::ServeOutcome::kDraining))
        throw CodecError(CodecStatus::kBadEnum,
                         "net codec: unknown outcome " + std::to_string(outcome));
    response.outcome = static_cast<serve::ServeOutcome>(outcome);
    const std::uint8_t flags = r.u8();
    if ((flags & ~3u) != 0)
        throw CodecError(CodecStatus::kBadValue, "net codec: unknown response flags");
    response.cache_hit = (flags & 1u) != 0;
    response.coalesced = (flags & 2u) != 0;
    response.fingerprint = r.u64();
    response.schedule_bytes = r.str();
    r.done();
    return response;
}

std::string encode_error(const WireError& error) {
    Writer w;
    w.u64(error.request_id);
    w.u64(error.code);
    w.str(error.message);
    return w.take();
}

WireError decode_error(std::string_view payload) {
    Reader r(payload);
    WireError error;
    error.request_id = r.u64();
    const std::uint64_t code = r.u64();
    if (code > 0xFFFFFFFFull)
        throw CodecError(CodecStatus::kBadValue, "net codec: error code out of range");
    error.code = static_cast<std::uint32_t>(code);
    error.message = r.str();
    r.done();
    return error;
}

std::string encode_schedule(const Schedule& schedule) {
    Writer w(3 * 8 + schedule.num_placements() * 4 * 8);
    w.u64(schedule.num_tasks());
    w.u64(schedule.num_procs());
    w.u64(schedule.num_placements());
    for (const Placement& p : schedule.all_placements()) {
        w.u64(static_cast<std::uint64_t>(p.task));
        w.u64(static_cast<std::uint64_t>(p.proc));
        w.f64(p.start);
        w.f64(p.finish);
    }
    return w.take();
}

Schedule decode_schedule(std::string_view bytes) {
    Reader r(bytes);
    const std::uint64_t num_tasks = r.u64();
    const std::uint64_t num_procs = r.u64();
    const std::uint64_t num_placements = r.u64();
    // A placement occupies 32 bytes; reject counts the payload cannot hold
    // before constructing anything (hostile-length discipline, frame.hpp).
    // Wire schedules are complete (num_tasks <= num_placements), which also
    // bounds the Schedule allocation by the payload size.
    if (num_placements > bytes.size() / 32)
        throw CodecError(CodecStatus::kBadValue,
                         "net codec: placement count overruns the payload");
    if (num_tasks > num_placements || num_procs > (1u << 20))
        throw CodecError(CodecStatus::kBadValue,
                         "net codec: schedule dimensions exceed the placement count");
    ScheduleDraft schedule(num_tasks, num_procs);
    for (std::uint64_t i = 0; i < num_placements; ++i) {
        const std::uint64_t task = r.u64();
        const std::uint64_t proc = r.u64();
        const double start = r.f64();
        const double finish = r.f64();
        if (task >= num_tasks || proc >= num_procs)
            throw CodecError(CodecStatus::kBadValue, "net codec: placement id out of range");
        try {
            schedule.add(static_cast<TaskId>(task), static_cast<ProcId>(proc), start, finish);
        } catch (const std::invalid_argument& e) {
            throw CodecError(CodecStatus::kBadValue,
                             std::string("net codec: bad placement: ") + e.what());
        }
    }
    r.done();
    return std::move(schedule).build();
}

WireResponse make_response(std::uint64_t id, const serve::ServeResult& result) {
    WireResponse response;
    response.id = id;
    response.outcome = result.outcome;
    response.cache_hit = result.cache_hit;
    response.coalesced = result.coalesced;
    response.fingerprint = result.fingerprint;
    if (result.schedule) response.schedule_bytes = encode_schedule(*result.schedule);
    return response;
}

}  // namespace tsched::net
