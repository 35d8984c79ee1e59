#include "net/frame.hpp"

#include <array>
#include <stdexcept>

namespace tsched::net {

namespace {

// Slice-by-8 CRC-32 tables, generated once at static-init time.  tables[0]
// is the classic reflected bytewise table; tables[k][i] is the CRC of byte i
// followed by k zero bytes, so one step folds eight input bytes at once.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

CrcTables make_crc_tables() noexcept {
    CrcTables tables{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int bit = 0; bit < 8; ++bit)
            c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        tables[0][i] = c;
    }
    for (std::size_t k = 1; k < tables.size(); ++k)
        for (std::uint32_t i = 0; i < 256; ++i)
            tables[k][i] = (tables[k - 1][i] >> 8) ^ tables[0][tables[k - 1][i] & 0xffu];
    return tables;
}

const CrcTables& crc_tables() noexcept {
    static const CrcTables tables = make_crc_tables();
    return tables;
}

void put_u32le(std::string& out, std::uint32_t v) {
    for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

std::uint32_t get_u32le(const char* p) noexcept {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(static_cast<unsigned char>(p[i])) << (8 * i);
    return v;
}

}  // namespace

bool frame_type_known(std::uint8_t value) noexcept {
    return value >= static_cast<std::uint8_t>(FrameType::kHello) &&
           value <= static_cast<std::uint8_t>(FrameType::kError);
}

const char* frame_type_name(FrameType type) noexcept {
    switch (type) {
        case FrameType::kHello: return "hello";
        case FrameType::kHelloAck: return "hello_ack";
        case FrameType::kRequest: return "request";
        case FrameType::kResponse: return "response";
        case FrameType::kError: return "error";
    }
    return "unknown";
}

const char* frame_error_name(FrameError error) noexcept {
    switch (error) {
        case FrameError::kNone: return "none";
        case FrameError::kBadMagic: return "bad_magic";
        case FrameError::kBadVersion: return "bad_version";
        case FrameError::kBadType: return "bad_type";
        case FrameError::kBadReserved: return "bad_reserved";
        case FrameError::kOversized: return "oversized";
        case FrameError::kBadCrc: return "bad_crc";
    }
    return "unknown";
}

std::uint32_t crc32(std::string_view data) noexcept {
    const CrcTables& t = crc_tables();
    const char* p = data.data();
    std::size_t n = data.size();
    std::uint32_t crc = 0xFFFFFFFFu;
    for (; n >= 8; n -= 8, p += 8) {
        const std::uint32_t lo = crc ^ get_u32le(p);
        const std::uint32_t hi = get_u32le(p + 4);
        crc = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^ t[5][(lo >> 16) & 0xffu] ^
              t[4][lo >> 24] ^ t[3][hi & 0xffu] ^ t[2][(hi >> 8) & 0xffu] ^
              t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
    }
    for (; n > 0; --n, ++p)
        crc = t[0][(crc ^ static_cast<unsigned char>(*p)) & 0xffu] ^ (crc >> 8);
    return crc ^ 0xFFFFFFFFu;
}

std::string encode_frame(FrameType type, std::string_view payload, std::size_t max_payload) {
    if (payload.size() > max_payload)
        throw std::length_error("net::encode_frame: payload of " +
                                std::to_string(payload.size()) + " bytes exceeds the cap of " +
                                std::to_string(max_payload));
    std::string out;
    out.reserve(kFrameHeaderBytes + payload.size());
    put_u32le(out, kFrameMagic);
    out.push_back(static_cast<char>(kProtocolVersion));
    out.push_back(static_cast<char>(type));
    out.push_back(0);
    out.push_back(0);
    put_u32le(out, static_cast<std::uint32_t>(payload.size()));
    put_u32le(out, crc32(payload));
    out.append(payload);
    return out;
}

void FrameDecoder::feed(std::string_view bytes) {
    if (failed()) return;
    // Compact lazily: drop the consumed prefix before growing the buffer so
    // a long-lived session does not accrete every frame it ever decoded.
    if (consumed_ > 0 && (consumed_ >= buffer_.size() || consumed_ > 4096)) {
        buffer_.erase(0, consumed_);
        consumed_ = 0;
    }
    buffer_.append(bytes.data(), bytes.size());
}

FrameError FrameDecoder::check_header(const char* header) const noexcept {
    if (get_u32le(header) != kFrameMagic) return FrameError::kBadMagic;
    if (static_cast<std::uint8_t>(header[4]) != kProtocolVersion) return FrameError::kBadVersion;
    if (!frame_type_known(static_cast<std::uint8_t>(header[5]))) return FrameError::kBadType;
    if (header[6] != 0 || header[7] != 0) return FrameError::kBadReserved;
    // Validate the declared length against the cap *before* waiting for (or
    // allocating) any payload bytes: a hostile length field must cost O(1).
    if (get_u32le(header + 8) > max_payload_) return FrameError::kOversized;
    return FrameError::kNone;
}

bool FrameDecoder::ready() const noexcept {
    if (failed() || buffered() < kFrameHeaderBytes) return false;
    const char* header = buffer_.data() + consumed_;
    return check_header(header) != FrameError::kNone ||
           buffered() >= kFrameHeaderBytes + get_u32le(header + 8);
}

std::optional<Frame> FrameDecoder::next() {
    if (failed()) return std::nullopt;
    if (buffer_.size() - consumed_ < kFrameHeaderBytes) return std::nullopt;
    const char* header = buffer_.data() + consumed_;
    if (const FrameError error = check_header(header); error != FrameError::kNone) {
        error_ = error;
        return std::nullopt;
    }
    const auto raw_type = static_cast<std::uint8_t>(header[5]);
    const std::uint32_t declared = get_u32le(header + 8);
    if (buffer_.size() - consumed_ < kFrameHeaderBytes + declared) return std::nullopt;

    const std::string_view payload(buffer_.data() + consumed_ + kFrameHeaderBytes, declared);
    if (crc32(payload) != get_u32le(header + 12)) {
        error_ = FrameError::kBadCrc;
        return std::nullopt;
    }
    Frame frame;
    frame.type = static_cast<FrameType>(raw_type);
    frame.payload.assign(payload);
    consumed_ += kFrameHeaderBytes + declared;
    return frame;
}

}  // namespace tsched::net
