// Wire framing for the tsched serving protocol (DESIGN §17).
//
// Every message on a connection travels inside one length-prefixed binary
// frame:
//
//   offset  size  field
//   0       4     magic 0x464E5354 ("TSNF", little-endian u32)
//   4       1     protocol version (kProtocolVersion)
//   5       1     frame type (FrameType)
//   6       2     reserved, must be zero
//   8       4     payload length in bytes (little-endian u32)
//   12      4     CRC-32 (IEEE, reflected 0xEDB88320) of the payload bytes
//   16      len   payload
//
// All multi-byte header fields are little-endian, matching the canonical
// integer encoding the PR 5 fingerprint contract pinned (util/fingerprint.hpp);
// payload contents are the codec's business (net/codec.hpp).
//
// Decoding is incremental and hostile-input-safe: FrameDecoder::feed()
// appends whatever bytes arrived and parses as many complete frames as the
// buffer holds.  The declared payload length is validated against the
// configured cap *at header-parse time* and the decoder never allocates the
// declared length up front — a 4 GiB length field in a 16-byte datagram
// costs the decoder nothing.  Any malformed header or CRC mismatch moves the
// decoder into a sticky typed error state; the owning session answers with
// one Error frame and closes, and the server stays up (the malformed-frame
// battery in tests/test_net.cpp pins exactly that).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace tsched::net {

inline constexpr std::uint32_t kFrameMagic = 0x464E5354u;  // "TSNF" little-endian
inline constexpr std::uint8_t kProtocolVersion = 1;
inline constexpr std::size_t kFrameHeaderBytes = 16;
/// Default cap on a single frame's payload; ServerConfig/ClientConfig can
/// lower or raise it, but a decoder never accepts more than it was built
/// with.
inline constexpr std::size_t kDefaultMaxPayloadBytes = 1u << 20;

enum class FrameType : std::uint8_t {
    kHello = 1,     ///< client -> server, first frame on a connection
    kHelloAck = 2,  ///< server -> client, handshake accepted
    kRequest = 3,   ///< client -> server, one ScheduleRequest (codec.hpp)
    kResponse = 4,  ///< server -> client, one ServeResult (codec.hpp)
    kError = 5,     ///< either direction, typed error (codec.hpp)
};

/// True when `value` names a known FrameType.
[[nodiscard]] bool frame_type_known(std::uint8_t value) noexcept;
[[nodiscard]] const char* frame_type_name(FrameType type) noexcept;

/// Why a byte stream stopped being a frame stream.  Stable numbering: these
/// travel inside Error frames (codec.hpp) as the close reason.
enum class FrameError : std::uint8_t {
    kNone = 0,
    kBadMagic = 1,     ///< first four bytes are not "TSNF"
    kBadVersion = 2,   ///< protocol version mismatch
    kBadType = 3,      ///< unknown frame type
    kBadReserved = 4,  ///< reserved header bytes non-zero
    kOversized = 5,    ///< declared payload length above the decoder's cap
    kBadCrc = 6,       ///< payload CRC mismatch (bit rot or truncation)
};

[[nodiscard]] const char* frame_error_name(FrameError error) noexcept;

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over `data`,
/// computed slice-by-8 (eight bytes per step through eight derived tables;
/// the value is the bytewise algorithm's, bit for bit).
[[nodiscard]] std::uint32_t crc32(std::string_view data) noexcept;

struct Frame {
    FrameType type = FrameType::kHello;
    std::string payload;
};

/// Serialize one frame (header + payload).  Throws std::length_error when
/// the payload exceeds `max_payload` — the encoder enforces the same cap the
/// peer's decoder will.
[[nodiscard]] std::string encode_frame(FrameType type, std::string_view payload,
                                       std::size_t max_payload = kDefaultMaxPayloadBytes);

/// Incremental frame parser; see file header for the safety contract.
class FrameDecoder {
public:
    explicit FrameDecoder(std::size_t max_payload = kDefaultMaxPayloadBytes)
        : max_payload_(max_payload) {}

    /// Append received bytes.  No-op once the decoder is in an error state.
    void feed(std::string_view bytes);

    /// Pop the next complete frame, if any.  Returns std::nullopt when more
    /// bytes are needed or the decoder has failed (check error()).
    [[nodiscard]] std::optional<Frame> next();

    /// True when next() can make progress without more input: a complete
    /// frame is buffered, or the buffered header is already malformed (next()
    /// would latch the error).  The server's event loop polls without
    /// sleeping while any session has such a frame left over.
    [[nodiscard]] bool ready() const noexcept;

    /// Sticky: the first malformed header or CRC mismatch latches here and
    /// the decoder ignores everything after it (a corrupt stream has no
    /// trustworthy resynchronization point).
    [[nodiscard]] FrameError error() const noexcept { return error_; }
    [[nodiscard]] bool failed() const noexcept { return error_ != FrameError::kNone; }

    /// Bytes buffered but not yet consumed (diagnostics).
    [[nodiscard]] std::size_t buffered() const noexcept { return buffer_.size() - consumed_; }

private:
    /// Header validation shared by next() and ready(); kNone when valid.
    [[nodiscard]] FrameError check_header(const char* header) const noexcept;

    std::size_t max_payload_;
    std::string buffer_;
    std::size_t consumed_ = 0;  ///< prefix of buffer_ already handed out
    FrameError error_ = FrameError::kNone;
};

}  // namespace tsched::net
