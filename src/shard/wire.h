// fixyd's framing: length-prefixed, CRC-checked frames over the daemon's
// unix socket, in the spirit of the FXB container's framing (every
// structure bounds-checked and checksummed, every parse error a Status,
// never a crash). daemon/protocol.h defines the JSON bodies they carry.
//
// Frame layout (little-endian):
//
//   offset size field
//   0      1    u8 frame type (FrameType)
//   1      4    u32 payload length
//   5      ..   payload bytes
//   5+n    4    u32 CRC32 over (type byte + payload)
//
// Reads from a socket arrive in arbitrary chunks, so both ends parse
// incrementally with FrameParser. Any framing violation — unknown type,
// a payload over the parser's cap, CRC mismatch — marks the stream
// corrupt; nobody tries to resynchronize.
//
// The codec once also framed the pipe between a sharded ranking run's
// coordinator and its worker processes, hence the directory and the
// `fixy_shard` library name: the benchmark build links the library by
// that name.
#ifndef FIXY_SHARD_WIRE_H_
#define FIXY_SHARD_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace fixy::shard {

/// Type bytes 1-4 belonged to the retired worker pipe; they, like any
/// other unlisted byte, are unknown and poison the stream.
enum class FrameType : uint8_t {
  /// A framing or protocol failure: payload u32 StatusCode + message.
  kError = 5,
  /// Daemon request: payload is a JSON-encoded daemon::Request.
  kRequest = 6,
  /// Daemon response: payload is a JSON-encoded daemon::Response.
  kResponse = 7,
};

/// type(1) + length(4) + crc(4).
inline constexpr size_t kFrameOverhead = 9;

/// One decoded frame.
struct Frame {
  FrameType type = FrameType::kError;
  std::string payload;
};

/// Serializes one frame.
std::string EncodeFrame(FrameType type, std::string_view payload);

/// kError payload codec.
std::string EncodeErrorPayload(const Status& status);
/// Malformed payloads decode to an Internal status (never fail) so an
/// error report garbled in transit still reads as an error.
Status DecodeErrorPayload(std::string_view payload);

/// Incremental frame parser for non-blocking socket reads.
class FrameParser {
 public:
  /// Frames whose length field exceeds `max_payload` are corruption.
  /// The parser buffers only the bytes it has received, so a large cap
  /// costs nothing until a frame that size actually arrives.
  explicit FrameParser(uint32_t max_payload) : max_payload_(max_payload) {}

  /// Appends `bytes` to the internal buffer and returns every frame they
  /// complete. Once the stream is corrupt, returns nothing further.
  std::vector<Frame> Consume(std::string_view bytes);

  /// True when a framing violation was seen (CRC mismatch, unknown type,
  /// oversized payload).
  bool corrupt() const { return corrupt_; }

 private:
  uint32_t max_payload_;
  std::string buffer_;
  bool corrupt_ = false;
};

}  // namespace fixy::shard

#endif  // FIXY_SHARD_WIRE_H_
