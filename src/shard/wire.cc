#include "shard/wire.h"

#include <cstring>

#include "common/crc32.h"

namespace fixy::shard {
namespace {

bool KnownFrameType(uint8_t type) {
  return type >= static_cast<uint8_t>(FrameType::kError) &&
         type <= static_cast<uint8_t>(FrameType::kResponse);
}

}  // namespace

std::string EncodeFrame(FrameType type, std::string_view payload) {
  std::string out;
  out.reserve(kFrameOverhead + payload.size());
  out.push_back(static_cast<char>(type));
  const uint32_t length = static_cast<uint32_t>(payload.size());
  out.append(reinterpret_cast<const char*>(&length), sizeof(length));
  out.append(payload);
  // CRC over the type byte + payload, contiguously.
  std::string covered;
  covered.reserve(1 + payload.size());
  covered.push_back(static_cast<char>(type));
  covered.append(payload);
  const uint32_t crc = Crc32(covered);
  out.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  return out;
}

std::string EncodeErrorPayload(const Status& status) {
  std::string out;
  const uint32_t code = static_cast<uint32_t>(status.code());
  out.append(reinterpret_cast<const char*>(&code), sizeof(code));
  out.append(status.message());
  return out;
}

Status DecodeErrorPayload(std::string_view payload) {
  if (payload.size() < sizeof(uint32_t)) {
    return Status::Internal("peer sent a malformed error frame");
  }
  uint32_t code;
  std::memcpy(&code, payload.data(), sizeof(code));
  if (code == 0 || code > static_cast<uint32_t>(StatusCode::kUnavailable)) {
    return Status::Internal("peer sent an error frame with a bad code");
  }
  return Status(static_cast<StatusCode>(code),
                std::string(payload.substr(sizeof(code))));
}

std::vector<Frame> FrameParser::Consume(std::string_view bytes) {
  std::vector<Frame> frames;
  if (corrupt_) return frames;
  buffer_.append(bytes);
  size_t pos = 0;
  while (buffer_.size() - pos >= kFrameOverhead) {
    const uint8_t type = static_cast<uint8_t>(buffer_[pos]);
    uint32_t length;
    std::memcpy(&length, buffer_.data() + pos + 1, sizeof(length));
    if (!KnownFrameType(type) || length > max_payload_) {
      corrupt_ = true;
      break;
    }
    if (buffer_.size() - pos < kFrameOverhead + length) break;  // partial
    uint32_t crc;
    std::memcpy(&crc, buffer_.data() + pos + 5 + length, sizeof(crc));
    // CRC covers the type byte and payload (a lying length field
    // displaces the CRC bytes, so it cannot pass either).
    std::string covered;
    covered.reserve(1 + length);
    covered.push_back(static_cast<char>(type));
    covered.append(buffer_, pos + 5, length);
    if (Crc32(covered) != crc) {
      corrupt_ = true;
      break;
    }
    Frame frame;
    frame.type = static_cast<FrameType>(type);
    frame.payload = buffer_.substr(pos + 5, length);
    frames.push_back(std::move(frame));
    pos += kFrameOverhead + length;
  }
  buffer_.erase(0, pos);
  return frames;
}

}  // namespace fixy::shard
