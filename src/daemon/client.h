// FixydClient: the thin client side of the fixyd protocol — connect to
// the daemon's unix socket, write one kRequest frame per call, and read
// frames until the matching kResponse (or a kError frame) arrives.
#ifndef FIXY_DAEMON_CLIENT_H_
#define FIXY_DAEMON_CLIENT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "daemon/protocol.h"
#include "shard/wire.h"

namespace fixy::daemon {

class FixydClient {
 public:
  /// Connects to the daemon listening on `socket_path`. Errors: IoError
  /// when nothing is listening (the likely causes — daemon not started,
  /// stale path — are named in the message).
  static Result<FixydClient> Connect(const std::string& socket_path);

  FixydClient(FixydClient&& other) noexcept;
  FixydClient& operator=(FixydClient&& other) noexcept;
  FixydClient(const FixydClient&) = delete;
  FixydClient& operator=(const FixydClient&) = delete;
  ~FixydClient();

  /// Sends `request` and waits for its response. A request id of 0 is
  /// replaced with a connection-local sequence number so responses
  /// correlate. Errors: IoError on a dead daemon or corrupt frame
  /// stream; Unavailable when `timeout_ms` elapses first; a kError frame
  /// from the daemon returns its decoded status.
  ///
  /// Note the layering: a non-ok *return* means the exchange itself
  /// failed; a returned Response can still carry a non-ok
  /// Response::status (the request failed inside the daemon).
  Result<Response> Call(const Request& request, int timeout_ms = 120000);

  /// Test hooks for frame-corruption suites: write raw bytes and read
  /// one frame (whatever its type) with a timeout.
  Status SendRaw(std::string_view bytes);
  Result<shard::Frame> ReadFrame(int timeout_ms);

  int fd() const { return fd_; }

 private:
  explicit FixydClient(int fd) : fd_(fd) {}

  int fd_ = -1;
  uint64_t next_id_ = 1;
  /// Responses carry whole worklists: any length the u32 field can hold.
  shard::FrameParser parser_{UINT32_MAX};
  std::vector<shard::Frame> buffered_;
};

}  // namespace fixy::daemon

#endif  // FIXY_DAEMON_CLIENT_H_
