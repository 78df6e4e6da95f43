// The fixyd request/response protocol: JSON request and response bodies
// carried in CRC-checked frames (shard/wire.h, FrameType kRequest /
// kResponse), over a unix-domain stream socket.
//
// A connection is a sequence of independent request frames; the daemon
// answers each with exactly one response frame carrying the request's id
// (responses to concurrently executing requests may interleave in any
// order, which is why the id exists). Request-level failures — unknown
// application, unlearned model, overload — travel as a kResponse with a
// non-ok status; *framing* failures (CRC mismatch, unknown type,
// oversized payload, unparseable JSON) are answered with a kError frame,
// after which the daemon drops the connection if the byte stream itself
// is corrupt (the parser cannot resynchronize; see wire.h).
#ifndef FIXY_DAEMON_PROTOCOL_H_
#define FIXY_DAEMON_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "json/json.h"
#include "shard/wire.h"

namespace fixy::daemon {

enum class RequestKind {
  /// Rank one scene of a resident dataset (by index or name).
  kRank = 0,
  /// Rank every scene of a dataset directory (the CLI `rank` workload).
  kRankDataset = 1,
  /// Re-learn the resident model from a dataset directory's labels.
  kLearn = 2,
  /// Daemon health, registry, and metrics snapshot.
  kStatus = 3,
  /// Graceful drain: in-flight requests finish, then the daemon exits.
  kShutdown = 4,
};

const char* RequestKindToString(RequestKind kind);
Result<RequestKind> RequestKindFromString(const std::string& name);

struct Request {
  /// Client-chosen correlation id, echoed on the response.
  uint64_t id = 0;
  RequestKind kind = RequestKind::kStatus;
  /// Dataset directory (rank / rank-dataset / learn).
  std::string data_dir;
  /// rank: the scene, by index ...
  int64_t scene_index = -1;
  /// ... or by name (exactly one of the two).
  std::string scene;
  /// Applications to rank; empty means every registered application.
  std::vector<std::string> apps;
  /// Per-scene proposal cap, like the CLI's --top.
  int top = 10;
  /// Admission deadline: if the request waits longer than this in the
  /// daemon's queue before a worker picks it up, it fails with
  /// Unavailable instead of running late. 0 = no deadline.
  int64_t deadline_ms = 0;
  /// learn: optional path to persist the re-learned model to.
  std::string model_out;
};

json::Value RequestToJson(const Request& request);
Result<Request> RequestFromJson(const json::Value& value);

struct Response {
  uint64_t id = 0;
  /// Request-level outcome. kUnavailable marks admission-control
  /// rejections (queue full, deadline exceeded, daemon draining).
  Status status;
  /// Kind-specific payload (see DESIGN.md §13); empty object on error.
  json::Value result = json::Object{};
};

json::Value ResponseToJson(const Response& response);
Result<Response> ResponseFromJson(const json::Value& value);

/// The largest request payload fixyd accepts: requests come from outside
/// the daemon, so a bigger length field is corruption. Responses carry
/// whole worklists and have no cap beyond the u32 length field.
inline constexpr uint32_t kMaxRequestPayload = 1u << 20;

/// Complete wire frames (EncodeFrame over the JSON body).
std::string EncodeRequestFrame(const Request& request);
std::string EncodeResponseFrame(const Response& response);

/// Records every daemon.* counter, timer, and gauge at zero on the
/// calling thread's collector, so metric snapshots carry a stable key set
/// whether or not a daemon actually served (the schema golden depends on
/// this). The `daemon.phase.*` timers split a request's time, in order:
/// `parse` (frame JSON and RequestFromJson, on the poll thread), then,
/// after `daemon.queue_wait`, `acquire` (the resident dataset's staleness
/// check and scene lookup), `decode` (one-scene rank), `rank` (a
/// rank-dataset's workers decode as they rank, so its decode lands
/// here), `encode` (result body and response frame) and `write` (the
/// socket send).
void RecordDaemonMetricsSchema();

}  // namespace fixy::daemon

#endif  // FIXY_DAEMON_PROTOCOL_H_
