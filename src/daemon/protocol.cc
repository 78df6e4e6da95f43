#include "daemon/protocol.h"

#include <limits>
#include <string>
#include <utility>

#include "common/macros.h"
#include "obs/metrics.h"

namespace fixy::daemon {

const char* RequestKindToString(RequestKind kind) {
  switch (kind) {
    case RequestKind::kRank:
      return "rank";
    case RequestKind::kRankDataset:
      return "rank-dataset";
    case RequestKind::kLearn:
      return "learn";
    case RequestKind::kStatus:
      return "status";
    case RequestKind::kShutdown:
      return "shutdown";
  }
  return "unknown";
}

Result<RequestKind> RequestKindFromString(const std::string& name) {
  if (name == "rank") return RequestKind::kRank;
  if (name == "rank-dataset") return RequestKind::kRankDataset;
  if (name == "learn") return RequestKind::kLearn;
  if (name == "status") return RequestKind::kStatus;
  if (name == "shutdown") return RequestKind::kShutdown;
  return Status::InvalidArgument(
      "unknown request kind: " + name +
      " (expected rank|rank-dataset|learn|status|shutdown)");
}

json::Value RequestToJson(const Request& request) {
  json::Object object;
  object["id"] = json::Value(request.id);
  object["kind"] = json::Value(RequestKindToString(request.kind));
  object["data"] = json::Value(request.data_dir);
  object["scene_index"] = json::Value(request.scene_index);
  object["scene"] = json::Value(request.scene);
  json::Array apps;
  for (const std::string& app : request.apps) apps.emplace_back(app);
  object["apps"] = json::Value(std::move(apps));
  object["top"] = json::Value(request.top);
  object["deadline_ms"] = json::Value(request.deadline_ms);
  object["model_out"] = json::Value(request.model_out);
  return json::Value(std::move(object));
}

Result<Request> RequestFromJson(const json::Value& value) {
  if (!value.is_object()) {
    return Status::InvalidArgument("request body must be a JSON object");
  }
  Request request;
  FIXY_ASSIGN_OR_RETURN(const std::string kind, value.GetString("kind"));
  FIXY_ASSIGN_OR_RETURN(request.kind, RequestKindFromString(kind));
  if (value.Find("id") != nullptr) {
    FIXY_ASSIGN_OR_RETURN(const int64_t id, value.GetInt64("id"));
    if (id < 0) return Status::InvalidArgument("request id must be >= 0");
    request.id = static_cast<uint64_t>(id);
  }
  if (value.Find("data") != nullptr) {
    FIXY_ASSIGN_OR_RETURN(request.data_dir, value.GetString("data"));
  }
  if (value.Find("scene_index") != nullptr) {
    FIXY_ASSIGN_OR_RETURN(request.scene_index, value.GetInt64("scene_index"));
  }
  if (value.Find("scene") != nullptr) {
    FIXY_ASSIGN_OR_RETURN(request.scene, value.GetString("scene"));
  }
  if (const json::Value* apps = value.Find("apps"); apps != nullptr) {
    if (!apps->is_array()) {
      return Status::InvalidArgument("request 'apps' must be an array");
    }
    for (const json::Value& app : apps->AsArray()) {
      if (!app.is_string()) {
        return Status::InvalidArgument(
            "request 'apps' entries must be strings");
      }
      request.apps.push_back(app.AsString());
    }
  }
  if (value.Find("top") != nullptr) {
    FIXY_ASSIGN_OR_RETURN(const int64_t top, value.GetInt64("top"));
    if (top < 0) return Status::InvalidArgument("request top must be >= 0");
    if (top > std::numeric_limits<int>::max()) {
      return Status::InvalidArgument(
          "request top must be <= " +
          std::to_string(std::numeric_limits<int>::max()));
    }
    request.top = static_cast<int>(top);
  }
  if (value.Find("deadline_ms") != nullptr) {
    FIXY_ASSIGN_OR_RETURN(request.deadline_ms, value.GetInt64("deadline_ms"));
    if (request.deadline_ms < 0) {
      return Status::InvalidArgument("request deadline_ms must be >= 0");
    }
  }
  if (value.Find("model_out") != nullptr) {
    FIXY_ASSIGN_OR_RETURN(request.model_out, value.GetString("model_out"));
  }
  return request;
}

json::Value ResponseToJson(const Response& response) {
  json::Object object;
  object["id"] = json::Value(response.id);
  object["code"] = json::Value(static_cast<int>(response.status.code()));
  object["error"] = json::Value(response.status.message());
  object["result"] = response.result;
  return json::Value(std::move(object));
}

Result<Response> ResponseFromJson(const json::Value& value) {
  if (!value.is_object()) {
    return Status::InvalidArgument("response body must be a JSON object");
  }
  Response response;
  FIXY_ASSIGN_OR_RETURN(const int64_t id, value.GetInt64("id"));
  if (id < 0) return Status::InvalidArgument("response id must be >= 0");
  response.id = static_cast<uint64_t>(id);
  FIXY_ASSIGN_OR_RETURN(const int64_t code, value.GetInt64("code"));
  if (code < 0 || code > static_cast<int64_t>(StatusCode::kUnavailable)) {
    return Status::InvalidArgument("response carries an unknown status code");
  }
  std::string message;
  if (value.Find("error") != nullptr) {
    FIXY_ASSIGN_OR_RETURN(message, value.GetString("error"));
  }
  response.status = Status(static_cast<StatusCode>(code), std::move(message));
  if (const json::Value* result = value.Find("result"); result != nullptr) {
    response.result = *result;
  }
  return response;
}

std::string EncodeRequestFrame(const Request& request) {
  return shard::EncodeFrame(shard::FrameType::kRequest,
                            json::Write(RequestToJson(request)));
}

std::string EncodeResponseFrame(const Response& response) {
  return shard::EncodeFrame(shard::FrameType::kResponse,
                            json::Write(ResponseToJson(response)));
}

void RecordDaemonMetricsSchema() {
  obs::Count("daemon.connections", 0);
  obs::Count("daemon.requests", 0);
  obs::Count("daemon.rejected", 0);
  obs::Count("daemon.errors", 0);
  obs::Count("daemon.dataset_reopens", 0);
  obs::Count("daemon.cache_refreshes", 0);
  obs::AddTimeNs("daemon.queue_wait", 0);
  obs::AddTimeNs("daemon.request", 0);
  obs::SetGauge("daemon.queue_depth", 0);
  for (const char* phase :
       {"parse", "acquire", "decode", "rank", "encode", "write"}) {
    obs::AddTimeNs(std::string("daemon.phase.") + phase, 0);
  }
}

}  // namespace fixy::daemon
