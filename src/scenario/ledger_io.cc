#include "scenario/ledger_io.h"

#include <cmath>
#include <utility>

#include "common/file_util.h"
#include "common/macros.h"
#include "common/string_util.h"

namespace fixy::scenario {
namespace {

constexpr char kFormatName[] = "fixy-gt-ledger";
constexpr int kFormatVersion = 1;

Result<sim::GtErrorType> GtErrorTypeFromString(const std::string& name) {
  for (const sim::GtErrorType type :
       {sim::GtErrorType::kMissingTrack, sim::GtErrorType::kMissingObservation,
        sim::GtErrorType::kGhostTrack, sim::GtErrorType::kClassificationError,
        sim::GtErrorType::kLocalizationError}) {
    if (name == sim::GtErrorTypeToString(type)) return type;
  }
  return Status::InvalidArgument("unknown ledger error type: " + name);
}

json::Value BoxToJson(const geom::Box3d& box) {
  json::Object value;
  value["cx"] = box.center.x;
  value["cy"] = box.center.y;
  value["cz"] = box.center.z;
  value["length"] = box.length;
  value["width"] = box.width;
  value["height"] = box.height;
  value["yaw"] = box.yaw;
  return value;
}

Result<geom::Box3d> BoxFromJson(const json::Value& value) {
  geom::Box3d box;
  FIXY_ASSIGN_OR_RETURN(box.center.x, value.GetDouble("cx"));
  FIXY_ASSIGN_OR_RETURN(box.center.y, value.GetDouble("cy"));
  FIXY_ASSIGN_OR_RETURN(box.center.z, value.GetDouble("cz"));
  FIXY_ASSIGN_OR_RETURN(box.length, value.GetDouble("length"));
  FIXY_ASSIGN_OR_RETURN(box.width, value.GetDouble("width"));
  FIXY_ASSIGN_OR_RETURN(box.height, value.GetDouble("height"));
  FIXY_ASSIGN_OR_RETURN(box.yaw, value.GetDouble("yaw"));
  return box;
}

}  // namespace

json::Value LedgerToJson(const sim::GtLedger& ledger) {
  json::Array errors;
  for (const sim::GtError& error : ledger.errors) {
    json::Object value;
    value["type"] = sim::GtErrorTypeToString(error.type);
    value["scene"] = error.scene_name;
    value["object_key"] = error.object_key;
    value["class"] = ObjectClassToString(error.object_class);
    value["first_frame"] = error.first_frame;
    value["last_frame"] = error.last_frame;
    value["min_ego_distance"] = error.min_ego_distance;
    json::Array boxes;
    for (const auto& [frame, box] : error.boxes) {
      json::Object entry;
      entry["frame"] = frame;
      entry["box"] = BoxToJson(box);
      boxes.push_back(std::move(entry));
    }
    value["boxes"] = std::move(boxes);
    errors.push_back(std::move(value));
  }
  json::Object root;
  root["format"] = kFormatName;
  root["version"] = kFormatVersion;
  root["errors"] = std::move(errors);
  return root;
}

Result<sim::GtLedger> LedgerFromJson(const json::Value& value) {
  FIXY_ASSIGN_OR_RETURN(const std::string format, value.GetString("format"));
  if (format != kFormatName) {
    return Status::InvalidArgument("not a fixy ledger (format tag: " + format +
                                   ")");
  }
  FIXY_ASSIGN_OR_RETURN(const int64_t version, value.GetInt64("version"));
  if (version != kFormatVersion) {
    return Status::InvalidArgument(
        StrFormat("unsupported ledger version %lld (supported: %d)",
                  static_cast<long long>(version), kFormatVersion));
  }
  const json::Value* errors = value.Find("errors");
  if (errors == nullptr || !errors->is_array()) {
    return Status::InvalidArgument("ledger has no errors array");
  }
  sim::GtLedger ledger;
  for (const json::Value& entry : errors->AsArray()) {
    sim::GtError error;
    FIXY_ASSIGN_OR_RETURN(const std::string type, entry.GetString("type"));
    FIXY_ASSIGN_OR_RETURN(error.type, GtErrorTypeFromString(type));
    FIXY_ASSIGN_OR_RETURN(error.scene_name, entry.GetString("scene"));
    FIXY_ASSIGN_OR_RETURN(const int64_t key, entry.GetInt64("object_key"));
    error.object_key = static_cast<uint64_t>(key);
    FIXY_ASSIGN_OR_RETURN(const std::string cls, entry.GetString("class"));
    FIXY_ASSIGN_OR_RETURN(error.object_class, ObjectClassFromString(cls));
    FIXY_ASSIGN_OR_RETURN(const int64_t first, entry.GetInt64("first_frame"));
    FIXY_ASSIGN_OR_RETURN(const int64_t last, entry.GetInt64("last_frame"));
    error.first_frame = static_cast<int>(first);
    error.last_frame = static_cast<int>(last);
    FIXY_ASSIGN_OR_RETURN(error.min_ego_distance,
                          entry.GetDouble("min_ego_distance"));
    const json::Value* boxes = entry.Find("boxes");
    if (boxes == nullptr || !boxes->is_array()) {
      return Status::InvalidArgument("ledger error has no boxes array");
    }
    for (const json::Value& box_entry : boxes->AsArray()) {
      FIXY_ASSIGN_OR_RETURN(const int64_t frame, box_entry.GetInt64("frame"));
      const json::Value* box = box_entry.Find("box");
      if (box == nullptr) {
        return Status::InvalidArgument("ledger box entry has no box");
      }
      FIXY_ASSIGN_OR_RETURN(geom::Box3d decoded, BoxFromJson(*box));
      error.boxes[static_cast<int>(frame)] = decoded;
    }
    ledger.errors.push_back(std::move(error));
  }
  return ledger;
}

Status SaveLedger(const sim::GtLedger& ledger, const std::string& path) {
  return WriteFileAtomic(
      path, {json::Write(LedgerToJson(ledger), /*pretty=*/true), "\n"});
}

Result<sim::GtLedger> LoadLedger(const std::string& path) {
  std::string text;
  FIXY_RETURN_IF_ERROR(ReadFileInto(path, &text));
  FIXY_ASSIGN_OR_RETURN(const json::Value value, json::Parse(text));
  return LedgerFromJson(value);
}

std::string LedgerPath(const std::string& directory) {
  return directory + "/gt_ledger.json";
}

}  // namespace fixy::scenario
