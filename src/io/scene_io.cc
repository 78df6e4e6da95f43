#include "io/scene_io.h"

#include <bit>
#include <cstdint>
#include <filesystem>

#include "common/file_util.h"
#include "common/macros.h"
#include "common/string_util.h"
#include "io/mapped_file.h"
#include "obs/metrics.h"

namespace fixy::io {

namespace {

constexpr int kFormatVersion = 1;
constexpr const char* kFormatMarker = "fixy-scene";
constexpr const char* kManifestMarker = "fixy-dataset";

json::Value BoxToJson(const geom::Box3d& box) {
  json::Object obj;
  obj["cx"] = box.center.x;
  obj["cy"] = box.center.y;
  obj["cz"] = box.center.z;
  obj["l"] = box.length;
  obj["w"] = box.width;
  obj["h"] = box.height;
  obj["yaw"] = box.yaw;
  return obj;
}

Result<geom::Box3d> BoxFromJson(const json::Value& value) {
  if (!value.is_object()) {
    return Status::InvalidArgument("box must be an object");
  }
  geom::Box3d box;
  FIXY_ASSIGN_OR_RETURN(box.center.x, value.GetDouble("cx"));
  FIXY_ASSIGN_OR_RETURN(box.center.y, value.GetDouble("cy"));
  FIXY_ASSIGN_OR_RETURN(box.center.z, value.GetDouble("cz"));
  FIXY_ASSIGN_OR_RETURN(box.length, value.GetDouble("l"));
  FIXY_ASSIGN_OR_RETURN(box.width, value.GetDouble("w"));
  FIXY_ASSIGN_OR_RETURN(box.height, value.GetDouble("h"));
  FIXY_ASSIGN_OR_RETURN(box.yaw, value.GetDouble("yaw"));
  return box;
}

json::Value ObservationToJson(const Observation& obs) {
  json::Object obj;
  obj["id"] = static_cast<uint64_t>(obs.id);
  obj["source"] = ObservationSourceToString(obs.source);
  obj["class"] = ObjectClassToString(obs.object_class);
  obj["box"] = BoxToJson(obs.box);
  obj["confidence"] = obs.confidence;
  return obj;
}

Result<Observation> ObservationFromJson(const json::Value& value) {
  if (!value.is_object()) {
    return Status::InvalidArgument("observation must be an object");
  }
  Observation obs;
  FIXY_ASSIGN_OR_RETURN(int64_t id, value.GetInt64("id"));
  obs.id = static_cast<ObservationId>(id);
  FIXY_ASSIGN_OR_RETURN(std::string source, value.GetString("source"));
  FIXY_ASSIGN_OR_RETURN(obs.source, ObservationSourceFromString(source));
  FIXY_ASSIGN_OR_RETURN(std::string cls, value.GetString("class"));
  FIXY_ASSIGN_OR_RETURN(obs.object_class, ObjectClassFromString(cls));
  const json::Value* box = value.Find("box");
  if (box == nullptr) return Status::InvalidArgument("observation missing box");
  FIXY_ASSIGN_OR_RETURN(obs.box, BoxFromJson(*box));
  FIXY_ASSIGN_OR_RETURN(obs.confidence, value.GetDouble("confidence"));
  return obs;
}

json::Value FrameToJson(const Frame& frame) {
  json::Object ego;
  ego["x"] = frame.ego_position.x;
  ego["y"] = frame.ego_position.y;
  ego["yaw"] = frame.ego_yaw;

  json::Array observations;
  observations.reserve(frame.observations.size());
  for (const Observation& obs : frame.observations) {
    observations.push_back(ObservationToJson(obs));
  }

  json::Object obj;
  obj["index"] = frame.index;
  obj["timestamp"] = frame.timestamp;
  obj["ego"] = std::move(ego);
  obj["observations"] = std::move(observations);
  return obj;
}

Result<Frame> FrameFromJson(const json::Value& value) {
  if (!value.is_object()) {
    return Status::InvalidArgument("frame must be an object");
  }
  Frame frame;
  FIXY_ASSIGN_OR_RETURN(int64_t index, value.GetInt64("index"));
  frame.index = static_cast<int>(index);
  FIXY_ASSIGN_OR_RETURN(frame.timestamp, value.GetDouble("timestamp"));
  const json::Value* ego = value.Find("ego");
  if (ego == nullptr) return Status::InvalidArgument("frame missing ego");
  FIXY_ASSIGN_OR_RETURN(frame.ego_position.x, ego->GetDouble("x"));
  FIXY_ASSIGN_OR_RETURN(frame.ego_position.y, ego->GetDouble("y"));
  FIXY_ASSIGN_OR_RETURN(frame.ego_yaw, ego->GetDouble("yaw"));
  const json::Value* observations = value.Find("observations");
  if (observations == nullptr || !observations->is_array()) {
    return Status::InvalidArgument("frame missing observations array");
  }
  for (const json::Value& obs_value : observations->AsArray()) {
    FIXY_ASSIGN_OR_RETURN(Observation obs, ObservationFromJson(obs_value));
    frame.observations.push_back(std::move(obs));
  }
  return frame;
}

}  // namespace

json::Value SceneToJson(const Scene& scene) {
  json::Array frames;
  frames.reserve(scene.frames().size());
  for (const Frame& frame : scene.frames()) {
    frames.push_back(FrameToJson(frame));
  }
  json::Object obj;
  obj["format"] = kFormatMarker;
  obj["version"] = kFormatVersion;
  obj["name"] = scene.name();
  obj["frame_rate_hz"] = scene.frame_rate_hz();
  obj["frames"] = std::move(frames);
  return obj;
}

Result<Scene> SceneFromJson(const json::Value& value) {
  if (!value.is_object()) {
    return Status::InvalidArgument("scene document must be an object");
  }
  FIXY_ASSIGN_OR_RETURN(std::string format, value.GetString("format"));
  if (format != kFormatMarker) {
    return Status::InvalidArgument("not a fixy-scene document: " + format);
  }
  FIXY_ASSIGN_OR_RETURN(int64_t version, value.GetInt64("version"));
  if (version != kFormatVersion) {
    return Status::InvalidArgument(
        StrFormat("unsupported fixy-scene version %lld",
                  static_cast<long long>(version)));
  }
  FIXY_ASSIGN_OR_RETURN(std::string name, value.GetString("name"));
  FIXY_ASSIGN_OR_RETURN(double rate, value.GetDouble("frame_rate_hz"));
  Scene scene(std::move(name), rate);
  const json::Value* frames = value.Find("frames");
  if (frames == nullptr || !frames->is_array()) {
    return Status::InvalidArgument("scene missing frames array");
  }
  for (const json::Value& frame_value : frames->AsArray()) {
    FIXY_ASSIGN_OR_RETURN(Frame frame, FrameFromJson(frame_value));
    scene.AddFrame(std::move(frame));
  }
  FIXY_RETURN_IF_ERROR(scene.Validate());
  return scene;
}

std::string SceneToString(const Scene& scene, bool pretty) {
  return json::Write(SceneToJson(scene), pretty);
}

Result<Scene> SceneFromString(std::string_view text) {
  FIXY_ASSIGN_OR_RETURN(json::Value value, json::Parse(text));
  return SceneFromJson(value);
}

namespace {

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

bool BitIdentical(const geom::Box3d& a, const geom::Box3d& b) {
  return SameBits(a.center.x, b.center.x) && SameBits(a.center.y, b.center.y) &&
         SameBits(a.center.z, b.center.z) && SameBits(a.length, b.length) &&
         SameBits(a.width, b.width) && SameBits(a.height, b.height) &&
         SameBits(a.yaw, b.yaw);
}

bool BitIdentical(const Observation& a, const Observation& b) {
  return a.id == b.id && a.source == b.source &&
         a.object_class == b.object_class && BitIdentical(a.box, b.box) &&
         SameBits(a.confidence, b.confidence);
}

bool BitIdentical(const Frame& a, const Frame& b) {
  if (a.index != b.index || !SameBits(a.timestamp, b.timestamp) ||
      !SameBits(a.ego_position.x, b.ego_position.x) ||
      !SameBits(a.ego_position.y, b.ego_position.y) ||
      !SameBits(a.ego_yaw, b.ego_yaw) ||
      a.observations.size() != b.observations.size()) {
    return false;
  }
  for (size_t i = 0; i < a.observations.size(); ++i) {
    if (!BitIdentical(a.observations[i], b.observations[i])) return false;
  }
  return true;
}

}  // namespace

bool BitIdentical(const Scene& a, const Scene& b) {
  if (a.name() != b.name() || !SameBits(a.frame_rate_hz(), b.frame_rate_hz()) ||
      a.frame_count() != b.frame_count()) {
    return false;
  }
  for (size_t i = 0; i < a.frame_count(); ++i) {
    if (!BitIdentical(a.frames()[i], b.frames()[i])) return false;
  }
  return true;
}

Status SaveScene(const Scene& scene, const std::string& path) {
  return WriteFileAtomic(path, {SceneToString(scene, /*pretty=*/false)});
}

Result<Scene> LoadScene(const std::string& path) {
  std::string buffer;
  return LoadScene(path, &buffer);
}

Result<Scene> LoadScene(const std::string& path, std::string* buffer) {
  FIXY_RETURN_IF_ERROR(ReadFileInto(path, buffer));
  obs::Count("io.bytes_read", buffer->size());
  const obs::ScopedStageTimer parse_timer("io.parse");
  return SceneFromString(*buffer);
}

Status SaveDataset(const Dataset& dataset, const std::string& directory) {
  std::error_code ec;
  std::filesystem::create_directories(directory, ec);
  if (ec) {
    return Status::IoError("cannot create directory: " + directory + ": " +
                           ec.message());
  }
  json::Array scene_files;
  for (const Scene& scene : dataset.scenes) {
    if (scene.name().empty()) {
      return Status::InvalidArgument("scene with empty name cannot be saved");
    }
    const std::string filename = scene.name() + ".fixy.json";
    FIXY_RETURN_IF_ERROR(SaveScene(scene, directory + "/" + filename));
    scene_files.push_back(filename);
  }
  json::Object manifest;
  manifest["format"] = kManifestMarker;
  manifest["version"] = kFormatVersion;
  manifest["name"] = dataset.name;
  manifest["scenes"] = std::move(scene_files);
  return WriteFileAtomic(directory + "/manifest.json",
                         {json::Write(manifest, /*pretty=*/true)});
}

Result<std::vector<std::string>> ReadManifestSceneFiles(
    const std::string& directory, std::string* dataset_name) {
  FIXY_ASSIGN_OR_RETURN(MappedFile manifest_file,
                        MappedFile::Open(directory + "/manifest.json"));
  return ParseManifestSceneFiles(manifest_file.data(), dataset_name);
}

Result<std::vector<std::string>> ParseManifestSceneFiles(
    std::string_view text, std::string* dataset_name) {
  FIXY_ASSIGN_OR_RETURN(json::Value manifest, json::Parse(text));
  FIXY_ASSIGN_OR_RETURN(std::string format, manifest.GetString("format"));
  if (format != kManifestMarker) {
    return Status::InvalidArgument("not a fixy-dataset manifest");
  }
  if (dataset_name != nullptr) {
    FIXY_ASSIGN_OR_RETURN(*dataset_name, manifest.GetString("name"));
  }
  const json::Value* scenes = manifest.Find("scenes");
  if (scenes == nullptr || !scenes->is_array()) {
    return Status::InvalidArgument("manifest missing scenes array");
  }
  std::vector<std::string> files;
  files.reserve(scenes->AsArray().size());
  for (const json::Value& file : scenes->AsArray()) {
    if (!file.is_string()) {
      return Status::InvalidArgument("manifest scene entry must be a string");
    }
    files.push_back(file.AsString());
  }
  return files;
}

Result<Dataset> LoadDataset(const std::string& directory) {
  const obs::ScopedStageTimer load_timer("io.load");
  Dataset dataset;
  FIXY_ASSIGN_OR_RETURN(const std::vector<std::string> files,
                        ReadManifestSceneFiles(directory, &dataset.name));
  std::string read_buffer;  // reused across scene files (one allocation)
  for (const std::string& file : files) {
    FIXY_ASSIGN_OR_RETURN(Scene scene,
                          LoadScene(directory + "/" + file, &read_buffer));
    obs::Count("io.files_read");
    dataset.scenes.push_back(std::move(scene));
  }
  return dataset;
}

}  // namespace fixy::io
