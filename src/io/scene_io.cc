#include "io/scene_io.h"

#include <filesystem>
#include <fstream>

#include "common/macros.h"
#include "common/string_util.h"
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

Result<Observation> ObservationFromJson(const json::Value& value,
                                        int frame_index, double timestamp) {
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
  obs.frame_index = frame_index;
  obs.timestamp = timestamp;
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
    FIXY_ASSIGN_OR_RETURN(
        Observation obs,
        ObservationFromJson(obs_value, frame.index, frame.timestamp));
    frame.observations.push_back(std::move(obs));
  }
  return frame;
}

Result<std::string> ReadFile(const std::string& path) {
  std::string contents;
  FIXY_RETURN_IF_ERROR(ReadFileInto(path, &contents));
  return contents;
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

Status SaveScene(const Scene& scene, const std::string& path) {
  return WriteFileAtomic(path, SceneToString(scene, /*pretty=*/false));
}

Status WriteFileAtomic(const std::string& path, const std::string& contents) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Status::IoError("cannot open for writing: " + tmp);
    out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
    out.flush();
    if (!out) return Status::IoError("write failed: " + tmp);
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    return Status::IoError("cannot rename " + tmp + " to " + path + ": " +
                           ec.message());
  }
  return Status::Ok();
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

Status ReadFileInto(const std::string& path, std::string* out) {
  // One stat-sized read instead of streambuf extraction: resize to the
  // file's length and read it in a single call, reusing the caller's
  // buffer capacity across files.
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return Status::IoError("cannot open for reading: " + path);
  const std::streamoff size = in.tellg();
  if (size < 0) return Status::IoError("cannot determine size of: " + path);
  out->resize(static_cast<size_t>(size));
  if (size > 0) {
    in.seekg(0);
    in.read(out->data(), size);
    if (!in || in.gcount() != size) {
      return Status::IoError("read failed: " + path);
    }
  }
  return Status::Ok();
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
                         json::Write(manifest, /*pretty=*/true));
}

Result<Dataset> LoadDataset(const std::string& directory) {
  FIXY_ASSIGN_OR_RETURN(DatasetLoadReport report,
                        LoadDataset(directory, DatasetLoadOptions{}));
  return std::move(report.dataset);
}

Result<DatasetLoadReport> LoadDataset(const std::string& directory,
                                      const DatasetLoadOptions& options) {
  const obs::ScopedStageTimer load_timer("io.load");
  // The manifest is the one file without which nothing can be loaded, so
  // it is strict even in tolerant mode.
  FIXY_ASSIGN_OR_RETURN(std::string text,
                        ReadFile(directory + "/manifest.json"));
  obs::Count("io.bytes_read", text.size());
  FIXY_ASSIGN_OR_RETURN(json::Value manifest, json::Parse(text));
  FIXY_ASSIGN_OR_RETURN(std::string format, manifest.GetString("format"));
  if (format != kManifestMarker) {
    return Status::InvalidArgument("not a fixy-dataset manifest");
  }
  DatasetLoadReport report;
  FIXY_ASSIGN_OR_RETURN(report.dataset.name, manifest.GetString("name"));
  const json::Value* scenes = manifest.Find("scenes");
  if (scenes == nullptr || !scenes->is_array()) {
    return Status::InvalidArgument("manifest missing scenes array");
  }
  std::string read_buffer;  // reused across scene files (one allocation)
  for (const json::Value& file : scenes->AsArray()) {
    if (!file.is_string()) {
      const Status bad =
          Status::InvalidArgument("manifest scene entry must be a string");
      if (!options.tolerant) return bad;
      obs::Count("io.files_skipped");
      report.skipped.push_back({"<non-string manifest entry>", bad});
      continue;
    }
    Result<Scene> scene =
        LoadScene(directory + "/" + file.AsString(), &read_buffer);
    if (!scene.ok()) {
      if (!options.tolerant) return scene.status();
      obs::Count("io.files_skipped");
      report.skipped.push_back({file.AsString(), scene.status()});
      continue;
    }
    obs::Count("io.files_read");
    report.dataset.scenes.push_back(std::move(scene).value());
  }
  return report;
}

}  // namespace fixy::io
