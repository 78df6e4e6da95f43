#include "scenario/spec.h"

#include <cmath>
#include <set>
#include <utility>
#include <vector>

#include "common/file_util.h"
#include "common/macros.h"
#include "common/string_util.h"
#include "obs/metrics.h"

namespace fixy::scenario {
namespace {

constexpr char kFormatName[] = "fixy-scenario";
constexpr int kFormatVersion = 1;
constexpr auto kMaxExact = static_cast<int64_t>(json::kMaxExactInteger);

bool ValidName(const std::string& name) {
  if (name.empty()) return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

/// Strict field-by-field reader over one JSON object. Every accessor
/// records the key it consumed; Finish() then rejects any key the schema
/// never asked about, listing the valid fields for that path. The first
/// error sticks — later accessors become no-ops — so the caller can read
/// the whole section and check once.
class ObjectReader {
 public:
  ObjectReader(const json::Value& value, std::string path)
      : value_(&value), path_(std::move(path)) {
    if (!value_->is_object()) {
      Fail(path_ + ": expected an object");
    }
  }

  bool ok() const { return status_.ok(); }

  /// The raw member (marked consumed), or nullptr when absent or after an
  /// earlier error. For fields with non-scalar shapes (sub-objects,
  /// arrays) the caller validates the type itself.
  const json::Value* Member(const std::string& key) {
    if (!status_.ok()) return nullptr;
    consumed_.insert(key);
    return value_->Find(key);
  }

  void Double(const std::string& key, double* out, double min, double max) {
    const json::Value* member = Member(key);
    if (member == nullptr) return;
    if (!member->is_number()) {
      Fail(path_ + "." + key + ": expected a number");
      return;
    }
    const double value = member->AsDouble();
    if (!std::isfinite(value) || value < min || value > max) {
      Fail(StrFormat("%s.%s: value %g is out of range [%g, %g]",
                     path_.c_str(), key.c_str(), value, min, max));
      return;
    }
    *out = value;
  }

  void Int(const std::string& key, int* out, int64_t min, int64_t max) {
    int64_t value = 0;
    if (!ReadIntegral(key, &value, min, max)) return;
    *out = static_cast<int>(value);
  }

  void U64(const std::string& key, uint64_t* out) {
    int64_t value = 0;
    if (!ReadIntegral(key, &value, 0, kMaxExact)) return;
    *out = static_cast<uint64_t>(value);
  }

  void String(const std::string& key, std::string* out) {
    const json::Value* member = Member(key);
    if (member == nullptr) return;
    if (!member->is_string()) {
      Fail(path_ + "." + key + ": expected a string");
      return;
    }
    *out = member->AsString();
  }

  /// A string restricted to `valid` (sorted for the error message).
  void Enum(const std::string& key, std::string* out,
            const std::vector<std::string>& valid) {
    std::string value = *out;
    String(key, &value);
    if (!status_.ok()) return;
    for (const std::string& choice : valid) {
      if (value == choice) {
        *out = value;
        return;
      }
    }
    std::string choices;
    for (const std::string& choice : valid) {
      if (!choices.empty()) choices += ", ";
      choices += choice;
    }
    Fail(path_ + "." + key + ": unknown value \"" + value +
         "\" (valid values: " + choices + ")");
  }

  void Fail(const std::string& message) {
    if (status_.ok()) status_ = Status::InvalidArgument(message);
  }

  /// Unknown-key check: every key the schema did not consume is an error
  /// naming the path and listing the fields that exist there.
  Status Finish() {
    if (!status_.ok()) return status_;
    for (const auto& [key, unused] : value_->AsObject()) {
      if (consumed_.count(key) > 0) continue;
      std::string fields;
      for (const std::string& known : consumed_) {
        if (!fields.empty()) fields += ", ";
        fields += known;
      }
      return Status::InvalidArgument(path_ + ": unknown field \"" + key +
                                     "\" (valid fields: " + fields + ")");
    }
    return Status::Ok();
  }

  const std::string& path() const { return path_; }

 private:
  bool ReadIntegral(const std::string& key, int64_t* out, int64_t min,
                    int64_t max) {
    const json::Value* member = Member(key);
    if (member == nullptr) return false;
    if (!member->is_number()) {
      Fail(path_ + "." + key + ": expected an integer");
      return false;
    }
    const double value = member->AsDouble();
    if (!std::isfinite(value) || std::floor(value) != value ||
        std::abs(value) > static_cast<double>(kMaxExact)) {
      Fail(path_ + "." + key + ": expected an integer");
      return false;
    }
    const auto integral = static_cast<int64_t>(value);
    if (integral < min || integral > max) {
      Fail(StrFormat("%s.%s: value %lld is out of range [%lld, %lld]",
                     path_.c_str(), key.c_str(),
                     static_cast<long long>(integral),
                     static_cast<long long>(min),
                     static_cast<long long>(max)));
      return false;
    }
    *out = integral;
    return true;
  }

  const json::Value* value_;
  std::string path_;
  std::set<std::string> consumed_;
  Status status_;
};

Status ParseWorld(const json::Value& value, sim::WorldParams* world) {
  ObjectReader reader(value, "scenario.world");
  reader.Double("duration_seconds", &world->duration_seconds, 0.1, 600.0);
  reader.Double("frame_rate_hz", &world->frame_rate_hz, 0.1, 120.0);
  reader.Double("ego_speed_mps", &world->ego_speed_mps, 0.0, 70.0);
  reader.Double("mean_object_count", &world->mean_object_count, 0.0, 500.0);
  reader.Double("spawn_behind_meters", &world->spawn_behind_meters, 0.0,
                1000.0);
  reader.Double("spawn_ahead_meters", &world->spawn_ahead_meters, 0.0, 1000.0);
  if (const json::Value* mix = reader.Member("class_mix")) {
    ObjectReader mix_reader(*mix, "scenario.world.class_mix");
    mix_reader.Double("car", &world->car_weight, 0.0, 1000.0);
    mix_reader.Double("truck", &world->truck_weight, 0.0, 1000.0);
    mix_reader.Double("pedestrian", &world->pedestrian_weight, 0.0, 1000.0);
    mix_reader.Double("motorcycle", &world->motorcycle_weight, 0.0, 1000.0);
    FIXY_RETURN_IF_ERROR(mix_reader.Finish());
  }
  return reader.Finish();
}

Status ParseSensor(const json::Value& value, sim::SensorParams* sensor) {
  ObjectReader reader(value, "scenario.sensor");
  reader.Double("max_range_meters", &sensor->max_range_meters, 1.0, 10000.0);
  reader.Double("occlusion_visibility_threshold",
                &sensor->occlusion_visibility_threshold, 0.0, 1.0);
  reader.Double("near_field_meters", &sensor->near_field_meters, 0.0, 100.0);
  if (const json::Value* windows = reader.Member("dropout_windows")) {
    if (!windows->is_array()) {
      return Status::InvalidArgument(
          "scenario.sensor.dropout_windows: expected an array");
    }
    sensor->dropout_windows.clear();
    for (size_t i = 0; i < windows->AsArray().size(); ++i) {
      const std::string path =
          StrFormat("scenario.sensor.dropout_windows[%zu]", i);
      ObjectReader window_reader(windows->AsArray()[i], path);
      sim::SensorDropoutWindow window;
      window_reader.Double("start_seconds", &window.start_seconds, 0.0, 600.0);
      window_reader.Double("end_seconds", &window.end_seconds, 0.0, 600.0);
      FIXY_RETURN_IF_ERROR(window_reader.Finish());
      if (window.end_seconds <= window.start_seconds) {
        return Status::InvalidArgument(StrFormat(
            "%s: end_seconds (%g) must be greater than start_seconds (%g)",
            path.c_str(), window.end_seconds, window.start_seconds));
      }
      sensor->dropout_windows.push_back(window);
    }
  }
  return reader.Finish();
}

Status ParseLabeler(const json::Value& value, sim::LabelerProfile* labeler) {
  ObjectReader reader(value, "scenario.labeler");
  reader.Double("missing_track_rate", &labeler->missing_track_rate, 0.0, 1.0);
  reader.Double("short_visibility_miss_rate",
                &labeler->short_visibility_miss_rate, 0.0, 1.0);
  reader.Int("short_visibility_frames", &labeler->short_visibility_frames, 0,
             100000);
  reader.Double("missing_obs_rate", &labeler->missing_obs_rate, 0.0, 1.0);
  reader.Double("center_jitter_m", &labeler->center_jitter_m, 0.0, 10.0);
  reader.Double("size_jitter_frac", &labeler->size_jitter_frac, 0.0, 1.0);
  reader.Double("yaw_jitter_rad", &labeler->yaw_jitter_rad, 0.0, 3.2);
  reader.Int("min_visible_frames_to_label",
             &labeler->min_visible_frames_to_label, 0, 100000);
  return reader.Finish();
}

Status ParseDetector(const json::Value& value, sim::DetectorParams* detector) {
  ObjectReader reader(value, "scenario.detector");
  std::string calibration =
      detector->calibrated ? "calibrated" : "uncalibrated";
  reader.Enum("calibration", &calibration, {"calibrated", "uncalibrated"});
  detector->calibrated = calibration == "calibrated";
  reader.Double("base_recall", &detector->base_recall, 0.0, 1.0);
  reader.Double("range_falloff_start", &detector->range_falloff_start, 0.0,
                10000.0);
  reader.Double("max_range", &detector->max_range, 1.0, 10000.0);
  reader.Double("recall_at_max_range", &detector->recall_at_max_range, 0.0,
                1.0);
  reader.Double("occlusion_power", &detector->occlusion_power, 0.0, 16.0);
  reader.Double("center_noise_m", &detector->center_noise_m, 0.0, 10.0);
  reader.Double("size_noise_frac", &detector->size_noise_frac, 0.0, 1.0);
  reader.Double("yaw_noise_rad", &detector->yaw_noise_rad, 0.0, 3.2);
  reader.Double("track_class_confusion_rate",
                &detector->track_class_confusion_rate, 0.0, 1.0);
  reader.Double("error_confidence_factor", &detector->error_confidence_factor,
                0.0, 2.0);
  reader.Double("localization_error_rate", &detector->localization_error_rate,
                0.0, 1.0);
  reader.Double("localization_noise_m", &detector->localization_noise_m, 0.0,
                100.0);
  reader.Double("localization_size_noise_frac",
                &detector->localization_size_noise_frac, 0.0, 1.0);
  reader.Double("ghost_tracks_per_scene", &detector->ghost_tracks_per_scene,
                0.0, 1000.0);
  reader.Int("ghost_min_frames", &detector->ghost_min_frames, 1, 100000);
  reader.Int("ghost_max_frames", &detector->ghost_max_frames, 1, 100000);
  reader.Double("ghost_jump_m", &detector->ghost_jump_m, 0.0, 100.0);
  reader.Double("ghost_size_noise_frac", &detector->ghost_size_noise_frac, 0.0,
                1.0);
  reader.Double("ghost_scale_sigma", &detector->ghost_scale_sigma, 0.0, 4.0);
  reader.Double("per_frame_conf_noise", &detector->per_frame_conf_noise, 0.0,
                1.0);
  reader.Double("calibrated_conf_noise", &detector->calibrated_conf_noise, 0.0,
                1.0);
  reader.Double("uncalibrated_conf_mean", &detector->uncalibrated_conf_mean,
                0.0, 1.0);
  reader.Double("uncalibrated_conf_sd", &detector->uncalibrated_conf_sd, 0.0,
                1.0);
  reader.Double("ghost_conf_mean", &detector->ghost_conf_mean, 0.0, 1.0);
  reader.Double("ghost_conf_sd", &detector->ghost_conf_sd, 0.0, 1.0);
  reader.Double("high_conf_ghost_rate", &detector->high_conf_ghost_rate, 0.0,
                1.0);
  return reader.Finish();
}

}  // namespace

Result<ScenarioSpec> ScenarioFromJson(const json::Value& value) {
  ScenarioSpec spec;
  ObjectReader reader(value, "scenario");

  std::string format = kFormatName;
  reader.String("format", &format);
  if (reader.ok() && format != kFormatName) {
    return Status::InvalidArgument(
        "scenario.format: unknown value \"" + format + "\" (valid values: " +
        std::string(kFormatName) + ")");
  }
  int version = kFormatVersion;
  reader.Int("version", &version, 1, 1000000);
  if (reader.ok() && version != kFormatVersion) {
    return Status::InvalidArgument(
        StrFormat("scenario.version: unsupported version %d (supported: %d)",
                  version, kFormatVersion));
  }

  if (reader.ok() && value.Find("name") == nullptr) {
    return Status::InvalidArgument("scenario.name is required");
  }
  reader.String("name", &spec.name);
  if (reader.ok() && !ValidName(spec.name)) {
    return Status::InvalidArgument(
        "scenario.name: \"" + spec.name +
        "\" must be non-empty and limited to [A-Za-z0-9._-] (it names scene "
        "files and cache directories)");
  }
  reader.String("description", &spec.description);
  reader.Int("scenes", &spec.scene_count, 1, 10000000);
  reader.U64("seed", &spec.seed);

  if (const json::Value* world = reader.Member("world")) {
    FIXY_RETURN_IF_ERROR(ParseWorld(*world, &spec.world));
  }
  if (const json::Value* sensor = reader.Member("sensor")) {
    FIXY_RETURN_IF_ERROR(ParseSensor(*sensor, &spec.sensor));
  }
  if (const json::Value* labeler = reader.Member("labeler")) {
    FIXY_RETURN_IF_ERROR(ParseLabeler(*labeler, &spec.labeler));
  }
  if (const json::Value* detector = reader.Member("detector")) {
    FIXY_RETURN_IF_ERROR(ParseDetector(*detector, &spec.detector));
  }
  FIXY_RETURN_IF_ERROR(reader.Finish());

  // Compile-time cross-field checks run at parse too, so a loaded spec is
  // known-good end to end (and the error points at the file, not at a
  // later generation step).
  FIXY_RETURN_IF_ERROR(CompileScenario(spec).status());
  return spec;
}

Result<ScenarioSpec> ScenarioFromString(std::string_view text) {
  FIXY_ASSIGN_OR_RETURN(const json::Value value, json::Parse(text));
  return ScenarioFromJson(value);
}

Result<ScenarioSpec> LoadScenario(const std::string& path) {
  std::string text;
  FIXY_RETURN_IF_ERROR(ReadFileInto(path, &text));
  Result<ScenarioSpec> spec = ScenarioFromString(text);
  if (!spec.ok()) {
    return Status(spec.status().code(),
                  path + ": " + spec.status().message());
  }
  return spec;
}

json::Value ScenarioToJson(const ScenarioSpec& spec) {
  json::Object world;
  world["duration_seconds"] = spec.world.duration_seconds;
  world["frame_rate_hz"] = spec.world.frame_rate_hz;
  world["ego_speed_mps"] = spec.world.ego_speed_mps;
  world["mean_object_count"] = spec.world.mean_object_count;
  world["spawn_behind_meters"] = spec.world.spawn_behind_meters;
  world["spawn_ahead_meters"] = spec.world.spawn_ahead_meters;
  json::Object mix;
  mix["car"] = spec.world.car_weight;
  mix["truck"] = spec.world.truck_weight;
  mix["pedestrian"] = spec.world.pedestrian_weight;
  mix["motorcycle"] = spec.world.motorcycle_weight;
  world["class_mix"] = std::move(mix);

  json::Object sensor;
  sensor["max_range_meters"] = spec.sensor.max_range_meters;
  sensor["occlusion_visibility_threshold"] =
      spec.sensor.occlusion_visibility_threshold;
  sensor["near_field_meters"] = spec.sensor.near_field_meters;
  json::Array windows;
  for (const sim::SensorDropoutWindow& window : spec.sensor.dropout_windows) {
    json::Object window_value;
    window_value["start_seconds"] = window.start_seconds;
    window_value["end_seconds"] = window.end_seconds;
    windows.push_back(std::move(window_value));
  }
  sensor["dropout_windows"] = std::move(windows);

  json::Object labeler;
  labeler["missing_track_rate"] = spec.labeler.missing_track_rate;
  labeler["short_visibility_miss_rate"] =
      spec.labeler.short_visibility_miss_rate;
  labeler["short_visibility_frames"] = spec.labeler.short_visibility_frames;
  labeler["missing_obs_rate"] = spec.labeler.missing_obs_rate;
  labeler["center_jitter_m"] = spec.labeler.center_jitter_m;
  labeler["size_jitter_frac"] = spec.labeler.size_jitter_frac;
  labeler["yaw_jitter_rad"] = spec.labeler.yaw_jitter_rad;
  labeler["min_visible_frames_to_label"] =
      spec.labeler.min_visible_frames_to_label;

  json::Object detector;
  detector["calibration"] =
      spec.detector.calibrated ? "calibrated" : "uncalibrated";
  detector["base_recall"] = spec.detector.base_recall;
  detector["range_falloff_start"] = spec.detector.range_falloff_start;
  detector["max_range"] = spec.detector.max_range;
  detector["recall_at_max_range"] = spec.detector.recall_at_max_range;
  detector["occlusion_power"] = spec.detector.occlusion_power;
  detector["center_noise_m"] = spec.detector.center_noise_m;
  detector["size_noise_frac"] = spec.detector.size_noise_frac;
  detector["yaw_noise_rad"] = spec.detector.yaw_noise_rad;
  detector["track_class_confusion_rate"] =
      spec.detector.track_class_confusion_rate;
  detector["error_confidence_factor"] = spec.detector.error_confidence_factor;
  detector["localization_error_rate"] = spec.detector.localization_error_rate;
  detector["localization_noise_m"] = spec.detector.localization_noise_m;
  detector["localization_size_noise_frac"] =
      spec.detector.localization_size_noise_frac;
  detector["ghost_tracks_per_scene"] = spec.detector.ghost_tracks_per_scene;
  detector["ghost_min_frames"] = spec.detector.ghost_min_frames;
  detector["ghost_max_frames"] = spec.detector.ghost_max_frames;
  detector["ghost_jump_m"] = spec.detector.ghost_jump_m;
  detector["ghost_size_noise_frac"] = spec.detector.ghost_size_noise_frac;
  detector["ghost_scale_sigma"] = spec.detector.ghost_scale_sigma;
  detector["per_frame_conf_noise"] = spec.detector.per_frame_conf_noise;
  detector["calibrated_conf_noise"] = spec.detector.calibrated_conf_noise;
  detector["uncalibrated_conf_mean"] = spec.detector.uncalibrated_conf_mean;
  detector["uncalibrated_conf_sd"] = spec.detector.uncalibrated_conf_sd;
  detector["ghost_conf_mean"] = spec.detector.ghost_conf_mean;
  detector["ghost_conf_sd"] = spec.detector.ghost_conf_sd;
  detector["high_conf_ghost_rate"] = spec.detector.high_conf_ghost_rate;

  json::Object root;
  root["format"] = kFormatName;
  root["version"] = kFormatVersion;
  root["name"] = spec.name;
  root["description"] = spec.description;
  root["scenes"] = spec.scene_count;
  root["seed"] = spec.seed;
  root["world"] = std::move(world);
  root["sensor"] = std::move(sensor);
  root["labeler"] = std::move(labeler);
  root["detector"] = std::move(detector);
  return root;
}

std::string ScenarioFingerprint(const ScenarioSpec& spec) {
  return json::Write(ScenarioToJson(spec));
}

Result<sim::SimProfile> CompileScenario(const ScenarioSpec& spec) {
  if (!ValidName(spec.name)) {
    return Status::InvalidArgument(
        "scenario.name: \"" + spec.name +
        "\" must be non-empty and limited to [A-Za-z0-9._-]");
  }
  if (spec.scene_count < 1) {
    return Status::InvalidArgument(
        StrFormat("scenario.scenes: value %d is out of range [1, 10000000]",
                  spec.scene_count));
  }
  const double mix_total = spec.world.car_weight + spec.world.truck_weight +
                           spec.world.pedestrian_weight +
                           spec.world.motorcycle_weight;
  if (!(mix_total > 0.0)) {
    return Status::InvalidArgument(
        "scenario.world.class_mix: total weight must be positive");
  }
  if (spec.detector.ghost_max_frames < spec.detector.ghost_min_frames) {
    return Status::InvalidArgument(StrFormat(
        "scenario.detector.ghost_max_frames: value %d is below "
        "ghost_min_frames (%d)",
        spec.detector.ghost_max_frames, spec.detector.ghost_min_frames));
  }
  for (size_t i = 0; i < spec.sensor.dropout_windows.size(); ++i) {
    const sim::SensorDropoutWindow& window = spec.sensor.dropout_windows[i];
    if (window.end_seconds <= window.start_seconds ||
        window.start_seconds < 0.0) {
      return Status::InvalidArgument(StrFormat(
          "scenario.sensor.dropout_windows[%zu]: [%g, %g) is not a valid "
          "window",
          i, window.start_seconds, window.end_seconds));
    }
    if (window.start_seconds >= spec.world.duration_seconds) {
      return Status::InvalidArgument(StrFormat(
          "scenario.sensor.dropout_windows[%zu]: start_seconds (%g) is "
          "beyond the scene duration (%g s)",
          i, window.start_seconds, spec.world.duration_seconds));
    }
  }
  obs::Count("scenario.specs_compiled");
  sim::SimProfile profile;
  profile.name = spec.name;
  profile.world = spec.world;
  profile.sensor = spec.sensor;
  profile.labeler = spec.labeler;
  profile.detector = spec.detector;
  return profile;
}

void RecordScenarioMetricsSchema() {
  obs::Count("scenario.datasets_reused", 0);
  obs::Count("scenario.scenes_generated", 0);
  obs::Count("scenario.specs_compiled", 0);
  obs::Count("sweep.cells", 0);
  obs::Count("sweep.scenarios", 0);
  obs::AddTimeNs("scenario.generate", 0);
  obs::AddTimeNs("sweep.total", 0);
}

}  // namespace fixy::scenario
