// Serialization of scenes and datasets to the JSON-based .fixy format.
//
// The format is stable and round-trip exact at double precision:
//
//   {
//     "format": "fixy-scene",
//     "version": 1,
//     "name": "...",
//     "frame_rate_hz": 10,
//     "frames": [
//       {"index": 0, "timestamp": 0.0,
//        "ego": {"x": ..., "y": ..., "yaw": ...},
//        "observations": [
//          {"id": 1, "source": "human", "class": "car",
//           "box": {"cx":..,"cy":..,"cz":..,"l":..,"w":..,"h":..,"yaw":..},
//           "confidence": 1.0}, ...]}, ...]
//   }
#ifndef FIXY_IO_SCENE_IO_H_
#define FIXY_IO_SCENE_IO_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "data/scene.h"
#include "json/json.h"

namespace fixy::io {

/// Converts a scene to its JSON document.
json::Value SceneToJson(const Scene& scene);

/// Parses a scene from a JSON document. Errors: InvalidArgument for
/// wrong format marker, missing fields, or unknown enum values.
Result<Scene> SceneFromJson(const json::Value& value);

/// Serializes `scene` to a string (pretty-printed if requested).
std::string SceneToString(const Scene& scene, bool pretty = false);

/// Parses a scene from serialized text.
Result<Scene> SceneFromString(std::string_view text);

/// Writes `scene` to `path` through WriteFileAtomic. Errors: IoError on
/// filesystem failure.
Status SaveScene(const Scene& scene, const std::string& path);

/// Reads a scene from `path`.
Result<Scene> LoadScene(const std::string& path);

/// LoadScene with caller-provided scratch: the file is read with a single
/// sized read into `*buffer` (reusing its capacity), so a loop over many
/// scene files allocates the read buffer once instead of per file.
Result<Scene> LoadScene(const std::string& path, std::string* buffer);

/// Reads the whole file at `path` into `*out` with one sized read,
/// reusing `out`'s existing capacity when it suffices.
Status ReadFileInto(const std::string& path, std::string* out);

/// Writes `contents` to `path + ".tmp"`, then renames it over `path`, so
/// a concurrent reader (a watch poll, a cache update) sees the old file or
/// the new one, never a half-written one. Errors: IoError.
Status WriteFileAtomic(const std::string& path, const std::string& contents);

/// Writes every scene of `dataset` into `directory` as
/// `<directory>/<scene-name>.fixy.json` plus a `manifest.json` listing them.
Status SaveDataset(const Dataset& dataset, const std::string& directory);

/// Loads a dataset previously written by SaveDataset. Strict: the first
/// unreadable, unparseable, or invalid scene file fails the whole load.
Result<Dataset> LoadDataset(const std::string& directory);

/// Ingestion policy for LoadDataset.
struct DatasetLoadOptions {
  /// When true, scene files that cannot be read, parsed, or validated are
  /// skipped with a per-file diagnostic instead of failing the load; the
  /// returned dataset holds every scene that survived, in manifest order.
  /// A missing or malformed manifest is still an error — there is nothing
  /// to salvage without it.
  bool tolerant = false;
};

/// One quarantined scene file from a tolerant load.
struct SceneFileError {
  /// The file name as listed in the manifest.
  std::string file;
  /// Why it was skipped (IoError or InvalidArgument/FailedPrecondition).
  Status status;
};

/// A tolerant load's result: the surviving scenes plus per-file
/// diagnostics for everything that was skipped (empty in strict mode).
struct DatasetLoadReport {
  Dataset dataset;
  std::vector<SceneFileError> skipped;
};

/// Loads a dataset with the given ingestion policy; see DatasetLoadOptions.
Result<DatasetLoadReport> LoadDataset(const std::string& directory,
                                      const DatasetLoadOptions& options);

}  // namespace fixy::io

#endif  // FIXY_IO_SCENE_IO_H_
