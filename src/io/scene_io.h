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
#include <string_view>
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

/// True when `a` and `b` hold the same scene field for field, with every
/// double compared by its bit pattern. The FXB cache's decode-back parity
/// check. On valid scenes it agrees with comparing SceneToString texts,
/// which carry the same fields and every finite double's bits (the sign of
/// a zero included), without serializing either scene.
bool BitIdentical(const Scene& a, const Scene& b);

/// Writes every scene of `dataset` into `directory` as
/// `<directory>/<scene-name>.fixy.json` plus a `manifest.json` listing them.
Status SaveDataset(const Dataset& dataset, const std::string& directory);

/// Reads `<directory>/manifest.json` (memory-mapped) and returns the
/// scene file names it lists, in manifest order, plus the dataset name
/// when `dataset_name` is non-null. LoadDataset, DirectorySceneSource and
/// the FXB cache's source records all read the scene list through it.
/// Errors: IoError when the manifest is unreadable; otherwise
/// ParseManifestSceneFiles'.
Result<std::vector<std::string>> ReadManifestSceneFiles(
    const std::string& directory, std::string* dataset_name = nullptr);

/// The one manifest parser, over the manifest's text: the FXB cache
/// writer parses the same bytes it checksums. Errors: InvalidArgument
/// when `text` is not a fixy-dataset manifest, lacks the requested name
/// or the scenes array, or lists a scene entry that is not a string.
Result<std::vector<std::string>> ParseManifestSceneFiles(
    std::string_view text, std::string* dataset_name = nullptr);

/// Loads a dataset previously written by SaveDataset. Strict: the first
/// unreadable, unparseable, or invalid scene file fails the whole load.
Result<Dataset> LoadDataset(const std::string& directory);

}  // namespace fixy::io

#endif  // FIXY_IO_SCENE_IO_H_
