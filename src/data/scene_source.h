// SceneSource: the streaming-ingestion abstraction. A source knows how
// many scenes it has and can decode any one of them on demand, from any
// thread — which is what lets each rank worker of
// Fixy::RankDatasetStreaming decode the scene it is about to rank instead
// of materializing the whole dataset before the first scene is scored.
//
// Implementations: io::FxbSceneSource (binary cache, mmap-backed),
// io::DirectorySceneSource (per-file JSON), and the in-memory
// DatasetSceneSource below (tests and already-loaded datasets).
#ifndef FIXY_DATA_SCENE_SOURCE_H_
#define FIXY_DATA_SCENE_SOURCE_H_

#include <string>

#include "common/result.h"
#include "common/string_util.h"
#include "data/scene.h"

namespace fixy {

/// A source of scenes decoded on demand.
class SceneSource {
 public:
  virtual ~SceneSource() = default;

  /// Number of scenes this source can produce.
  virtual size_t scene_count() const = 0;

  /// Best-effort name of scene `index` without decoding it (used to label
  /// the outcome when decode itself fails). May return a placeholder.
  virtual std::string scene_name(size_t index) const = 0;

  /// Decodes scene `index`, validating it at the ingestion boundary.
  /// Thread-safe: may be called concurrently from multiple threads.
  virtual Result<Scene> DecodeScene(size_t index) const = 0;
};

/// An already-materialized Dataset as a SceneSource. Decoding copies the
/// scene out; the referenced dataset must outlive the source.
class DatasetSceneSource : public SceneSource {
 public:
  explicit DatasetSceneSource(const Dataset& dataset) : dataset_(dataset) {}

  size_t scene_count() const override { return dataset_.scenes.size(); }

  std::string scene_name(size_t index) const override {
    return index < dataset_.scenes.size() ? dataset_.scenes[index].name()
                                          : std::string();
  }

  Result<Scene> DecodeScene(size_t index) const override {
    if (index >= dataset_.scenes.size()) {
      return Status::OutOfRange(
          StrFormat("scene index %zu out of range (%zu scenes)", index,
                    dataset_.scenes.size()));
    }
    return dataset_.scenes[index];
  }

 private:
  const Dataset& dataset_;
};

}  // namespace fixy

#endif  // FIXY_DATA_SCENE_SOURCE_H_
