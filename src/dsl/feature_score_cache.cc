#include "dsl/feature_score_cache.h"

namespace fixy {

void ComputeRawTrackScores(const FeatureDistribution& fd, const Track& track,
                           double frame_rate_hz, RawTrackScores* out) {
  out->Clear();
  ForEachFeatureValue(fd.feature(), track, frame_rate_hz,
                      [&fd, out](std::optional<double> value,
                                 std::optional<ObjectClass> cls) {
                        out->Push(fd.RawScore(value, cls));
                      });
}

const RawTrackScores& FeatureScoreCache::Get(const FeatureDistribution& fd,
                                             const Track& track,
                                             size_t track_index) {
  const void* first_per_class = nullptr;
  if (!fd.per_class_distributions().empty()) {
    first_per_class = fd.per_class_distributions().begin()->second.get();
  }
  const Key key{&fd.feature(), fd.global_distribution().get(), first_per_class,
                track_index};
  auto it = cache_.find(key);
  if (it == cache_.end()) {
    it = cache_.emplace(key, RawTrackScores{}).first;
    ComputeRawTrackScores(fd, track, frame_rate_hz_, &it->second);
  }
  return it->second;
}

}  // namespace fixy
