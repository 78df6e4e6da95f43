#include "dsl/feature_score_cache.h"

namespace fixy {

namespace {

FeatureContext ContextForBundle(const ObservationBundle& bundle,
                                double frame_rate_hz) {
  FeatureContext ctx;
  ctx.ego_position = bundle.ego_position;
  ctx.frame_rate_hz = frame_rate_hz;
  return ctx;
}

}  // namespace

void ComputeRawTrackScores(const FeatureDistribution& fd, const Track& track,
                           double frame_rate_hz, RawTrackScores* out) {
  out->Clear();
  const auto& bundles = track.bundles();
  switch (fd.feature().kind()) {
    case FeatureKind::kObservation:
      fd.RawScoreTrackObservations(track, frame_rate_hz, out);
      break;
    case FeatureKind::kBundle:
      out->values.reserve(bundles.size());
      out->engaged.reserve(bundles.size());
      for (const ObservationBundle& b : bundles) {
        out->Push(fd.RawScoreBundle(b, ContextForBundle(b, frame_rate_hz)));
      }
      break;
    case FeatureKind::kTransition:
      for (size_t b = 0; b + 1 < bundles.size(); ++b) {
        out->Push(fd.RawScoreTransition(
            bundles[b], bundles[b + 1],
            ContextForBundle(bundles[b], frame_rate_hz)));
      }
      break;
    case FeatureKind::kTrack:
      if (!bundles.empty()) {
        out->Push(fd.RawScoreTrack(
            track, ContextForBundle(bundles.front(), frame_rate_hz)));
      }
      break;
  }
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
