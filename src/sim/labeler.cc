#include "sim/labeler.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace fixy::sim {

namespace {

// First/last visible frame of an object; {-1, -1} when never visible.
std::pair<int, int> VisibleSpan(const GtObject& object) {
  int first = -1;
  int last = -1;
  for (int f = 0; f < static_cast<int>(object.states.size()); ++f) {
    if (object.states[static_cast<size_t>(f)].visible) {
      if (first < 0) first = f;
      last = f;
    }
  }
  return {first, last};
}

GtError MakeTrackError(const GtScene& gt, const GtObject& object,
                       GtErrorType type, int first, int last) {
  GtError error;
  error.type = type;
  error.scene_name = gt.name;
  error.object_key = object.gt_id;
  error.object_class = object.object_class;
  error.first_frame = first;
  error.last_frame = last;
  double min_dist = -1.0;
  for (int f = first; f <= last; ++f) {
    if (!object.states[static_cast<size_t>(f)].visible) continue;
    error.boxes[f] = object.BoxAt(f);
    const double d = (object.states[static_cast<size_t>(f)].position -
                      gt.ego_positions[static_cast<size_t>(f)])
                         .Norm();
    if (min_dist < 0.0 || d < min_dist) min_dist = d;
  }
  error.min_ego_distance = std::max(0.0, min_dist);
  return error;
}

geom::Box3d JitterBox(const geom::Box3d& box, const LabelerProfile& profile,
                      Rng& rng) {
  geom::Box3d noisy = box;
  noisy.center.x += rng.Normal(0.0, profile.center_jitter_m);
  noisy.center.y += rng.Normal(0.0, profile.center_jitter_m);
  noisy.length =
      std::max(0.1, noisy.length * (1.0 + rng.Normal(0.0, profile.size_jitter_frac)));
  noisy.width =
      std::max(0.1, noisy.width * (1.0 + rng.Normal(0.0, profile.size_jitter_frac)));
  noisy.height =
      std::max(0.1, noisy.height * (1.0 + rng.Normal(0.0, profile.size_jitter_frac)));
  noisy.yaw += rng.Normal(0.0, profile.yaw_jitter_rad);
  return noisy;
}

}  // namespace

LabelerOutput GenerateHumanLabels(const GtScene& gt,
                                  const LabelerProfile& profile, Rng& rng,
                                  ObservationId* next_id, GtLedger* ledger) {
  FIXY_CHECK(next_id != nullptr);
  FIXY_CHECK(ledger != nullptr);

  LabelerOutput output;
  output.observations.resize(static_cast<size_t>(gt.num_frames));

  // Decide which labelable objects are missed entirely.
  std::vector<size_t> labelable;
  for (size_t i = 0; i < gt.objects.size(); ++i) {
    if (gt.objects[i].VisibleFrameCount() >=
        profile.min_visible_frames_to_label) {
      labelable.push_back(i);
    }
  }
  std::vector<bool> missed(gt.objects.size(), false);
  if (profile.exact_missing_tracks.has_value()) {
    // Deterministic count: shuffle labelable objects and miss the first k.
    std::vector<size_t> shuffled = labelable;
    for (size_t i = shuffled.size(); i > 1; --i) {
      std::swap(shuffled[i - 1], shuffled[rng.UniformInt(i)]);
    }
    const size_t k = std::min(
        shuffled.size(),
        static_cast<size_t>(std::max(0, *profile.exact_missing_tracks)));
    for (size_t i = 0; i < k; ++i) missed[shuffled[i]] = true;
  } else {
    for (size_t i : labelable) {
      const bool is_short =
          gt.objects[i].VisibleFrameCount() < profile.short_visibility_frames;
      const double p = is_short ? profile.short_visibility_miss_rate
                                : profile.missing_track_rate;
      missed[i] = rng.Bernoulli(p);
    }
  }

  for (size_t i = 0; i < gt.objects.size(); ++i) {
    const GtObject& object = gt.objects[i];
    const auto [first, last] = VisibleSpan(object);
    if (first < 0) continue;  // Never visible: nothing to label or miss.
    const bool labelable_object =
        object.VisibleFrameCount() >= profile.min_visible_frames_to_label;
    if (!labelable_object) continue;

    if (missed[i]) {
      ledger->errors.push_back(
          MakeTrackError(gt, object, GtErrorType::kMissingTrack, first, last));
      continue;
    }

    // Label each visible frame; interior frames may be skipped.
    for (int f = first; f <= last; ++f) {
      const GtState& state = object.states[static_cast<size_t>(f)];
      if (!state.visible) continue;
      const bool interior = f != first && f != last;
      if (interior && rng.Bernoulli(profile.missing_obs_rate)) {
        GtError error = MakeTrackError(
            gt, object, GtErrorType::kMissingObservation, f, f);
        ledger->errors.push_back(std::move(error));
        continue;
      }
      Observation obs;
      obs.id = (*next_id)++;
      obs.source = ObservationSource::kHuman;
      obs.object_class = object.object_class;
      obs.box = JitterBox(object.BoxAt(f), profile, rng);
      obs.confidence = 1.0;
      output.observations[static_cast<size_t>(f)].push_back(std::move(obs));
    }
  }
  return output;
}

}  // namespace fixy::sim
