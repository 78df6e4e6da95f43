#include "sim/detector.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "sim/object_priors.h"

namespace fixy::sim {

namespace {

// Per-frame detection probability given distance and occlusion.
double RecallAt(const DetectorParams& params, double distance,
                double occlusion) {
  double recall = params.base_recall;
  if (distance > params.range_falloff_start) {
    const double span = params.max_range - params.range_falloff_start;
    const double frac =
        std::clamp((distance - params.range_falloff_start) / span, 0.0, 1.0);
    recall = params.base_recall +
             frac * (params.recall_at_max_range - params.base_recall);
  }
  recall *= std::pow(std::max(0.0, 1.0 - occlusion), params.occlusion_power);
  return std::clamp(recall, 0.0, 1.0);
}

// Track-level confidence offset, drawn once per object. For the
// uncalibrated model this *is* the confidence base; for the calibrated
// model it is a small bias on top of per-frame detection quality.
double SampleTrackConfidenceBase(const DetectorParams& params, bool erroneous,
                                 Rng& rng) {
  if (params.calibrated) {
    return rng.Normal(0.0, params.calibrated_conf_noise);
  }
  const double mean = erroneous ? params.uncalibrated_conf_mean *
                                      params.error_confidence_factor
                                : params.uncalibrated_conf_mean;
  return rng.Normal(mean, params.uncalibrated_conf_sd);
}

double SampleConfidence(const DetectorParams& params, double quality,
                        bool erroneous, double track_base, Rng& rng) {
  double conf;
  if (params.calibrated) {
    const double q =
        erroneous ? quality * params.error_confidence_factor : quality;
    conf = q + track_base + rng.Normal(0.0, params.per_frame_conf_noise);
  } else {
    conf = track_base + rng.Normal(0.0, params.per_frame_conf_noise);
  }
  return std::clamp(conf, 0.02, 0.999);
}

ObjectClass ConfuseClass(ObjectClass true_class, Rng& rng) {
  // Pick a plausible confusion target: classes of similar scale confuse
  // most often (car<->truck, pedestrian<->motorcycle).
  switch (true_class) {
    case ObjectClass::kCar:
      return rng.Bernoulli(0.7) ? ObjectClass::kTruck
                                : ObjectClass::kMotorcycle;
    case ObjectClass::kTruck:
      return ObjectClass::kCar;
    case ObjectClass::kPedestrian:
      return ObjectClass::kMotorcycle;
    case ObjectClass::kMotorcycle:
      return rng.Bernoulli(0.6) ? ObjectClass::kPedestrian
                                : ObjectClass::kCar;
  }
  return ObjectClass::kCar;
}

}  // namespace

DetectorOutput GenerateDetections(const GtScene& gt,
                                  const DetectorParams& params, Rng& rng,
                                  ObservationId* next_id, GtLedger* ledger) {
  FIXY_CHECK(next_id != nullptr);
  FIXY_CHECK(ledger != nullptr);

  DetectorOutput output;
  output.observations.resize(static_cast<size_t>(gt.num_frames));

  // --- Real objects through the detection channel. ---
  for (const GtObject& object : gt.objects) {
    const bool class_confused =
        rng.Bernoulli(params.track_class_confusion_rate);
    const bool mislocalized = rng.Bernoulli(params.localization_error_rate);
    const ObjectClass emitted_class =
        class_confused ? ConfuseClass(object.object_class, rng)
                       : object.object_class;
    const double track_conf_base = SampleTrackConfidenceBase(
        params, class_confused || mislocalized, rng);

    int first_detected = -1;
    int last_detected = -1;
    double min_dist = -1.0;
    std::map<int, geom::Box3d> detected_boxes;

    for (int f = 0; f < gt.num_frames; ++f) {
      const GtState& state = object.states[static_cast<size_t>(f)];
      if (!state.visible) continue;
      const double distance =
          (state.position - gt.ego_positions[static_cast<size_t>(f)]).Norm();
      const double recall =
          RecallAt(params, distance, state.occlusion_fraction);
      if (!rng.Bernoulli(recall)) continue;

      geom::Box3d box = object.BoxAt(f);
      const double center_noise =
          mislocalized ? params.localization_noise_m : params.center_noise_m;
      const double size_noise = mislocalized
                                    ? params.localization_size_noise_frac
                                    : params.size_noise_frac;
      box.center.x += rng.Normal(0.0, center_noise);
      box.center.y += rng.Normal(0.0, center_noise);
      box.length = std::max(0.1, box.length * (1.0 + rng.Normal(0.0, size_noise)));
      box.width = std::max(0.1, box.width * (1.0 + rng.Normal(0.0, size_noise)));
      box.height = std::max(0.1, box.height * (1.0 + rng.Normal(0.0, size_noise)));
      box.yaw += rng.Normal(0.0, params.yaw_noise_rad);

      Observation obs;
      obs.id = (*next_id)++;
      obs.source = ObservationSource::kModel;
      obs.object_class = emitted_class;
      obs.box = box;
      // Erroneous tracks tend to carry depressed confidence (the model is
      // partially aware something is off) — this is what gives
      // uncertainty sampling its non-trivial baseline precision — but the
      // coupling is loose, so plenty of errors stay confident.
      obs.confidence =
          SampleConfidence(params, recall, class_confused || mislocalized,
                           track_conf_base, rng);
      output.observations[static_cast<size_t>(f)].push_back(std::move(obs));

      if (first_detected < 0) first_detected = f;
      last_detected = f;
      detected_boxes[f] = object.BoxAt(f);
      if (min_dist < 0.0 || distance < min_dist) min_dist = distance;
    }

    if (first_detected < 0) continue;  // Never detected: no emitted errors.
    if (class_confused || mislocalized) {
      GtError error;
      error.type = class_confused ? GtErrorType::kClassificationError
                                  : GtErrorType::kLocalizationError;
      error.scene_name = gt.name;
      error.object_key = object.gt_id;
      error.object_class = emitted_class;
      error.first_frame = first_detected;
      error.last_frame = last_detected;
      error.boxes = std::move(detected_boxes);
      error.min_ego_distance = std::max(0.0, min_dist);
      ledger->errors.push_back(std::move(error));
    }
  }

  // --- Hallucinated ghost tracks. ---
  const int ghost_count = rng.Poisson(params.ghost_tracks_per_scene);
  for (int g = 0; g < ghost_count; ++g) {
    const int length = params.ghost_min_frames +
                       static_cast<int>(rng.UniformInt(static_cast<uint64_t>(
                           params.ghost_max_frames - params.ghost_min_frames +
                           1)));
    const int max_start = std::max(0, gt.num_frames - length);
    const int start = static_cast<int>(
        rng.UniformInt(static_cast<uint64_t>(max_start + 1)));
    const int end = std::min(gt.num_frames - 1, start + length - 1);

    const std::vector<double> class_weights = {0.55, 0.15, 0.18, 0.12};
    const ObjectClass cls =
        static_cast<ObjectClass>(rng.Categorical(class_weights));
    SampledSize base_size = SampleSize(cls, rng);
    const double scale = std::exp(rng.Normal(0.0, params.ghost_scale_sigma));
    base_size.length *= scale;
    base_size.width *= scale;
    base_size.height *= scale;

    // Spawn near the ego path at the start frame.
    geom::Vec2 position =
        gt.ego_positions[static_cast<size_t>(start)] +
        geom::Vec2(rng.Uniform(-15.0, 35.0), rng.Uniform(-12.0, 12.0));
    double yaw = rng.Uniform(0.0, 2.0 * M_PI);

    GtError error;
    error.type = GtErrorType::kGhostTrack;
    error.scene_name = gt.name;
    error.object_key = 1000000 + static_cast<uint64_t>(g);
    error.object_class = cls;
    error.first_frame = start;
    error.last_frame = end;
    double min_dist = -1.0;

    // High confidence is a property of the hallucination, not of single
    // frames: some ghosts are confidently wrong throughout ("errors with
    // confidences as high as 95%"), which is what defeats both
    // confidence-ordered assertions and uncertainty sampling.
    const bool high_conf_ghost = rng.Bernoulli(params.high_conf_ghost_rate);
    const double ghost_conf_base =
        high_conf_ghost
            ? rng.Normal(0.97, 0.02)
            : rng.Normal(params.ghost_conf_mean, params.ghost_conf_sd);

    for (int f = start; f <= end; ++f) {
      // Erratic per-frame geometry: the inconsistency Fixy keys on.
      position += geom::Vec2(rng.Normal(0.0, params.ghost_jump_m),
                             rng.Normal(0.0, params.ghost_jump_m));
      yaw += rng.Normal(0.0, 0.3);
      geom::Box3d box(
          geom::Vec3(position.x, position.y, base_size.height / 2.0),
          std::max(0.1, base_size.length *
                            (1.0 + rng.Normal(0.0, params.ghost_size_noise_frac))),
          std::max(0.1, base_size.width *
                            (1.0 + rng.Normal(0.0, params.ghost_size_noise_frac))),
          std::max(0.1, base_size.height *
                            (1.0 + rng.Normal(0.0, params.ghost_size_noise_frac))),
          yaw);

      Observation obs;
      obs.id = (*next_id)++;
      obs.source = ObservationSource::kModel;
      obs.object_class = cls;
      obs.box = box;
      obs.confidence = std::clamp(
          ghost_conf_base + rng.Normal(0.0, params.per_frame_conf_noise),
          0.02, 0.999);
      output.observations[static_cast<size_t>(f)].push_back(std::move(obs));

      error.boxes[f] = box;
      const double d =
          (position - gt.ego_positions[static_cast<size_t>(f)]).Norm();
      if (min_dist < 0.0 || d < min_dist) min_dist = d;
    }
    error.min_ego_distance = std::max(0.0, min_dist);
    ledger->errors.push_back(std::move(error));
  }
  return output;
}

}  // namespace fixy::sim
