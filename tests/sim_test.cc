// Tests for src/sim: priors, world generation, sensor/occlusion model,
// label-error injection (ledger consistency), detector channel, profiles,
// and end-to-end scene generation determinism.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/random.h"
#include "sim/detector.h"
#include "sim/generate.h"
#include "sim/ground_truth.h"
#include "sim/labeler.h"
#include "sim/ledger.h"
#include "sim/object_priors.h"
#include "sim/profiles.h"
#include "sim/sensor.h"
#include "sim/world.h"

namespace fixy::sim {
namespace {

// ---------------------------------------------------------------- Priors

TEST(ObjectPriorsTest, ClassScalesAreOrdered) {
  EXPECT_GT(PriorFor(ObjectClass::kTruck).length_mean,
            PriorFor(ObjectClass::kCar).length_mean);
  EXPECT_GT(PriorFor(ObjectClass::kCar).length_mean,
            PriorFor(ObjectClass::kMotorcycle).length_mean);
  EXPECT_GT(PriorFor(ObjectClass::kMotorcycle).length_mean,
            PriorFor(ObjectClass::kPedestrian).length_mean);
}

TEST(ObjectPriorsTest, SampledSizesArePositiveAndNearMean) {
  Rng rng(1);
  for (ObjectClass cls : kAllObjectClasses) {
    const ClassPrior& prior = PriorFor(cls);
    double sum = 0.0;
    for (int i = 0; i < 2000; ++i) {
      const SampledSize size = SampleSize(cls, rng);
      EXPECT_GT(size.length, 0.0);
      EXPECT_GT(size.width, 0.0);
      EXPECT_GT(size.height, 0.0);
      sum += size.length;
    }
    EXPECT_NEAR(sum / 2000.0, prior.length_mean, prior.length_sd * 0.2);
  }
}

TEST(ObjectPriorsTest, SpeedsRespectStationaryFraction) {
  Rng rng(2);
  int stationary = 0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    const double speed = SampleSpeed(ObjectClass::kCar, rng);
    EXPECT_GE(speed, 0.0);
    if (speed == 0.0) ++stationary;
  }
  EXPECT_NEAR(static_cast<double>(stationary) / n,
              PriorFor(ObjectClass::kCar).stationary_fraction, 0.03);
}

// ---------------------------------------------------------- GroundTruth

TEST(GroundTruthTest, BoxAtUsesStateAndExtents) {
  GtObject object;
  object.object_class = ObjectClass::kCar;
  object.length = 4.0;
  object.width = 2.0;
  object.height = 1.6;
  GtState state;
  state.position = {10, 5};
  state.yaw = 0.3;
  object.states.push_back(state);
  const geom::Box3d box = object.BoxAt(0);
  EXPECT_DOUBLE_EQ(box.center.x, 10.0);
  EXPECT_DOUBLE_EQ(box.center.z, 0.8);
  EXPECT_DOUBLE_EQ(box.yaw, 0.3);
  EXPECT_DOUBLE_EQ(box.Volume(), 4.0 * 2.0 * 1.6);
}

TEST(GroundTruthTest, VisibleFrameCount) {
  GtObject object;
  object.states.resize(5);
  object.states[1].visible = false;
  object.states[3].visible = false;
  EXPECT_EQ(object.VisibleFrameCount(), 3);
}

// ----------------------------------------------------------------- World

TEST(WorldTest, GeneratesRequestedShape) {
  WorldParams params;
  params.duration_seconds = 10.0;
  params.frame_rate_hz = 10.0;
  Rng rng(3);
  const GtScene scene = GenerateWorld(params, "w", rng);
  EXPECT_EQ(scene.num_frames, 100);
  EXPECT_EQ(scene.ego_positions.size(), 100u);
  EXPECT_FALSE(scene.objects.empty());
  for (const GtObject& object : scene.objects) {
    EXPECT_EQ(object.states.size(), 100u);
    EXPECT_GT(object.length, 0.0);
  }
}

TEST(WorldTest, EgoMovesAtConstantSpeed) {
  WorldParams params;
  params.ego_speed_mps = 10.0;
  params.frame_rate_hz = 10.0;
  Rng rng(4);
  const GtScene scene = GenerateWorld(params, "w", rng);
  EXPECT_NEAR(scene.ego_positions[10].x - scene.ego_positions[0].x, 10.0,
              1e-9);
  EXPECT_DOUBLE_EQ(scene.ego_positions[5].y, 0.0);
}

TEST(WorldTest, DeterministicForSameSeed) {
  WorldParams params;
  Rng rng1(5);
  Rng rng2(5);
  const GtScene a = GenerateWorld(params, "w", rng1);
  const GtScene b = GenerateWorld(params, "w", rng2);
  ASSERT_EQ(a.objects.size(), b.objects.size());
  for (size_t i = 0; i < a.objects.size(); ++i) {
    EXPECT_EQ(a.objects[i].object_class, b.objects[i].object_class);
    EXPECT_DOUBLE_EQ(a.objects[i].states[50].position.x,
                     b.objects[i].states[50].position.x);
  }
}

TEST(WorldTest, MovingVehiclesActuallyMove) {
  WorldParams params;
  params.mean_object_count = 60.0;
  Rng rng(6);
  const GtScene scene = GenerateWorld(params, "w", rng);
  int moving = 0;
  for (const GtObject& object : scene.objects) {
    const double displacement =
        (object.states.back().position - object.states.front().position)
            .Norm();
    if (object.states[0].speed > 0.5) {
      EXPECT_GT(displacement, 1.0);
      ++moving;
    }
  }
  EXPECT_GT(moving, 10);
}

TEST(WorldTest, TimestampsFollowFrameRate) {
  WorldParams params;
  params.frame_rate_hz = 5.0;
  Rng rng(7);
  const GtScene scene = GenerateWorld(params, "w", rng);
  EXPECT_DOUBLE_EQ(scene.TimestampOf(0), 0.0);
  EXPECT_DOUBLE_EQ(scene.TimestampOf(5), 1.0);
}

// ---------------------------------------------------------------- Sensor

GtScene TwoObjectWorld() {
  GtScene scene;
  scene.name = "sensor";
  scene.frame_rate_hz = 10.0;
  scene.num_frames = 1;
  scene.ego_positions = {{0, 0}};
  scene.ego_yaws = {0.0};
  // A large truck 10 m ahead, directly between ego and a car 30 m ahead.
  GtObject truck;
  truck.gt_id = 0;
  truck.object_class = ObjectClass::kTruck;
  truck.length = 8;
  truck.width = 3;
  truck.height = 3.5;
  truck.states.push_back({{10, 0}, 0.0, 0.0, true, 0.0});
  GtObject car;
  car.gt_id = 1;
  car.object_class = ObjectClass::kCar;
  car.length = 4.5;
  car.width = 1.9;
  car.height = 1.7;
  car.states.push_back({{30, 0}, 0.0, 0.0, true, 0.0});
  scene.objects = {truck, car};
  return scene;
}

TEST(SensorTest, OcclusionShadowsFartherObject) {
  GtScene scene = TwoObjectWorld();
  ComputeVisibility(&scene);
  EXPECT_TRUE(scene.objects[0].states[0].visible);   // truck: near field
  EXPECT_FALSE(scene.objects[1].states[0].visible);  // car: fully shadowed
  EXPECT_GT(scene.objects[1].states[0].occlusion_fraction, 0.6);
}

TEST(SensorTest, OffAxisObjectStaysVisible) {
  GtScene scene = TwoObjectWorld();
  scene.objects[1].states[0].position = {30, 25};  // well off the truck axis
  ComputeVisibility(&scene);
  EXPECT_TRUE(scene.objects[1].states[0].visible);
}

TEST(SensorTest, RangeLimitHidesFarObjects) {
  GtScene scene = TwoObjectWorld();
  scene.objects[1].states[0].position = {200, 0};
  SensorParams params;
  params.max_range_meters = 75.0;
  ComputeVisibility(&scene, params);
  EXPECT_FALSE(scene.objects[1].states[0].visible);
  EXPECT_DOUBLE_EQ(scene.objects[1].states[0].occlusion_fraction, 1.0);
}

TEST(SensorTest, NearFieldNeverOccluded) {
  GtScene scene = TwoObjectWorld();
  scene.objects[1].states[0].position = {4, 0};  // inside near field
  ComputeVisibility(&scene);
  EXPECT_TRUE(scene.objects[1].states[0].visible);
}

// --------------------------------------------------------------- Labeler

GtScene SimpleVisibleWorld(int objects, int frames) {
  GtScene scene;
  scene.name = "labeler";
  scene.frame_rate_hz = 10.0;
  scene.num_frames = frames;
  for (int f = 0; f < frames; ++f) {
    scene.ego_positions.push_back({0, 0});
    scene.ego_yaws.push_back(0.0);
  }
  for (int i = 0; i < objects; ++i) {
    GtObject object;
    object.gt_id = static_cast<uint64_t>(i);
    object.object_class = ObjectClass::kCar;
    object.length = 4.5;
    object.width = 1.9;
    object.height = 1.7;
    for (int f = 0; f < frames; ++f) {
      object.states.push_back(
          {{10.0 + 8.0 * i, 0.4 * f}, 0.0, 4.0, true, 0.0});
    }
    scene.objects.push_back(std::move(object));
  }
  return scene;
}

TEST(LabelerTest, PerfectVendorLabelsEverything) {
  const GtScene gt = SimpleVisibleWorld(5, 10);
  LabelerProfile profile;
  profile.missing_track_rate = 0.0;
  profile.short_visibility_miss_rate = 0.0;
  profile.missing_obs_rate = 0.0;
  Rng rng(8);
  ObservationId next_id = 1;
  GtLedger ledger;
  const LabelerOutput output =
      GenerateHumanLabels(gt, profile, rng, &next_id, &ledger);
  EXPECT_TRUE(ledger.errors.empty());
  size_t total = 0;
  for (const auto& frame : output.observations) total += frame.size();
  EXPECT_EQ(total, 50u);
}

TEST(LabelerTest, ExactMissingTracksHonored) {
  const GtScene gt = SimpleVisibleWorld(10, 10);
  LabelerProfile profile;
  profile.exact_missing_tracks = 4;
  Rng rng(9);
  ObservationId next_id = 1;
  GtLedger ledger;
  GenerateHumanLabels(gt, profile, rng, &next_id, &ledger);
  EXPECT_EQ(ledger.CountByType(GtErrorType::kMissingTrack), 4u);
}

TEST(LabelerTest, MissedTrackProducesNoLabelsAndLedgerEntry) {
  const GtScene gt = SimpleVisibleWorld(1, 8);
  LabelerProfile profile;
  // An 8-frame track counts as "short visibility", so both rates must be 1
  // for a guaranteed miss.
  profile.missing_track_rate = 1.0;
  profile.short_visibility_miss_rate = 1.0;
  Rng rng(10);
  ObservationId next_id = 1;
  GtLedger ledger;
  const LabelerOutput output =
      GenerateHumanLabels(gt, profile, rng, &next_id, &ledger);
  for (const auto& frame : output.observations) EXPECT_TRUE(frame.empty());
  ASSERT_EQ(ledger.errors.size(), 1u);
  const GtError& error = ledger.errors[0];
  EXPECT_EQ(error.type, GtErrorType::kMissingTrack);
  EXPECT_EQ(error.first_frame, 0);
  EXPECT_EQ(error.last_frame, 7);
  EXPECT_EQ(error.boxes.size(), 8u);
  EXPECT_NEAR(error.min_ego_distance, 10.0, 0.5);
}

TEST(LabelerTest, MissingObsOnlyInteriorFrames) {
  const GtScene gt = SimpleVisibleWorld(1, 20);
  LabelerProfile profile;
  profile.missing_track_rate = 0.0;
  profile.short_visibility_miss_rate = 0.0;
  profile.missing_obs_rate = 1.0;  // drop every interior frame
  Rng rng(11);
  ObservationId next_id = 1;
  GtLedger ledger;
  const LabelerOutput output =
      GenerateHumanLabels(gt, profile, rng, &next_id, &ledger);
  // First and last visible frames are always labeled.
  EXPECT_EQ(output.observations.front().size(), 1u);
  EXPECT_EQ(output.observations.back().size(), 1u);
  EXPECT_EQ(ledger.CountByType(GtErrorType::kMissingObservation), 18u);
}

TEST(LabelerTest, LabelNoiseIsBounded) {
  const GtScene gt = SimpleVisibleWorld(3, 10);
  LabelerProfile profile;
  profile.missing_track_rate = 0.0;
  profile.short_visibility_miss_rate = 0.0;
  profile.center_jitter_m = 0.05;
  Rng rng(12);
  ObservationId next_id = 1;
  GtLedger ledger;
  const LabelerOutput output =
      GenerateHumanLabels(gt, profile, rng, &next_id, &ledger);
  for (int f = 0; f < gt.num_frames; ++f) {
    for (const Observation& obs : output.observations[static_cast<size_t>(f)]) {
      EXPECT_DOUBLE_EQ(obs.confidence, 1.0);
      EXPECT_EQ(obs.source, ObservationSource::kHuman);
      // Box stays near some ground-truth object.
      double best = 1e9;
      for (const GtObject& object : gt.objects) {
        best = std::min(best, (obs.box.center.Xy() -
                               object.states[static_cast<size_t>(f)].position)
                                  .Norm());
      }
      EXPECT_LT(best, 1.0);
    }
  }
}

TEST(LabelerTest, InvisibleObjectNeitherLabeledNorCharged) {
  GtScene gt = SimpleVisibleWorld(1, 10);
  for (auto& state : gt.objects[0].states) state.visible = false;
  LabelerProfile profile;
  profile.missing_track_rate = 1.0;
  Rng rng(13);
  ObservationId next_id = 1;
  GtLedger ledger;
  const LabelerOutput output =
      GenerateHumanLabels(gt, profile, rng, &next_id, &ledger);
  for (const auto& frame : output.observations) EXPECT_TRUE(frame.empty());
  EXPECT_TRUE(ledger.errors.empty());
}

// -------------------------------------------------------------- Detector

TEST(DetectorTest, PerfectDetectorEmitsNoErrors) {
  const GtScene gt = SimpleVisibleWorld(4, 10);
  DetectorParams params;
  params.base_recall = 1.0;
  params.recall_at_max_range = 1.0;
  params.track_class_confusion_rate = 0.0;
  params.localization_error_rate = 0.0;
  params.ghost_tracks_per_scene = 0.0;
  Rng rng(14);
  ObservationId next_id = 1;
  GtLedger ledger;
  const DetectorOutput output =
      GenerateDetections(gt, params, rng, &next_id, &ledger);
  EXPECT_TRUE(ledger.errors.empty());
  size_t total = 0;
  for (const auto& frame : output.observations) total += frame.size();
  EXPECT_EQ(total, 40u);
}

TEST(DetectorTest, GhostsAreLedgeredAndContiguous) {
  const GtScene gt = SimpleVisibleWorld(0, 30);
  DetectorParams params;
  params.ghost_tracks_per_scene = 10.0;
  Rng rng(15);
  ObservationId next_id = 1;
  GtLedger ledger;
  const DetectorOutput output =
      GenerateDetections(gt, params, rng, &next_id, &ledger);
  const size_t ghosts = ledger.CountByType(GtErrorType::kGhostTrack);
  EXPECT_GT(ghosts, 3u);
  size_t emitted = 0;
  for (const auto& frame : output.observations) emitted += frame.size();
  EXPECT_GT(emitted, 0u);
  for (const GtError& error : ledger.errors) {
    ASSERT_EQ(error.type, GtErrorType::kGhostTrack);
    // Gap-free by construction (so the flicker assertion cannot fire).
    EXPECT_EQ(static_cast<int>(error.boxes.size()),
              error.last_frame - error.first_frame + 1);
    EXPECT_GE(error.last_frame - error.first_frame + 1,
              params.ghost_min_frames);
  }
}

TEST(DetectorTest, ClassConfusionLedgered) {
  const GtScene gt = SimpleVisibleWorld(6, 10);
  DetectorParams params;
  params.base_recall = 1.0;
  params.recall_at_max_range = 1.0;
  params.track_class_confusion_rate = 1.0;  // always confuse
  params.localization_error_rate = 0.0;
  params.ghost_tracks_per_scene = 0.0;
  Rng rng(16);
  ObservationId next_id = 1;
  GtLedger ledger;
  const DetectorOutput output =
      GenerateDetections(gt, params, rng, &next_id, &ledger);
  EXPECT_EQ(ledger.CountByType(GtErrorType::kClassificationError), 6u);
  // Every emitted observation carries a non-car class (cars were input).
  for (const auto& frame : output.observations) {
    for (const Observation& obs : frame) {
      EXPECT_NE(obs.object_class, ObjectClass::kCar);
    }
  }
}

TEST(DetectorTest, CalibratedConfidenceTracksRecall) {
  // Two near objects (x = 10, 18) stay inside the full-recall range, so
  // calibrated confidences cluster at base_recall.
  const GtScene gt = SimpleVisibleWorld(2, 20);
  DetectorParams params;
  params.calibrated = true;
  params.ghost_tracks_per_scene = 0.0;
  params.track_class_confusion_rate = 0.0;
  params.localization_error_rate = 0.0;
  Rng rng(17);
  ObservationId next_id = 1;
  GtLedger ledger;
  const DetectorOutput output =
      GenerateDetections(gt, params, rng, &next_id, &ledger);
  // Near, unoccluded objects: confidence should cluster near base_recall.
  double sum = 0.0;
  size_t count = 0;
  for (const auto& frame : output.observations) {
    for (const Observation& obs : frame) {
      sum += obs.confidence;
      ++count;
    }
  }
  ASSERT_GT(count, 0u);
  EXPECT_NEAR(sum / static_cast<double>(count), params.base_recall, 0.05);
}

TEST(DetectorTest, RecallFallsWithDistance) {
  // One object near, one far; detection counts should differ.
  GtScene gt = SimpleVisibleWorld(2, 200);
  for (auto& state : gt.objects[0].states) state.position = {12, 0};
  for (auto& state : gt.objects[1].states) state.position = {70, 0};
  for (auto& object : gt.objects) {
    for (auto& state : object.states) state.visible = true;
  }
  DetectorParams params;
  params.ghost_tracks_per_scene = 0.0;
  Rng rng(18);
  ObservationId next_id = 1;
  GtLedger ledger;
  const DetectorOutput output =
      GenerateDetections(gt, params, rng, &next_id, &ledger);
  int near = 0;
  int far = 0;
  for (const auto& frame : output.observations) {
    for (const Observation& obs : frame) {
      if (obs.box.center.x < 40) {
        ++near;
      } else {
        ++far;
      }
    }
  }
  EXPECT_GT(near, far + 20);
}

// -------------------------------------------------------------- Profiles

TEST(ProfilesTest, LyftIsNoisierThanInternal) {
  const SimProfile lyft = LyftLikeProfile();
  const SimProfile internal = InternalLikeProfile();
  EXPECT_GT(lyft.labeler.missing_track_rate,
            internal.labeler.missing_track_rate);
  EXPECT_GT(lyft.detector.ghost_tracks_per_scene,
            internal.detector.ghost_tracks_per_scene);
  EXPECT_FALSE(lyft.detector.calibrated);
  EXPECT_TRUE(internal.detector.calibrated);
  // Different sampling rates (Section 8.1).
  EXPECT_NE(lyft.world.frame_rate_hz, internal.world.frame_rate_hz);
}

// -------------------------------------------------------------- Generate

TEST(GenerateTest, SceneIsValidAndLabeled) {
  const GeneratedScene generated =
      GenerateScene(LyftLikeProfile(), "g", 123);
  EXPECT_TRUE(generated.scene.Validate().ok());
  EXPECT_GT(generated.scene.CountBySource(ObservationSource::kHuman), 0u);
  EXPECT_GT(generated.scene.CountBySource(ObservationSource::kModel), 0u);
  EXPECT_EQ(generated.scene.frame_count(),
            static_cast<size_t>(generated.ground_truth.num_frames));
}

TEST(GenerateTest, DeterministicForSameSeed) {
  const GeneratedScene a = GenerateScene(LyftLikeProfile(), "g", 5);
  const GeneratedScene b = GenerateScene(LyftLikeProfile(), "g", 5);
  EXPECT_EQ(a.scene.TotalObservations(), b.scene.TotalObservations());
  ASSERT_EQ(a.ledger.errors.size(), b.ledger.errors.size());
  for (size_t i = 0; i < a.ledger.errors.size(); ++i) {
    EXPECT_EQ(a.ledger.errors[i].type, b.ledger.errors[i].type);
    EXPECT_EQ(a.ledger.errors[i].object_key, b.ledger.errors[i].object_key);
  }
}

TEST(GenerateTest, DifferentSeedsDiffer) {
  const GeneratedScene a = GenerateScene(LyftLikeProfile(), "g", 1);
  const GeneratedScene b = GenerateScene(LyftLikeProfile(), "g", 2);
  EXPECT_NE(a.scene.TotalObservations(), b.scene.TotalObservations());
}

TEST(GenerateTest, SceneNameFeedsSeed) {
  const GeneratedScene a = GenerateScene(LyftLikeProfile(), "a", 1);
  const GeneratedScene b = GenerateScene(LyftLikeProfile(), "b", 1);
  EXPECT_NE(a.scene.TotalObservations(), b.scene.TotalObservations());
}

TEST(GenerateTest, ExactMissingTracksPropagates) {
  SceneGenOptions options;
  options.exact_missing_tracks = 10;
  const GeneratedScene generated =
      GenerateScene(InternalLikeProfile(), "audit", 77, options);
  EXPECT_EQ(generated.ledger.CountByType(GtErrorType::kMissingTrack), 10u);
}

TEST(GenerateTest, DatasetAggregatesLedger) {
  const GeneratedDataset dataset =
      GenerateDataset(LyftLikeProfile(), "ds", 3, 9);
  EXPECT_EQ(dataset.dataset.scenes.size(), 3u);
  std::set<std::string> names;
  for (const GtError& error : dataset.ledger.errors) {
    names.insert(error.scene_name);
  }
  // Errors come from the generated scenes only.
  for (const std::string& name : names) {
    EXPECT_TRUE(name.find("ds_") == 0) << name;
  }
  EXPECT_EQ(dataset.ledger.ErrorsInScene("ds_0").size(),
            dataset.ledger.errors.size() -
                dataset.ledger.ErrorsInScene("ds_1").size() -
                dataset.ledger.ErrorsInScene("ds_2").size());
}

TEST(LedgerTest, CountsAndToString) {
  GtLedger ledger;
  GtError e1;
  e1.type = GtErrorType::kMissingTrack;
  e1.scene_name = "s1";
  GtError e2;
  e2.type = GtErrorType::kGhostTrack;
  e2.scene_name = "s2";
  ledger.errors = {e1, e2};
  EXPECT_EQ(ledger.CountByType(GtErrorType::kMissingTrack), 1u);
  EXPECT_NE(e1.ToString().find("missing_track"), std::string::npos);
  EXPECT_NE(e2.ToString().find("ghost_track"), std::string::npos);
}

}  // namespace
}  // namespace fixy::sim
