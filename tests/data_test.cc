// Tests for src/data: enums, observations, scenes (incl. validation
// failure injection), bundles, and tracks.
#include <gtest/gtest.h>

#include <limits>

#include "data/observation.h"
#include "data/scene.h"
#include "data/track.h"
#include "data/types.h"

namespace fixy {
namespace {

Observation MakeObs(ObservationId id, ObservationSource source,
                    ObjectClass cls, double x, double y,
                    double confidence = 1.0) {
  Observation obs;
  obs.id = id;
  obs.source = source;
  obs.object_class = cls;
  obs.box = geom::Box3d({x, y, 0.85}, 4.5, 1.9, 1.7, 0.0);
  obs.confidence = confidence;
  return obs;
}

// ---------------------------------------------------------------- Types

TEST(TypesTest, ObjectClassRoundTrip) {
  for (ObjectClass cls : kAllObjectClasses) {
    const auto parsed = ObjectClassFromString(ObjectClassToString(cls));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, cls);
  }
}

TEST(TypesTest, ObjectClassFromStringRejectsUnknown) {
  EXPECT_FALSE(ObjectClassFromString("bicycle").ok());
  EXPECT_FALSE(ObjectClassFromString("").ok());
}

TEST(TypesTest, ObservationSourceRoundTrip) {
  for (int i = 0; i < kNumObservationSources; ++i) {
    const auto source = static_cast<ObservationSource>(i);
    const auto parsed =
        ObservationSourceFromString(ObservationSourceToString(source));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, source);
  }
  EXPECT_FALSE(ObservationSourceFromString("oracle").ok());
}

// ---------------------------------------------------------------- Scene

Scene MakeValidScene(int frames = 3) {
  Scene scene("test", 10.0);
  ObservationId id = 1;
  for (int f = 0; f < frames; ++f) {
    Frame frame;
    frame.index = f;
    frame.timestamp = f * 0.1;
    frame.ego_position = {f * 0.8, 0.0};
    frame.observations.push_back(MakeObs(
        id++, ObservationSource::kHuman, ObjectClass::kCar, 10.0 + f, 2));
    frame.observations.push_back(MakeObs(id++, ObservationSource::kModel,
                                         ObjectClass::kCar, 10.05 + f, 2.02, 0.9));
    scene.AddFrame(std::move(frame));
  }
  return scene;
}

TEST(SceneTest, BasicAccessors) {
  const Scene scene = MakeValidScene(5);
  EXPECT_EQ(scene.frame_count(), 5u);
  EXPECT_DOUBLE_EQ(scene.frame_rate_hz(), 10.0);
  EXPECT_NEAR(scene.DurationSeconds(), 0.4, 1e-12);
  EXPECT_EQ(scene.TotalObservations(), 10u);
  EXPECT_EQ(scene.CountBySource(ObservationSource::kHuman), 5u);
  EXPECT_EQ(scene.CountBySource(ObservationSource::kModel), 5u);
  EXPECT_EQ(scene.CountBySource(ObservationSource::kAuditor), 0u);
}

TEST(SceneTest, FilterToSourceKeepsOneSourceAndEveryFrame) {
  const Scene scene = MakeValidScene(3);
  const Scene model = FilterToSource(scene, ObservationSource::kModel);
  EXPECT_EQ(model.name(), scene.name());
  EXPECT_DOUBLE_EQ(model.frame_rate_hz(), scene.frame_rate_hz());
  ASSERT_EQ(model.frame_count(), scene.frame_count());
  for (size_t f = 0; f < scene.frame_count(); ++f) {
    const Frame& kept = model.frames()[f];
    EXPECT_EQ(kept.index, scene.frames()[f].index);
    EXPECT_EQ(kept.timestamp, scene.frames()[f].timestamp);
    EXPECT_EQ(kept.ego_position, scene.frames()[f].ego_position);
    ASSERT_EQ(kept.observations.size(), 1u);
    EXPECT_EQ(kept.observations[0].id, scene.frames()[f].observations[1].id);
  }
  const Scene none = FilterToSource(scene, ObservationSource::kAuditor);
  EXPECT_EQ(none.frame_count(), 3u);
  EXPECT_EQ(none.TotalObservations(), 0u);
}

TEST(SceneTest, EmptySceneDuration) {
  const Scene scene("empty", 10.0);
  EXPECT_DOUBLE_EQ(scene.DurationSeconds(), 0.0);
  EXPECT_EQ(scene.TotalObservations(), 0u);
}

TEST(SceneTest, ValidSceneValidates) {
  EXPECT_TRUE(MakeValidScene().Validate().ok());
}

TEST(SceneValidateTest, RejectsBadFrameIndex) {
  Scene scene = MakeValidScene();
  scene.frames()[1].index = 5;
  EXPECT_EQ(scene.Validate().code(), StatusCode::kFailedPrecondition);
}

TEST(SceneValidateTest, RejectsDecreasingTimestamps) {
  Scene scene = MakeValidScene();
  scene.frames()[2].timestamp = 0.0;
  scene.frames()[1].timestamp = 0.5;
  EXPECT_FALSE(scene.Validate().ok());
}

TEST(SceneValidateTest, RejectsDuplicateObservationIds) {
  Scene scene = MakeValidScene();
  scene.frames()[1].observations[0].id =
      scene.frames()[0].observations[0].id;
  EXPECT_FALSE(scene.Validate().ok());
}

TEST(SceneValidateTest, RejectsInvalidObservationId) {
  Scene scene = MakeValidScene();
  scene.frames()[0].observations[0].id = kInvalidObservationId;
  EXPECT_FALSE(scene.Validate().ok());
}

TEST(SceneValidateTest, RejectsDegenerateBox) {
  Scene scene = MakeValidScene();
  scene.frames()[0].observations[0].box.width = 0.0;
  EXPECT_FALSE(scene.Validate().ok());
}

TEST(SceneValidateTest, RejectsOutOfRangeConfidence) {
  Scene scene = MakeValidScene();
  scene.frames()[0].observations[0].confidence = 1.5;
  EXPECT_FALSE(scene.Validate().ok());
}

TEST(SceneValidateTest, RejectsNanConfidence) {
  Scene scene = MakeValidScene();
  scene.frames()[0].observations[0].confidence =
      std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(scene.Validate().ok());
}

TEST(SceneValidateTest, RejectsNonFiniteBoxFields) {
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  const double kInf = std::numeric_limits<double>::infinity();
  {
    Scene scene = MakeValidScene();
    scene.frames()[0].observations[0].box.center.x = kNan;
    EXPECT_FALSE(scene.Validate().ok());
  }
  {
    Scene scene = MakeValidScene();
    scene.frames()[0].observations[0].box.length = kInf;
    EXPECT_FALSE(scene.Validate().ok());
  }
  {
    Scene scene = MakeValidScene();
    scene.frames()[0].observations[0].box.yaw = -kInf;
    EXPECT_FALSE(scene.Validate().ok());
  }
}

TEST(SceneValidateTest, RejectsNegativeBoxExtent) {
  Scene scene = MakeValidScene();
  scene.frames()[0].observations[0].box.height = -1.0;
  EXPECT_FALSE(scene.Validate().ok());
}

TEST(SceneValidateTest, RejectsNanFrameTimestamp) {
  Scene scene = MakeValidScene();
  scene.frames()[1].timestamp = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(scene.Validate().ok());
}

TEST(SceneValidateTest, RejectsNonFiniteEgoPose) {
  {
    Scene scene = MakeValidScene();
    scene.frames()[0].ego_position.x =
        std::numeric_limits<double>::infinity();
    EXPECT_FALSE(scene.Validate().ok());
  }
  {
    Scene scene = MakeValidScene();
    scene.frames()[0].ego_yaw = std::numeric_limits<double>::quiet_NaN();
    EXPECT_FALSE(scene.Validate().ok());
  }
}

TEST(SceneValidateTest, RejectsNonFiniteFrameRate) {
  {
    Scene scene = MakeValidScene();
    scene.set_frame_rate_hz(std::numeric_limits<double>::quiet_NaN());
    EXPECT_FALSE(scene.Validate().ok());
  }
  {
    Scene scene = MakeValidScene();
    scene.set_frame_rate_hz(0.0);
    EXPECT_FALSE(scene.Validate().ok());
  }
}

// Validation reports the first violation in scan order: frame by frame,
// observation by observation, and within one observation its id
// (invalid, then duplicate), then its box and confidence.
TEST(SceneValidateTest, ReportsTheFirstFailureInScanOrder) {
  // MakeValidScene's ids run 1..6, two per frame.
  {
    Scene scene = MakeValidScene();
    scene.frames()[1].observations[0].id = 1;
    scene.frames()[2].observations[0].box.width = 0.0;
    EXPECT_EQ(scene.Validate().message(),
              "scene 'test': duplicate observation id 1");
  }
  {
    Scene scene = MakeValidScene();
    scene.frames()[1].observations[0].box.width = 0.0;
    scene.frames()[2].observations[0].id = 1;
    EXPECT_EQ(scene.Validate().message(),
              "scene 'test': observation 3 has degenerate box (non-positive "
              "extent)");
  }
  {
    // A duplicate id whose own box is degenerate reports the id.
    Scene scene = MakeValidScene();
    scene.frames()[1].observations[1].id = 2;
    scene.frames()[1].observations[1].box.length = -1.0;
    EXPECT_EQ(scene.Validate().message(),
              "scene 'test': duplicate observation id 2");
  }
}

// 50,000 ids that are multiples of 2^32 share their low 32 bits, so they
// all collide under an identity or low-bit hash. One repeat among them is
// still found and named; without it, the scene validates.
TEST(SceneValidateTest, DuplicateAmongManyCollidingIds) {
  constexpr int kFrames = 50;
  constexpr int kPerFrame = 1000;
  Scene scene("colliding", 10.0);
  for (int f = 0; f < kFrames; ++f) {
    Frame frame;
    frame.index = f;
    frame.timestamp = f * 0.1;
    for (int k = 0; k < kPerFrame; ++k) {
      const ObservationId id = static_cast<ObservationId>(f * kPerFrame + k + 1)
                               << 32;
      frame.observations.push_back(MakeObs(id, ObservationSource::kModel,
                                           ObjectClass::kCar, 5.0 * k, 0));
    }
    scene.AddFrame(std::move(frame));
  }
  EXPECT_TRUE(scene.Validate().ok()) << scene.Validate();

  const ObservationId repeated = scene.frames()[3].observations[17].id;
  scene.frames()[41].observations[900].id = repeated;
  const Status status = scene.Validate();
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(status.message(),
            "scene 'colliding': duplicate observation id " +
                std::to_string(repeated));
}

TEST(DatasetTest, TotalObservationsSumsScenes) {
  Dataset dataset;
  dataset.scenes.push_back(MakeValidScene(2));
  dataset.scenes.push_back(MakeValidScene(3));
  EXPECT_EQ(dataset.TotalObservations(), 10u);
}

// --------------------------------------------------------------- Bundle

ObservationBundle MakeBundle(int frame, std::vector<Observation> obs) {
  ObservationBundle bundle;
  bundle.frame_index = frame;
  bundle.timestamp = frame * 0.1;
  bundle.ego_position = {0, 0};
  bundle.observations = std::move(obs);
  return bundle;
}

TEST(BundleTest, SourceQueries) {
  const auto bundle = MakeBundle(
      0, {MakeObs(1, ObservationSource::kHuman, ObjectClass::kCar, 1, 0),
          MakeObs(2, ObservationSource::kModel, ObjectClass::kCar, 1, 0,
                  0.8)});
  EXPECT_TRUE(bundle.HasSource(ObservationSource::kHuman));
  EXPECT_TRUE(bundle.HasSource(ObservationSource::kModel));
  EXPECT_FALSE(bundle.HasSource(ObservationSource::kAuditor));
  ASSERT_NE(bundle.FindBySource(ObservationSource::kModel), nullptr);
  EXPECT_EQ(bundle.FindBySource(ObservationSource::kModel)->id, 2u);
  EXPECT_EQ(bundle.FindBySource(ObservationSource::kAuditor), nullptr);
}

TEST(BundleTest, MeanCenterAveragesBoxes) {
  const auto bundle = MakeBundle(
      0, {MakeObs(1, ObservationSource::kHuman, ObjectClass::kCar, 0, 0),
          MakeObs(2, ObservationSource::kModel, ObjectClass::kCar, 2, 4)});
  const geom::Vec3 center = bundle.MeanCenter();
  EXPECT_DOUBLE_EQ(center.x, 1.0);
  EXPECT_DOUBLE_EQ(center.y, 2.0);
}

TEST(BundleTest, EmptyBundle) {
  const ObservationBundle bundle;
  EXPECT_TRUE(bundle.empty());
  EXPECT_FALSE(bundle.MajorityClass().has_value());
}

TEST(BundleTest, MajorityClassTiesToLowerClass) {
  auto bundle = MakeBundle(
      0, {MakeObs(1, ObservationSource::kModel, ObjectClass::kTruck, 0, 0),
          MakeObs(2, ObservationSource::kHuman, ObjectClass::kCar, 0, 0)});
  EXPECT_EQ(bundle.MajorityClass(), ObjectClass::kCar);
  bundle.observations.push_back(
      MakeObs(3, ObservationSource::kAuditor, ObjectClass::kTruck, 0, 0));
  EXPECT_EQ(bundle.MajorityClass(), ObjectClass::kTruck);
}

// ---------------------------------------------------------------- Track

Track MakeTrack(TrackId id, int num_bundles,
                ObservationSource source = ObservationSource::kModel,
                double confidence = 0.8) {
  Track track(id);
  ObservationId obs_id = id * 1000 + 1;
  for (int b = 0; b < num_bundles; ++b) {
    track.AddBundle(MakeBundle(
        b, {MakeObs(obs_id++, source, ObjectClass::kCar, 10.0 + b, 2,
                    confidence)}));
  }
  return track;
}

TEST(TrackTest, BasicAccessors) {
  const Track track = MakeTrack(7, 4);
  EXPECT_EQ(track.id(), 7u);
  EXPECT_EQ(track.size(), 4u);
  EXPECT_EQ(track.TotalObservations(), 4u);
  EXPECT_EQ(track.FirstFrame(), 0);
  EXPECT_EQ(track.LastFrame(), 3);
  EXPECT_NEAR(track.DurationSeconds(), 0.3, 1e-12);
}

TEST(TrackTest, EmptyTrack) {
  const Track track;
  EXPECT_TRUE(track.empty());
  EXPECT_FALSE(track.MajorityClass().has_value());
  EXPECT_FALSE(track.MeanModelConfidence().has_value());
  EXPECT_DOUBLE_EQ(track.DurationSeconds(), 0.0);
}

TEST(TrackTest, HasSource) {
  const Track model_track = MakeTrack(1, 3, ObservationSource::kModel);
  EXPECT_TRUE(model_track.HasSource(ObservationSource::kModel));
  EXPECT_FALSE(model_track.HasSource(ObservationSource::kHuman));
}

TEST(TrackTest, MajorityClassPicksMostCommon) {
  Track track(1);
  track.AddBundle(MakeBundle(0, {MakeObs(1, ObservationSource::kHuman,
                                         ObjectClass::kTruck, 0, 0)}));
  track.AddBundle(MakeBundle(1, {MakeObs(2, ObservationSource::kHuman,
                                         ObjectClass::kCar, 0, 0)}));
  track.AddBundle(MakeBundle(2, {MakeObs(3, ObservationSource::kHuman,
                                         ObjectClass::kTruck, 0, 0)}));
  EXPECT_EQ(track.MajorityClass(), ObjectClass::kTruck);
}

TEST(TrackTest, MeanModelConfidence) {
  Track track(1);
  track.AddBundle(MakeBundle(
      0, {MakeObs(1, ObservationSource::kModel, ObjectClass::kCar, 0, 0,
                  0.6),
          MakeObs(2, ObservationSource::kHuman, ObjectClass::kCar, 0, 0)}));
  track.AddBundle(MakeBundle(1, {MakeObs(3, ObservationSource::kModel,
                                         ObjectClass::kCar, 0, 0, 0.8)}));
  ASSERT_TRUE(track.MeanModelConfidence().has_value());
  EXPECT_NEAR(*track.MeanModelConfidence(), 0.7, 1e-12);
}

TEST(TrackTest, ToStringMentionsClassAndSpan) {
  const Track track = MakeTrack(3, 2);
  const std::string s = track.ToString();
  EXPECT_NE(s.find("car"), std::string::npos);
  EXPECT_NE(s.find("[0..1]"), std::string::npos);
}

}  // namespace
}  // namespace fixy
