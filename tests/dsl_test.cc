// Tests for src/dsl: bundler, track builder (association within and across
// frames), AOFs, and feature distributions.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "dsl/aof.h"
#include "dsl/bundler.h"
#include "dsl/feature.h"
#include "dsl/feature_distribution.h"
#include "dsl/track_builder.h"
#include "scenario/materialize.h"
#include "scenario/presets.h"
#include "stats/gaussian.h"
#include "stats/lambda_distribution.h"

namespace fixy {
namespace {

Observation MakeObs(ObservationId id, ObservationSource source, double x,
                    double y, ObjectClass cls = ObjectClass::kCar,
                    double confidence = 1.0) {
  Observation obs;
  obs.id = id;
  obs.source = source;
  obs.object_class = cls;
  obs.box = geom::Box3d({x, y, 0.85}, 4.5, 1.9, 1.7, 0.0);
  obs.confidence = confidence;
  return obs;
}

// -------------------------------------------------------------- Bundler

TEST(IouBundlerTest, AssociatesOverlappingBoxes) {
  const IouBundler bundler(0.5);
  const Observation a = MakeObs(1, ObservationSource::kHuman, 10, 0);
  const Observation b = MakeObs(2, ObservationSource::kModel, 10.1, 0.05);
  EXPECT_TRUE(bundler.IsAssociated(a, b));
}

TEST(IouBundlerTest, RejectsDistantBoxes) {
  const IouBundler bundler(0.5);
  const Observation a = MakeObs(1, ObservationSource::kHuman, 10, 0);
  const Observation b = MakeObs(2, ObservationSource::kModel, 20, 0);
  EXPECT_FALSE(bundler.IsAssociated(a, b));
}

TEST(IouBundlerTest, ThresholdIsRespected) {
  // Two car boxes offset by half a length: IoU = (2.25*1.9)/(2*4.5*1.9 -
  // 2.25*1.9) = 1/3.
  const Observation a = MakeObs(1, ObservationSource::kHuman, 10, 0);
  const Observation b = MakeObs(2, ObservationSource::kModel, 12.25, 0);
  EXPECT_TRUE(IouBundler(0.3).IsAssociated(a, b));
  EXPECT_FALSE(IouBundler(0.35).IsAssociated(a, b));
}

// --------------------------------------------------------- TrackBuilder

Scene SceneWithTwoSourceTrack(int frames, double step = 0.8) {
  // One object labeled by human and model moving along +x.
  Scene scene("two_source", 10.0);
  ObservationId id = 1;
  for (int f = 0; f < frames; ++f) {
    Frame frame;
    frame.index = f;
    frame.timestamp = f * 0.1;
    frame.ego_position = {0, 0};
    frame.observations.push_back(
        MakeObs(id++, ObservationSource::kHuman, 10 + step * f, 0));
    frame.observations.push_back(MakeObs(id++, ObservationSource::kModel,
                                         10.08 + step * f, 0.04,
                                         ObjectClass::kCar, 0.9));
    scene.AddFrame(std::move(frame));
  }
  return scene;
}

TEST(TrackBuilderTest, MergesSourcesIntoOneTrack) {
  const TrackBuilder builder;
  const auto tracks = builder.Build(SceneWithTwoSourceTrack(5));
  ASSERT_TRUE(tracks.ok()) << tracks.status();
  ASSERT_EQ(tracks->tracks.size(), 1u);
  const Track& track = tracks->tracks[0];
  EXPECT_EQ(track.size(), 5u);
  EXPECT_EQ(track.TotalObservations(), 10u);
  for (const ObservationBundle& bundle : track.bundles()) {
    EXPECT_EQ(bundle.observations.size(), 2u);
    EXPECT_TRUE(bundle.HasSource(ObservationSource::kHuman));
    EXPECT_TRUE(bundle.HasSource(ObservationSource::kModel));
  }
}

TEST(TrackBuilderTest, SeparateObjectsGetSeparateTracks) {
  Scene scene("two_objects", 10.0);
  ObservationId id = 1;
  for (int f = 0; f < 4; ++f) {
    Frame frame;
    frame.index = f;
    frame.timestamp = f * 0.1;
    frame.observations.push_back(
        MakeObs(id++, ObservationSource::kModel, 10 + 0.5 * f, 0));
    frame.observations.push_back(
        MakeObs(id++, ObservationSource::kModel, 40 - 0.5 * f, 8));
    scene.AddFrame(std::move(frame));
  }
  const auto tracks = TrackBuilder().Build(scene);
  ASSERT_TRUE(tracks.ok());
  EXPECT_EQ(tracks->tracks.size(), 2u);
  for (const Track& track : tracks->tracks) {
    EXPECT_EQ(track.size(), 4u);
  }
}

TEST(TrackBuilderTest, GapWithinAllowanceStaysOneTrack) {
  Scene scene("gap", 10.0);
  ObservationId id = 1;
  for (int f = 0; f < 6; ++f) {
    Frame frame;
    frame.index = f;
    frame.timestamp = f * 0.1;
    if (f != 2) {  // one-frame gap
      frame.observations.push_back(
          MakeObs(id++, ObservationSource::kModel, 10 + 0.3 * f, 0));
    }
    scene.AddFrame(std::move(frame));
  }
  const auto tracks = TrackBuilder().Build(scene);
  ASSERT_TRUE(tracks.ok());
  EXPECT_EQ(tracks->tracks.size(), 1u);
  EXPECT_EQ(tracks->tracks[0].size(), 5u);
}

TEST(TrackBuilderTest, GapBeyondAllowanceSplitsTrack) {
  Scene scene("long_gap", 10.0);
  ObservationId id = 1;
  for (int f = 0; f < 10; ++f) {
    Frame frame;
    frame.index = f;
    frame.timestamp = f * 0.1;
    if (f < 3 || f > 7) {  // four-frame gap
      frame.observations.push_back(
          MakeObs(id++, ObservationSource::kModel, 10.0, 0));
    }
    scene.AddFrame(std::move(frame));
  }
  const auto tracks = TrackBuilder().Build(scene);
  ASSERT_TRUE(tracks.ok());
  EXPECT_EQ(tracks->tracks.size(), 2u);
}

TEST(TrackBuilderTest, FastObjectLinksAcrossFramesAtLooseThreshold) {
  // 0.8 m/frame steps leave BEV IoU ~0.65 between frames for a car box.
  const auto tracks = TrackBuilder().Build(SceneWithTwoSourceTrack(8, 0.8));
  ASSERT_TRUE(tracks.ok());
  EXPECT_EQ(tracks->tracks.size(), 1u);
}

TEST(TrackBuilderTest, RejectsInvalidScene) {
  Scene scene = SceneWithTwoSourceTrack(3);
  scene.frames()[0].observations[0].id =
      scene.frames()[1].observations[0].id;
  EXPECT_FALSE(TrackBuilder().Build(scene).ok());
}

TEST(TrackBuilderTest, EmptySceneYieldsNoTracks) {
  const Scene scene("empty", 10.0);
  const auto tracks = TrackBuilder().Build(scene);
  ASSERT_TRUE(tracks.ok());
  EXPECT_TRUE(tracks->tracks.empty());
}

TEST(TrackBuilderTest, DeterministicOutput) {
  const Scene scene = SceneWithTwoSourceTrack(6);
  const auto a = TrackBuilder().Build(scene);
  const auto b = TrackBuilder().Build(scene);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->tracks.size(), b->tracks.size());
  for (size_t t = 0; t < a->tracks.size(); ++t) {
    EXPECT_EQ(a->tracks[t].id(), b->tracks[t].id());
    EXPECT_EQ(a->tracks[t].size(), b->tracks[t].size());
  }
}

TEST(TrackBuilderTest, BundlesCarryEgoPose) {
  Scene scene = SceneWithTwoSourceTrack(3);
  for (auto& frame : scene.frames()) {
    frame.ego_position = {frame.index * 2.0, 1.0};
  }
  const auto tracks = TrackBuilder().Build(scene);
  ASSERT_TRUE(tracks.ok());
  const Track& track = tracks->tracks[0];
  EXPECT_DOUBLE_EQ(track.bundles()[1].ego_position.x, 2.0);
  EXPECT_DOUBLE_EQ(track.bundles()[2].ego_position.y, 1.0);
}

// CRC-32 over each track's id and its member observation ids in bundle
// order: two track sets share a digest only if association grouped and
// ordered every observation the same way.
uint32_t AssociationDigest(const TrackSet& set) {
  std::string text;
  for (const Track& track : set.tracks) {
    text += std::to_string(track.id()) + ':';
    for (const ObservationBundle& bundle : track.bundles()) {
      for (const Observation& obs : bundle.observations) {
        text += std::to_string(obs.id) + ',';
      }
    }
    text += ';';
  }
  return Crc32(text);
}

// A user bundler with IouBundler(0.5)'s relation. It is not an
// IouBundler, so BuildViews asks it IsAssociated per pair instead of
// testing the frame's precomputed footprints.
class ForwardingIouBundler final : public Bundler {
 public:
  bool IsAssociated(const Observation& a,
                    const Observation& b) const override {
    return iou_.IsAssociated(a, b);
  }

 private:
  IouBundler iou_{0.5};
};

// Association golden for one fixed-seed dense-urban scene. The expected
// values are constants recorded with the quad clip deciding every pair,
// so any shortcut in geom::BevIou that flips one association decision
// (in sim placement, bundling or linking) changes them. Both in-frame
// paths are held to them: the default bundler's footprint sweep and a
// user bundler's per-pair IsAssociated.
TEST(TrackBuilderTest, DenseSceneAssociationGolden) {
  const Result<scenario::ScenarioSpec> spec =
      scenario::PresetByName("dense-urban-intersection");
  ASSERT_TRUE(spec.ok()) << spec.status();
  const Result<sim::GeneratedDataset> generated =
      scenario::GenerateScenarioDataset(*spec, 1, 2022);
  ASSERT_TRUE(generated.ok()) << generated.status();
  ASSERT_EQ(generated->dataset.scenes.size(), 1u);
  for (const BundlerPtr& bundler :
       {BundlerPtr(), BundlerPtr(std::make_shared<ForwardingIouBundler>())}) {
    SCOPED_TRACE(bundler == nullptr ? "default bundler" : "user bundler");
    const auto views = TrackBuilder({bundler}).BuildViews(
        generated->dataset.scenes[0], true, true);
    ASSERT_TRUE(views.ok()) << views.status();

    const TrackSet& full = views->view(SceneView::kFull);
    const TrackSet& model_only = views->view(SceneView::kModelOnly);
    EXPECT_EQ(full.tracks.size(), 205u);
    EXPECT_EQ(AssociationDigest(full), 3957315928u);
    EXPECT_EQ(model_only.tracks.size(), 143u);
    EXPECT_EQ(AssociationDigest(model_only), 1116404835u);
  }
}

// A bundle is matched across frames on its model prediction's box even
// when a human label comes first in it. Frame 0 bundles a human label at
// x = 10 with a model box at x = 11 (IoU 0.64). Frame 1 has two separate
// model boxes: at x = 9 (IoU 0.64 with the human box, 0.38 with the
// model box) and at x = 12 (0.38 and 0.64). Linking on the model box
// continues the track with x = 12; linking on the human box would take
// x = 9.
TEST(TrackBuilderTest, LinksOnTheModelPredictionsBox) {
  Scene scene("representative", 10.0);
  Frame first;
  first.index = 0;
  first.observations.push_back(MakeObs(1, ObservationSource::kHuman, 10, 0));
  first.observations.push_back(MakeObs(2, ObservationSource::kModel, 11, 0));
  scene.AddFrame(std::move(first));
  Frame second;
  second.index = 1;
  second.timestamp = 0.1;
  second.observations.push_back(MakeObs(3, ObservationSource::kModel, 9, 0));
  second.observations.push_back(
      MakeObs(4, ObservationSource::kModel, 12, 0));
  scene.AddFrame(std::move(second));

  const auto tracks = TrackBuilder().Build(scene);
  ASSERT_TRUE(tracks.ok()) << tracks.status();
  ASSERT_EQ(tracks->tracks.size(), 2u);
  const Track& linked = tracks->tracks[0];
  ASSERT_EQ(linked.size(), 2u);
  ASSERT_EQ(linked.bundles()[0].observations.size(), 2u);
  EXPECT_EQ(linked.bundles()[0].observations[0].id, 1u);
  ASSERT_EQ(linked.bundles()[1].observations.size(), 1u);
  EXPECT_EQ(linked.bundles()[1].observations[0].id, 4u);
  ASSERT_EQ(tracks->tracks[1].size(), 1u);
  EXPECT_EQ(tracks->tracks[1].bundles()[0].observations[0].id, 3u);
}

// ------------------------------------------------------------------ AOF

TEST(AofTest, IdentityAndInvert) {
  EXPECT_DOUBLE_EQ(IdentityAof().Apply(0.3), 0.3);
  EXPECT_DOUBLE_EQ(InvertAof().Apply(0.3), 0.7);
  EXPECT_DOUBLE_EQ(InvertAof().Apply(1.0), 0.0);
}

TEST(AofTest, LambdaAof) {
  const LambdaAof aof("square", [](double p) { return p * p; });
  EXPECT_DOUBLE_EQ(aof.Apply(0.5), 0.25);
  EXPECT_EQ(aof.name(), "square");
}

TEST(AofTest, Factories) {
  EXPECT_EQ(MakeIdentityAof()->name(), "identity");
  EXPECT_EQ(MakeInvertAof()->name(), "invert");
}

// -------------------------------------------------- FeatureDistribution

// A feature returning box volume (class-conditional variant togglable).
class TestVolumeFeature final : public ObservationFeature {
 public:
  explicit TestVolumeFeature(bool per_class) : per_class_(per_class) {}
  std::string name() const override { return "test_volume"; }
  bool class_conditional() const override { return per_class_; }
  std::optional<double> Compute(const Observation& obs,
                                const FeatureContext&) const override {
    return obs.box.Volume();
  }

 private:
  bool per_class_;
};

// The factor score `fd` gives one observation: Compute, RawScore under the
// observation's class, then the AOF and floor.
std::optional<double> ScoreObservation(const FeatureDistribution& fd,
                                       const Observation& obs,
                                       const FeatureContext& ctx) {
  const auto& feature = static_cast<const ObservationFeature&>(fd.feature());
  const std::optional<double> raw =
      fd.RawScore(feature.Compute(obs, ctx), obs.object_class);
  if (!raw.has_value()) return std::nullopt;
  return fd.ApplyAofAndFloor(*raw);
}

stats::DistributionPtr GaussianAt(double mean, double sd) {
  return std::make_shared<stats::Gaussian>(
      stats::Gaussian::Create(mean, sd).value());
}

TEST(FeatureDistributionTest, GlobalDistributionScoresObservation) {
  const double car_volume = 4.5 * 1.9 * 1.7;
  FeatureDistribution fd(std::make_shared<TestVolumeFeature>(false),
                         GaussianAt(car_volume, 1.0));
  const Observation obs = MakeObs(1, ObservationSource::kModel, 0, 0);
  const FeatureContext ctx{{0, 0}, 10.0};
  const auto score = ScoreObservation(fd, obs, ctx);
  ASSERT_TRUE(score.has_value());
  EXPECT_NEAR(*score, 1.0, 1e-9);  // at the mode
}

TEST(FeatureDistributionTest, ClassConditionalUsesMatchingClass) {
  std::map<ObjectClass, stats::DistributionPtr> per_class;
  const double car_volume = 4.5 * 1.9 * 1.7;
  per_class[ObjectClass::kCar] = GaussianAt(car_volume, 1.0);
  per_class[ObjectClass::kTruck] = GaussianAt(70.0, 5.0);
  FeatureDistribution fd(std::make_shared<TestVolumeFeature>(true),
                         std::move(per_class));
  const FeatureContext ctx{{0, 0}, 10.0};
  const Observation car = MakeObs(1, ObservationSource::kModel, 0, 0);
  const auto car_score = ScoreObservation(fd, car, ctx);
  ASSERT_TRUE(car_score.has_value());
  EXPECT_NEAR(*car_score, 1.0, 1e-9);
  // The same box claimed as a truck is wildly unlikely.
  Observation fake_truck = car;
  fake_truck.object_class = ObjectClass::kTruck;
  const auto truck_score = ScoreObservation(fd, fake_truck, ctx);
  ASSERT_TRUE(truck_score.has_value());
  EXPECT_LT(*truck_score, 0.01);
}

TEST(FeatureDistributionTest, UnseenClassYieldsNoFactor) {
  std::map<ObjectClass, stats::DistributionPtr> per_class;
  per_class[ObjectClass::kCar] = GaussianAt(14.0, 1.0);
  FeatureDistribution fd(std::make_shared<TestVolumeFeature>(true),
                         std::move(per_class));
  const Observation ped = MakeObs(1, ObservationSource::kModel, 0, 0,
                                  ObjectClass::kPedestrian);
  const FeatureContext ctx{{0, 0}, 10.0};
  EXPECT_FALSE(ScoreObservation(fd, ped, ctx).has_value());
}

TEST(FeatureDistributionTest, AofTransformsScore) {
  const double car_volume = 4.5 * 1.9 * 1.7;
  FeatureDistribution fd(std::make_shared<TestVolumeFeature>(false),
                         GaussianAt(car_volume, 1.0), MakeInvertAof());
  const Observation obs = MakeObs(1, ObservationSource::kModel, 0, 0);
  const FeatureContext ctx{{0, 0}, 10.0};
  const auto score = ScoreObservation(fd, obs, ctx);
  ASSERT_TRUE(score.has_value());
  // Mode likelihood 1.0 inverted becomes the floor, not exactly 0.
  EXPECT_NEAR(*score, stats::kScoreFloor, 1e-12);
}

TEST(FeatureDistributionTest, WithAofReplacesTransform) {
  const double car_volume = 4.5 * 1.9 * 1.7;
  const FeatureDistribution base(std::make_shared<TestVolumeFeature>(false),
                                 GaussianAt(car_volume, 1.0));
  const FeatureDistribution inverted = base.WithAof(MakeInvertAof());
  const Observation obs = MakeObs(1, ObservationSource::kModel, 0, 0);
  const FeatureContext ctx{{0, 0}, 10.0};
  EXPECT_NEAR(*ScoreObservation(base, obs, ctx), 1.0, 1e-9);
  EXPECT_NEAR(*ScoreObservation(inverted, obs, ctx), stats::kScoreFloor,
              1e-12);
}

TEST(FeatureDistributionTest, ScoreClampedToUnitInterval) {
  // A hostile AOF returning values outside [0, 1] is clamped.
  FeatureDistribution fd(
      std::make_shared<TestVolumeFeature>(false), GaussianAt(14.0, 1.0),
      std::make_shared<LambdaAof>("wild", [](double) { return 42.0; }));
  const Observation obs = MakeObs(1, ObservationSource::kModel, 0, 0);
  const FeatureContext ctx{{0, 0}, 10.0};
  EXPECT_DOUBLE_EQ(*ScoreObservation(fd, obs, ctx), 1.0);
}

TEST(FeatureDistributionTest, RawLikelihoodExposed) {
  FeatureDistribution fd(std::make_shared<TestVolumeFeature>(false),
                         GaussianAt(10.0, 2.0));
  const auto at_mode = fd.RawLikelihood(10.0, std::nullopt);
  ASSERT_TRUE(at_mode.has_value());
  EXPECT_NEAR(*at_mode, 1.0, 1e-12);
  const auto off_mode = fd.RawLikelihood(12.0, std::nullopt);
  ASSERT_TRUE(off_mode.has_value());
  EXPECT_NEAR(*off_mode, std::exp(-0.5), 1e-12);
}

}  // namespace
}  // namespace fixy
