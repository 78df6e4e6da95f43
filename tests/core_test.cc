// Tests for src/core: standard features (Table 2), the distribution
// learner, ranking utilities, the three applications (Section 7), and the
// Fixy engine facade.
#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"
#include "core/applications.h"
#include "core/engine.h"
#include "core/features_std.h"
#include "core/learner.h"
#include "core/ranker.h"
#include "obs/metrics.h"
#include "sim/generate.h"
#include "stats/kde.h"

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

ObservationBundle MakeBundle(int frame, std::vector<Observation> obs,
                             geom::Vec2 ego = {0, 0}) {
  ObservationBundle bundle;
  bundle.frame_index = frame;
  bundle.timestamp = frame * 0.1;
  bundle.ego_position = ego;
  bundle.observations = std::move(obs);
  return bundle;
}

// ------------------------------------------------------ standard features

TEST(FeaturesStdTest, VolumeFeature) {
  const VolumeFeature volume;
  EXPECT_TRUE(volume.class_conditional());
  const Observation obs = MakeObs(1, ObservationSource::kHuman, 0, 0);
  const FeatureContext ctx{{0, 0}, 10.0};
  ASSERT_TRUE(volume.Compute(obs, ctx).has_value());
  EXPECT_NEAR(*volume.Compute(obs, ctx), 4.5 * 1.9 * 1.7, 1e-12);
}

TEST(FeaturesStdTest, VolumeFeatureRejectsDegenerateBox) {
  const VolumeFeature volume;
  Observation obs = MakeObs(1, ObservationSource::kHuman, 0, 0);
  obs.box.height = 0.0;
  EXPECT_FALSE(volume.Compute(obs, {{0, 0}, 10.0}).has_value());
}

TEST(FeaturesStdTest, DistanceFeature) {
  const DistanceFeature distance;
  const Observation obs = MakeObs(1, ObservationSource::kHuman, 3, 4);
  EXPECT_NEAR(*distance.Compute(obs, {{0, 0}, 10.0}), 5.0, 1e-12);
  EXPECT_NEAR(*distance.Compute(obs, {{3, 4}, 10.0}), 0.0, 1e-12);
}

TEST(FeaturesStdTest, ModelOnlyFeature) {
  const ModelOnlyFeature model_only;
  const FeatureContext ctx{{0, 0}, 10.0};
  const auto pure_model = MakeBundle(
      0, {MakeObs(1, ObservationSource::kModel, 0, 0),
          MakeObs(2, ObservationSource::kModel, 0, 0)});
  EXPECT_DOUBLE_EQ(*model_only.Compute(pure_model, ctx), 1.0);
  const auto mixed = MakeBundle(
      0, {MakeObs(1, ObservationSource::kModel, 0, 0),
          MakeObs(2, ObservationSource::kHuman, 0, 0)});
  EXPECT_DOUBLE_EQ(*model_only.Compute(mixed, ctx), 0.0);
  EXPECT_FALSE(model_only.Compute(ObservationBundle{}, ctx).has_value());
}

TEST(FeaturesStdTest, VelocityFeature) {
  const VelocityFeature velocity;
  EXPECT_TRUE(velocity.class_conditional());
  const auto from = MakeBundle(
      0, {MakeObs(1, ObservationSource::kHuman, 10, 0)});
  const auto to = MakeBundle(
      1, {MakeObs(2, ObservationSource::kHuman, 10.8, 0.6)});
  // Displacement 1.0 m over 0.1 s -> 10 m/s.
  EXPECT_NEAR(*velocity.Compute(from, to, {{0, 0}, 10.0}), 10.0, 1e-9);
}

TEST(FeaturesStdTest, VelocityFeatureRejectsNonPositiveDt) {
  const VelocityFeature velocity;
  const auto a = MakeBundle(0, {MakeObs(1, ObservationSource::kHuman, 0, 0)});
  EXPECT_FALSE(velocity.Compute(a, a, {{0, 0}, 10.0}).has_value());
}

TEST(FeaturesStdTest, CountFeature) {
  const CountFeature count;
  Track track(1);
  track.AddBundle(MakeBundle(0, {MakeObs(1, ObservationSource::kHuman, 0, 0),
                                 MakeObs(2, ObservationSource::kModel, 0, 0)}));
  track.AddBundle(MakeBundle(1, {MakeObs(3, ObservationSource::kHuman, 0, 0)}));
  EXPECT_DOUBLE_EQ(*count.Compute(track, {{0, 0}, 10.0}), 3.0);
}

TEST(FeaturesStdTest, DistanceSeverityDecaysWithDistance) {
  const auto severity = MakeDistanceSeverityDistribution();
  EXPECT_DOUBLE_EQ(severity->Density(0.0), 1.0);
  EXPECT_NEAR(severity->Density(kDistanceSeverityScaleMeters), std::exp(-1.0),
              1e-12);
  EXPECT_GT(severity->Density(10.0), severity->Density(50.0));
}

TEST(FeaturesStdTest, ModelOnlyDistributionIsBinary) {
  const auto dist = MakeModelOnlyDistribution();
  EXPECT_DOUBLE_EQ(dist->Density(1.0), 1.0);
  EXPECT_DOUBLE_EQ(dist->Density(0.0), 0.0);
}

TEST(FeaturesStdTest, CountFilterThreshold) {
  const auto filter = MakeCountFilterDistribution();
  ASSERT_EQ(kMinTrackObservations, 2u);
  EXPECT_DOUBLE_EQ(filter->Density(1.0), 0.0);
  EXPECT_DOUBLE_EQ(filter->Density(2.0), 0.0);
  EXPECT_DOUBLE_EQ(filter->Density(3.0), 1.0);
}

// --------------------------------------------------------------- Ranker

ErrorProposal Proposal(double score, ObjectClass cls = ObjectClass::kCar,
                       TrackId track = 0) {
  ErrorProposal p;
  p.scene_name = "s";
  p.track_id = track;
  p.object_class = cls;
  p.score = score;
  return p;
}

TEST(RankerTest, SortsDescendingByScore) {
  std::vector<ErrorProposal> proposals = {Proposal(0.1), Proposal(0.9),
                                          Proposal(0.5)};
  RankProposals(&proposals);
  EXPECT_DOUBLE_EQ(proposals[0].score, 0.9);
  EXPECT_DOUBLE_EQ(proposals[2].score, 0.1);
}

TEST(RankerTest, TieBreakIsDeterministic) {
  std::vector<ErrorProposal> proposals = {Proposal(0.5, ObjectClass::kCar, 9),
                                          Proposal(0.5, ObjectClass::kCar, 2)};
  RankProposals(&proposals);
  EXPECT_EQ(proposals[0].track_id, 2u);
}

TEST(RankerTest, TopKClamps) {
  std::vector<ErrorProposal> proposals = {Proposal(0.3), Proposal(0.2)};
  EXPECT_EQ(TopK(proposals, 10).size(), 2u);
  EXPECT_EQ(TopK(proposals, 1).size(), 1u);
  EXPECT_EQ(TopK({}, 5).size(), 0u);
}

TEST(RankerTest, TopKPerClassLimitsEachClass) {
  std::vector<ErrorProposal> proposals;
  for (int i = 0; i < 5; ++i) {
    proposals.push_back(Proposal(1.0 - 0.1 * i, ObjectClass::kCar,
                                 static_cast<TrackId>(i)));
  }
  proposals.push_back(Proposal(0.01, ObjectClass::kTruck, 99));
  RankProposals(&proposals);
  const auto top = TopKPerClass(proposals, 2);
  // 2 cars + 1 truck.
  ASSERT_EQ(top.size(), 3u);
  int cars = 0;
  int trucks = 0;
  for (const auto& p : top) {
    if (p.object_class == ObjectClass::kCar) ++cars;
    if (p.object_class == ObjectClass::kTruck) ++trucks;
  }
  EXPECT_EQ(cars, 2);
  EXPECT_EQ(trucks, 1);
}

// Regression: proposals loaded from a hand-edited file (via proposal_io)
// can carry an ObjectClass outside the enum. TopKPerClass used the raw
// cast as a vector index — out-of-bounds UB. They must now be skipped,
// counted, and never returned.
TEST(RankerTest, TopKPerClassSkipsOutOfRangeClasses) {
  std::vector<ErrorProposal> proposals = {
      Proposal(0.9, ObjectClass::kCar, 1),
      Proposal(0.8, static_cast<ObjectClass>(99), 2),
      Proposal(0.7, static_cast<ObjectClass>(-3), 3),
      Proposal(0.6, ObjectClass::kTruck, 4),
  };
  RankProposals(&proposals);

  obs::MetricsCollector collector;
  const obs::MetricsScope scope(&collector);
  const auto top = TopKPerClass(proposals, 2);
  ASSERT_EQ(top.size(), 2u);
  for (const auto& p : top) {
    EXPECT_LT(static_cast<size_t>(p.object_class), kNumObjectClasses);
  }
  EXPECT_EQ(collector.Snapshot().counters.at("rank.invalid_class_proposals"),
            2u);
}

TEST(RankerTest, TopKPerClassAllInvalidYieldsEmpty) {
  std::vector<ErrorProposal> proposals = {
      Proposal(0.9, static_cast<ObjectClass>(7), 1),
      Proposal(0.8, static_cast<ObjectClass>(1000), 2),
  };
  RankProposals(&proposals);
  EXPECT_TRUE(TopKPerClass(proposals, 3).empty());
}

// -------------------------------------------------------------- Learner

// The factor scores a learned distribution gives one observation and one
// bundle: Compute, RawScore under the element's class, then the AOF and
// floor.
std::optional<double> ScoreObservation(const FeatureDistribution& fd,
                                       const Observation& obs,
                                       const FeatureContext& ctx) {
  const auto& feature = static_cast<const ObservationFeature&>(fd.feature());
  const std::optional<double> raw =
      fd.RawScore(feature.Compute(obs, ctx), obs.object_class);
  if (!raw.has_value()) return std::nullopt;
  return fd.ApplyAofAndFloor(*raw);
}

std::optional<double> ScoreBundle(const FeatureDistribution& fd,
                                  const ObservationBundle& bundle,
                                  const FeatureContext& ctx) {
  const auto& feature = static_cast<const BundleFeature&>(fd.feature());
  const std::optional<double> raw =
      fd.RawScore(feature.Compute(bundle, ctx), bundle.MajorityClass());
  if (!raw.has_value()) return std::nullopt;
  return fd.ApplyAofAndFloor(*raw);
}

sim::GeneratedDataset SmallTrainingSet() {
  return sim::GenerateDataset(sim::LyftLikeProfile(), "train", 3, 101);
}

TEST(LearnerTest, LearnsVolumeAndVelocity) {
  const auto training = SmallTrainingSet();
  const DistributionLearner learner;
  std::vector<FeaturePtr> features = {std::make_shared<VolumeFeature>(),
                                      std::make_shared<VelocityFeature>()};
  const auto learned = learner.Learn(training.dataset, features);
  ASSERT_TRUE(learned.ok()) << learned.status();
  ASSERT_EQ(learned->size(), 2u);
  // A typical car volume is likely; an absurd one is not.
  const FeatureContext ctx{{0, 0}, 10.0};
  Observation car = MakeObs(1, ObservationSource::kHuman, 0, 0);
  const auto typical = ScoreObservation((*learned)[0], car, ctx);
  ASSERT_TRUE(typical.has_value());
  car.box.length = 40.0;  // a 40 m "car"
  const auto absurd = ScoreObservation((*learned)[0], car, ctx);
  ASSERT_TRUE(absurd.has_value());
  EXPECT_GT(*typical, *absurd * 100.0);
}

TEST(LearnerTest, CollectValuesSeparatesClasses) {
  const auto training = SmallTrainingSet();
  const DistributionLearner learner;
  const auto collected = learner.CollectValues(
      training.dataset, {std::make_shared<VolumeFeature>()});
  ASSERT_TRUE(collected.ok());
  ASSERT_EQ(collected->size(), 1u);
  const auto& volume = collected->front();
  EXPECT_TRUE(volume.global.empty());
  ASSERT_FALSE(volume.per_class.empty());
  // Car volumes cluster far below truck volumes.
  const auto& cars = volume.per_class.at(ObjectClass::kCar);
  const auto& trucks = volume.per_class.at(ObjectClass::kTruck);
  ASSERT_GE(cars.size(), 10u);
  ASSERT_GE(trucks.size(), 10u);
  double car_mean = 0;
  for (double v : cars) car_mean += v;
  car_mean /= static_cast<double>(cars.size());
  double truck_mean = 0;
  for (double v : trucks) truck_mean += v;
  truck_mean /= static_cast<double>(trucks.size());
  EXPECT_GT(truck_mean, car_mean * 2.0);
}

TEST(LearnerTest, FailsOnEmptyDataset) {
  const DistributionLearner learner;
  const Dataset empty;
  const auto learned =
      learner.Learn(empty, {std::make_shared<VolumeFeature>()});
  EXPECT_FALSE(learned.ok());
}

TEST(LearnerTest, FailsOnNullFeature) {
  const auto training = SmallTrainingSet();
  const DistributionLearner learner;
  EXPECT_FALSE(learner.Learn(training.dataset, {nullptr}).ok());
}

TEST(LearnerTest, EstimatorKindNames) {
  EXPECT_STREQ(EstimatorKindToString(EstimatorKind::kKde), "kde");
  EXPECT_STREQ(EstimatorKindToString(EstimatorKind::kHistogram), "histogram");
  EXPECT_STREQ(EstimatorKindToString(EstimatorKind::kGaussian), "gaussian");
  EXPECT_STREQ(EstimatorKindToString(EstimatorKind::kCategorical),
               "categorical");
}

TEST(LearnerTest, AllSourcesEnablesCrossSourceBundleFeatures) {
  const auto training = SmallTrainingSet();
  // Human-only learning sees single-observation bundles, so the
  // class-agreement feature has no samples; all-sources learning does.
  LearnerOptions human_only;
  human_only.estimator = EstimatorKind::kCategorical;
  const auto fail =
      DistributionLearner(human_only)
          .Learn(training.dataset,
                 {std::make_shared<ClassAgreementFeature>()});
  EXPECT_FALSE(fail.ok());

  LearnerOptions all;
  all.estimator = EstimatorKind::kCategorical;
  all.all_sources = true;
  const auto ok =
      DistributionLearner(all).Learn(
          training.dataset, {std::make_shared<ClassAgreementFeature>()});
  ASSERT_TRUE(ok.ok()) << ok.status();
  // Agreement (1) is the overwhelmingly likely outcome.
  const FeatureContext ctx{{0, 0}, 10.0};
  ObservationBundle agreeing;
  agreeing.observations = {
      MakeObs(1, ObservationSource::kHuman, 0, 0),
      MakeObs(2, ObservationSource::kModel, 0, 0)};
  ObservationBundle disagreeing;
  disagreeing.observations = {
      MakeObs(3, ObservationSource::kHuman, 0, 0, ObjectClass::kCar),
      MakeObs(4, ObservationSource::kModel, 0, 0, ObjectClass::kTruck)};
  EXPECT_GT(*ScoreBundle(ok->front(), agreeing, ctx),
            *ScoreBundle(ok->front(), disagreeing, ctx));
}

TEST(LearnerTest, AllEstimatorsFit) {
  const auto training = SmallTrainingSet();
  for (EstimatorKind kind :
       {EstimatorKind::kKde, EstimatorKind::kHistogram,
        EstimatorKind::kGaussian, EstimatorKind::kCategorical}) {
    LearnerOptions options;
    options.estimator = kind;
    const DistributionLearner learner(options);
    const auto learned =
        learner.Learn(training.dataset, {std::make_shared<VolumeFeature>()});
    EXPECT_TRUE(learned.ok())
        << EstimatorKindToString(kind) << ": " << learned.status();
  }
}

TEST(LearnerTest, MinSamplesErrorsComeInFeatureOrder) {
  const DistributionLearner learner;
  const auto learned =
      learner.Learn(Dataset{}, {std::make_shared<VelocityFeature>(),
                                std::make_shared<VolumeFeature>()});
  ASSERT_FALSE(learned.ok());
  EXPECT_EQ(learned.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(learned.status().message().find("'velocity'"), std::string::npos)
      << learned.status();
}

TEST(LearnerTest, FoldRejectsDistributionsOfAnotherFeature) {
  // Fold pairs statistics and distributions with features by position, so
  // a prior distribution of another feature must fail the fold instead of
  // folding values into the wrong statistics.
  const auto training = SmallTrainingSet();
  const DistributionLearner learner;
  const std::vector<FeaturePtr> features = {
      std::make_shared<VolumeFeature>(), std::make_shared<VelocityFeature>()};
  LearnedFeatureSet state;
  for (const FeaturePtr& feature : features) {
    state.stats.push_back(learner.EmptyStats(*feature, EstimatorKind::kKde));
  }
  ASSERT_TRUE(learner.Fold(training.dataset, features, state).ok());
  ASSERT_EQ(state.distributions.size(), 2u);
  std::swap(state.distributions[0], state.distributions[1]);
  std::swap(state.stats[0], state.stats[1]);
  const std::vector<FeatureStats> before = state.stats;

  const Status status = learner.Fold(training.dataset, features, state);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status;
  EXPECT_NE(status.message().find("'velocity'"), std::string::npos) << status;
  EXPECT_EQ(state.stats, before);
}

TEST(LearnerTest, NonFiniteFeatureValueIsSkipped) {
  // A human box with 1e110 m extents passes Scene::Validate, but its volume
  // overflows to inf. Scoring gives such a value likelihood 0; learning
  // must skip it rather than hand it to an estimator.
  auto training = SmallTrainingSet();
  Observation* huge = nullptr;
  for (Frame& frame : training.dataset.scenes.front().frames()) {
    for (Observation& obs : frame.observations) {
      if (obs.source == ObservationSource::kHuman) huge = &obs;
    }
    if (huge != nullptr) break;
  }
  ASSERT_NE(huge, nullptr);
  huge->box.length = huge->box.width = huge->box.height = 1e110;
  ASSERT_TRUE(training.dataset.scenes.front().Validate().ok());
  ASSERT_FALSE(std::isfinite(huge->box.Volume()));

  Fixy fixy;
  const Status learned = fixy.Learn(training.dataset);
  ASSERT_TRUE(learned.ok()) << learned;
  size_t kdes = 0;
  for (const FeatureDistribution& fd : fixy.learned_features()) {
    std::vector<stats::DistributionPtr> dists = {fd.global_distribution()};
    for (const auto& [cls, dist] : fd.per_class_distributions()) {
      dists.push_back(dist);
    }
    for (const stats::DistributionPtr& dist : dists) {
      const auto* kde = dynamic_cast<const stats::GaussianKde*>(dist.get());
      if (kde == nullptr) continue;
      ++kdes;
      for (double sample : kde->samples()) {
        ASSERT_TRUE(std::isfinite(sample)) << fd.feature().name();
      }
    }
  }
  EXPECT_GT(kdes, 0u);
}

// -------------------------------------------------------------- Engine

TEST(EngineTest, RequiresLearnBeforeFind) {
  const Fixy fixy;
  const Scene scene("s", 10.0);
  EXPECT_EQ(fixy.Find(scene, "missing-tracks").status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(fixy.Find(scene, "missing-obs").status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(fixy.Find(scene, "model-errors").status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(EngineTest, LearnExposesFeatureDistributions) {
  const auto training = SmallTrainingSet();
  Fixy fixy;
  ASSERT_TRUE(fixy.Learn(training.dataset).ok());
  EXPECT_TRUE(fixy.is_learned());
  ASSERT_EQ(fixy.learned_features().size(), 2u);
  EXPECT_EQ(fixy.learned_features()[0].feature().name(), "volume");
  EXPECT_EQ(fixy.learned_features()[1].feature().name(), "velocity");
}

TEST(EngineTest, LearnFailsOnEmptyDataset) {
  Fixy fixy;
  EXPECT_FALSE(fixy.Learn(Dataset{}).ok());
  EXPECT_FALSE(fixy.is_learned());
}

// ---------------------------------------------------------- Applications

// Builds a scene with one human+model labeled object, one model-only
// consistent object (a real missing label), and one erratic model-only
// ghost.
Scene MissingTrackScenario() {
  Scene scene("scenario", 10.0);
  ObservationId id = 1;
  Rng rng(7);
  for (int f = 0; f < 10; ++f) {
    Frame frame;
    frame.index = f;
    frame.timestamp = f * 0.1;
    frame.ego_position = {0.8 * f, 0.0};
    // Labeled object.
    frame.observations.push_back(
        MakeObs(id++, ObservationSource::kHuman, 10 + 0.8 * f, 2));
    frame.observations.push_back(MakeObs(id++, ObservationSource::kModel,
                                         10.05 + 0.8 * f, 2.03,
                                         ObjectClass::kCar, 0.9));
    // Missing object: consistent model-only detections.
    frame.observations.push_back(MakeObs(id++, ObservationSource::kModel,
                                         15 + 0.8 * f, -2,
                                         ObjectClass::kCar, 0.85));
    // Ghost: erratic model-only boxes near a fixed spot.
    if (f >= 2 && f <= 7) {
      Observation ghost = MakeObs(id++, ObservationSource::kModel,
                                  30 + rng.Normal(0.0, 1.2),
                                  8 + rng.Normal(0.0, 1.2),
                                  ObjectClass::kCar, 0.6);
      ghost.box.length *= 1.0 + rng.Normal(0.0, 0.25);
      ghost.box.width *= 1.0 + rng.Normal(0.0, 0.25);
      frame.observations.push_back(std::move(ghost));
    }
    scene.AddFrame(std::move(frame));
  }
  return scene;
}

class ApplicationsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto training = SmallTrainingSet();
    ASSERT_TRUE(fixy_.Learn(training.dataset).ok());
  }

  Fixy fixy_;
};

TEST_F(ApplicationsTest, MissingTrackExcludesHumanLabeledTracks) {
  const auto proposals = fixy_.Find(MissingTrackScenario(), "missing-tracks");
  ASSERT_TRUE(proposals.ok()) << proposals.status();
  // The missing object plus ghost fragments; the human-labeled track must
  // not be proposed. The labeled track is the only one spanning frames
  // 0..9 at full length with human boxes, so no proposal may claim a box
  // in its lane (y ~ +2).
  EXPECT_GE(proposals->size(), 2u);
  for (const ErrorProposal& p : *proposals) {
    EXPECT_EQ(p.kind, ProposalKind::kMissingTrack);
    // The labeled object lives in the y = +2 lane; ghosts sit near y = 8
    // and the missing object at y = -2.
    EXPECT_GT(std::abs(p.box.center.y - 2.0), 1.0);
  }
}

TEST_F(ApplicationsTest, ConsistentMissingTrackOutranksGhost) {
  const auto proposals = fixy_.Find(MissingTrackScenario(), "missing-tracks");
  ASSERT_TRUE(proposals.ok());
  ASSERT_GE(proposals->size(), 2u);
  // The consistent track spans all 10 frames; ghost fragments are shorter
  // and erratic, so the consistent one must rank first.
  EXPECT_EQ((*proposals)[0].last_frame - (*proposals)[0].first_frame, 9);
  EXPECT_GT((*proposals)[0].score, (*proposals)[1].score);
}

TEST_F(ApplicationsTest, MissingObservationFindsDroppedHumanBox) {
  // A fully labeled object whose human box is missing at frame 4.
  Scene scene("missing_obs", 10.0);
  ObservationId id = 1;
  for (int f = 0; f < 10; ++f) {
    Frame frame;
    frame.index = f;
    frame.timestamp = f * 0.1;
    frame.ego_position = {0.8 * f, 0};
    if (f != 4) {
      frame.observations.push_back(
          MakeObs(id++, ObservationSource::kHuman, 10 + 0.8 * f, 2));
    }
    frame.observations.push_back(MakeObs(id++, ObservationSource::kModel,
                                         10.05 + 0.8 * f, 2.02,
                                         ObjectClass::kCar, 0.9));
    scene.AddFrame(std::move(frame));
  }
  const auto proposals = fixy_.Find(scene, "missing-obs");
  ASSERT_TRUE(proposals.ok());
  ASSERT_EQ(proposals->size(), 1u);
  EXPECT_EQ((*proposals)[0].kind, ProposalKind::kMissingObservation);
  EXPECT_EQ((*proposals)[0].frame_index, 4);
}

TEST_F(ApplicationsTest, MissingObservationIgnoresModelOnlyTracks) {
  // A track with no human labels at all must not produce
  // missing-observation proposals (Section 8.3's AOF zeroes it).
  Scene scene("model_only", 10.0);
  ObservationId id = 1;
  for (int f = 0; f < 6; ++f) {
    Frame frame;
    frame.index = f;
    frame.timestamp = f * 0.1;
    frame.observations.push_back(MakeObs(id++, ObservationSource::kModel,
                                         10 + 0.5 * f, 0,
                                         ObjectClass::kCar, 0.9));
    scene.AddFrame(std::move(frame));
  }
  const auto proposals = fixy_.Find(scene, "missing-obs");
  ASSERT_TRUE(proposals.ok());
  EXPECT_TRUE(proposals->empty());
}

TEST_F(ApplicationsTest, ModelErrorsRankGhostAboveCleanTrack) {
  const auto proposals = fixy_.Find(MissingTrackScenario(), "model-errors");
  ASSERT_TRUE(proposals.ok());
  ASSERT_GE(proposals->size(), 2u);
  // The top proposal should be (a fragment of) the erratic ghost, which
  // lives in frames 2..7 — not one of the two smooth tracks spanning 0..9.
  EXPECT_GE((*proposals)[0].first_frame, 2);
  EXPECT_LE((*proposals)[0].last_frame, 7);
}

TEST_F(ApplicationsTest, ModelErrorsIgnoreHumanObservations) {
  // Scene with only human labels -> no model tracks -> no proposals.
  Scene scene("humans_only", 10.0);
  ObservationId id = 1;
  for (int f = 0; f < 5; ++f) {
    Frame frame;
    frame.index = f;
    frame.timestamp = f * 0.1;
    frame.observations.push_back(
        MakeObs(id++, ObservationSource::kHuman, 10, 2));
    scene.AddFrame(std::move(frame));
  }
  const auto proposals = fixy_.Find(scene, "model-errors");
  ASSERT_TRUE(proposals.ok());
  EXPECT_TRUE(proposals->empty());
}

TEST_F(ApplicationsTest, ProposalsAreRankedDescending) {
  const auto proposals = fixy_.Find(MissingTrackScenario(), "missing-tracks");
  ASSERT_TRUE(proposals.ok());
  for (size_t i = 1; i < proposals->size(); ++i) {
    EXPECT_GE((*proposals)[i - 1].score, (*proposals)[i].score);
  }
}

TEST_F(ApplicationsTest, EmptySceneProducesNoProposals) {
  const Scene scene("empty", 10.0);
  EXPECT_TRUE(fixy_.Find(scene, "missing-tracks")->empty());
  EXPECT_TRUE(fixy_.Find(scene, "missing-obs")->empty());
  EXPECT_TRUE(fixy_.Find(scene, "model-errors")->empty());
}

}  // namespace
}  // namespace fixy
