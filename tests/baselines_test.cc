// Tests for src/baselines: the four ad-hoc model assertions and
// uncertainty sampling.
#include <gtest/gtest.h>

#include "baselines/model_assertions.h"
#include "baselines/uncertainty.h"

namespace fixy::baselines {
namespace {

Observation MakeObs(ObservationId id, ObservationSource source, double x,
                    double y, double confidence = 0.9) {
  Observation obs;
  obs.id = id;
  obs.source = source;
  obs.object_class = ObjectClass::kCar;
  obs.box = geom::Box3d({x, y, 0.85}, 4.5, 1.9, 1.7, 0.0);
  obs.confidence = source == ObservationSource::kHuman ? 1.0 : confidence;
  return obs;
}

// A scene with: a human+model labeled object, a model-only consistent
// object (missing label), and a model-only 2-frame blip.
Scene TestScene() {
  Scene scene("baseline", 10.0);
  ObservationId id = 1;
  for (int f = 0; f < 10; ++f) {
    Frame frame;
    frame.index = f;
    frame.timestamp = f * 0.1;
    frame.ego_position = {0.8 * f, 0};
    frame.observations.push_back(
        MakeObs(id++, ObservationSource::kHuman, 10 + 0.8 * f, 2));
    frame.observations.push_back(MakeObs(
        id++, ObservationSource::kModel, 10.05 + 0.8 * f, 2.02, 0.95));
    frame.observations.push_back(MakeObs(
        id++, ObservationSource::kModel, 20 + 0.8 * f, -2, 0.7));
    if (f == 4 || f == 5) {
      frame.observations.push_back(
          MakeObs(id++, ObservationSource::kModel, 40, 9, 0.45));
    }
    scene.AddFrame(std::move(frame));
  }
  return scene;
}

// ----------------------------------------------------------- Consistency

TEST(ConsistencyAssertionTest, FlagsModelOnlyTracks) {
  const auto proposals =
      ConsistencyAssertion(TestScene(), MaOrdering::kRandom, 1);
  ASSERT_TRUE(proposals.ok());
  // The missing-label track and the 2-frame blip are model-only; the
  // labeled track is not flagged.
  EXPECT_EQ(proposals->size(), 2u);
  for (const ErrorProposal& p : *proposals) {
    EXPECT_EQ(p.kind, ProposalKind::kMissingTrack);
  }
}

TEST(ConsistencyAssertionTest, ConfidenceOrderingRanksByConfidence) {
  const auto proposals =
      ConsistencyAssertion(TestScene(), MaOrdering::kConfidence, 1);
  ASSERT_TRUE(proposals.ok());
  ASSERT_EQ(proposals->size(), 2u);
  EXPECT_GE((*proposals)[0].model_confidence,
            (*proposals)[1].model_confidence);
  EXPECT_NEAR((*proposals)[0].score, 0.7, 1e-9);
}

TEST(ConsistencyAssertionTest, RandomOrderingIsSeedDeterministic) {
  const auto a = ConsistencyAssertion(TestScene(), MaOrdering::kRandom, 42);
  const auto b = ConsistencyAssertion(TestScene(), MaOrdering::kRandom, 42);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->size(), b->size());
  for (size_t i = 0; i < a->size(); ++i) {
    EXPECT_EQ((*a)[i].track_id, (*b)[i].track_id);
  }
}

TEST(ConsistencyAssertionTest, MinLengthFiltersSingletons) {
  Scene scene("single", 10.0);
  Frame frame;
  frame.index = 0;
  frame.observations.push_back(
      MakeObs(1, ObservationSource::kModel, 10, 0));
  scene.AddFrame(std::move(frame));
  const auto proposals =
      ConsistencyAssertion(scene, MaOrdering::kRandom, 1);
  ASSERT_TRUE(proposals.ok());
  EXPECT_TRUE(proposals->empty());
}

// ---------------------------------------------------------------- Appear

TEST(AppearAssertionTest, FlagsOnlyShortTracks) {
  const auto proposals = AppearAssertion(TestScene());
  ASSERT_TRUE(proposals.ok());
  ASSERT_EQ(proposals->size(), 1u);
  EXPECT_EQ((*proposals)[0].first_frame, 4);
  EXPECT_EQ((*proposals)[0].last_frame, 5);
  EXPECT_EQ((*proposals)[0].kind, ProposalKind::kModelError);
}

// --------------------------------------------------------------- Flicker

TEST(FlickerAssertionTest, FlagsTracksWithGaps) {
  Scene scene("flicker", 10.0);
  ObservationId id = 1;
  for (int f = 0; f < 8; ++f) {
    Frame frame;
    frame.index = f;
    frame.timestamp = f * 0.1;
    if (f != 3) {  // flicker: disappear at frame 3, reappear at 4
      frame.observations.push_back(
          MakeObs(id++, ObservationSource::kModel, 10 + 0.2 * f, 0));
    }
    scene.AddFrame(std::move(frame));
  }
  const auto proposals = FlickerAssertion(scene);
  ASSERT_TRUE(proposals.ok());
  ASSERT_EQ(proposals->size(), 1u);
  EXPECT_DOUBLE_EQ((*proposals)[0].score, 1.0);
}

TEST(FlickerAssertionTest, ContinuousTrackNotFlagged) {
  const auto proposals = FlickerAssertion(TestScene());
  ASSERT_TRUE(proposals.ok());
  EXPECT_TRUE(proposals->empty());
}

// -------------------------------------------------------------- Multibox

TEST(MultiboxAssertionTest, FlagsTripleOverlap) {
  Scene scene("multibox", 10.0);
  Frame frame;
  frame.index = 0;
  frame.observations.push_back(
      MakeObs(1, ObservationSource::kModel, 10.0, 0));
  frame.observations.push_back(
      MakeObs(2, ObservationSource::kModel, 10.4, 0.1));
  frame.observations.push_back(
      MakeObs(3, ObservationSource::kModel, 10.8, -0.1));
  scene.AddFrame(std::move(frame));
  const auto proposals = MultiboxAssertion(scene);
  ASSERT_TRUE(proposals.ok());
  EXPECT_GE(proposals->size(), 1u);
  EXPECT_EQ((*proposals)[0].kind, ProposalKind::kModelError);
}

TEST(MultiboxAssertionTest, PairOverlapNotFlagged) {
  Scene scene("pair", 10.0);
  Frame frame;
  frame.index = 0;
  frame.observations.push_back(
      MakeObs(1, ObservationSource::kModel, 10.0, 0));
  frame.observations.push_back(
      MakeObs(2, ObservationSource::kModel, 10.4, 0.1));
  scene.AddFrame(std::move(frame));
  const auto proposals = MultiboxAssertion(scene);
  ASSERT_TRUE(proposals.ok());
  EXPECT_TRUE(proposals->empty());
}

TEST(MultiboxAssertionTest, IgnoresHumanBoxes) {
  Scene scene("humans", 10.0);
  Frame frame;
  frame.index = 0;
  for (int i = 0; i < 3; ++i) {
    frame.observations.push_back(
        MakeObs(static_cast<ObservationId>(i + 1), ObservationSource::kHuman,
                10.0 + 0.2 * i, 0));
  }
  scene.AddFrame(std::move(frame));
  const auto proposals = MultiboxAssertion(scene);
  ASSERT_TRUE(proposals.ok());
  EXPECT_TRUE(proposals->empty());
}

// ---------------------------------------------------------- Uncertainty

TEST(UncertaintySamplingTest, MostUncertainFirst) {
  const auto proposals = UncertaintySampling(TestScene());
  ASSERT_TRUE(proposals.ok());
  ASSERT_GE(proposals->size(), 3u);
  // The 2-frame blip has confidence 0.45, closest to the 0.5 threshold.
  EXPECT_NEAR((*proposals)[0].model_confidence, 0.45, 1e-9);
  for (size_t i = 1; i < proposals->size(); ++i) {
    EXPECT_GE((*proposals)[i - 1].score, (*proposals)[i].score);
  }
}

TEST(UncertaintySamplingTest, DeduplicatesByTrack) {
  const auto proposals = UncertaintySampling(TestScene());
  ASSERT_TRUE(proposals.ok());
  std::set<TrackId> tracks;
  for (const ErrorProposal& p : *proposals) {
    EXPECT_TRUE(tracks.insert(p.track_id).second)
        << "duplicate track " << p.track_id;
  }
}

TEST(UncertaintySamplingTest, HighConfidenceErrorsRankLast) {
  const auto proposals = UncertaintySampling(TestScene());
  ASSERT_TRUE(proposals.ok());
  // The 0.95-confidence track is the least uncertain.
  EXPECT_NEAR(proposals->back().model_confidence, 0.95, 1e-9);
}

}  // namespace
}  // namespace fixy::baselines
