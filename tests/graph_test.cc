// Tests for src/graph: factor graph compilation, structure (bipartite
// invariants), and Section 6 scoring semantics — including the paper's
// worked example: (ln 0.37 + ln 0.39 + ln 0.21) / 3 = -1.17.
#include <gtest/gtest.h>

#include <cmath>

#include "dsl/feature_distribution.h"
#include "graph/factor_graph.h"
#include "stats/lambda_distribution.h"

namespace fixy {
namespace {

Observation MakeObs(ObservationId id, ObservationSource source, double x,
                    ObjectClass cls = ObjectClass::kCar) {
  Observation obs;
  obs.id = id;
  obs.source = source;
  obs.object_class = cls;
  obs.box = geom::Box3d({x, 0, 0.85}, 4.5, 1.9, 1.7, 0.0);
  obs.confidence = source == ObservationSource::kModel ? 0.9 : 1.0;
  return obs;
}

ObservationBundle MakeBundle(int frame, std::vector<Observation> obs) {
  ObservationBundle bundle;
  bundle.frame_index = frame;
  bundle.timestamp = frame * 0.1;
  bundle.ego_position = {0, 0};
  bundle.observations = std::move(obs);
  return bundle;
}

// A track of `n` single-observation bundles.
Track SimpleTrack(TrackId id, int n) {
  Track track(id);
  for (int b = 0; b < n; ++b) {
    track.AddBundle(MakeBundle(
        b, {MakeObs(id * 100 + static_cast<ObservationId>(b),
                    ObservationSource::kModel, 10.0 + 0.5 * b)}));
  }
  return track;
}

// Feature stubs returning constants, so factor scores are exact.
class ConstObsFeature final : public ObservationFeature {
 public:
  std::string name() const override { return "const_obs"; }
  std::optional<double> Compute(const Observation&,
                                const FeatureContext&) const override {
    return 0.0;
  }
};

class ConstBundleFeature final : public BundleFeature {
 public:
  std::string name() const override { return "const_bundle"; }
  std::optional<double> Compute(const ObservationBundle&,
                                const FeatureContext&) const override {
    return 0.0;
  }
};

class ConstTransitionFeature final : public TransitionFeature {
 public:
  std::string name() const override { return "const_trans"; }
  std::optional<double> Compute(const ObservationBundle&,
                                const ObservationBundle&,
                                const FeatureContext&) const override {
    return 0.0;
  }
};

class ConstTrackFeature final : public TrackFeature {
 public:
  std::string name() const override { return "const_track"; }
  std::optional<double> Compute(const Track&,
                                const FeatureContext&) const override {
    return 0.0;
  }
};

// A feature that never applies.
class NeverFeature final : public ObservationFeature {
 public:
  std::string name() const override { return "never"; }
  std::optional<double> Compute(const Observation&,
                                const FeatureContext&) const override {
    return std::nullopt;
  }
};

stats::DistributionPtr ConstDistribution(double value) {
  return std::make_shared<stats::LambdaDistribution>(
      "const", [value](double) { return value; });
}

template <typename F>
FeatureDistribution Fd(double score) {
  return FeatureDistribution(std::make_shared<F>(), ConstDistribution(score));
}

// ------------------------------------------------------------ Structure

TEST(FactorGraphTest, VariablesMatchObservations) {
  TrackSet tracks;
  tracks.tracks.push_back(SimpleTrack(0, 3));
  tracks.tracks.push_back(SimpleTrack(1, 2));
  LoaSpec spec;
  const auto graph = FactorGraph::Compile(tracks, spec, 10.0);
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph->variables().size(), 5u);
  EXPECT_TRUE(graph->factors().empty());
  EXPECT_TRUE(graph->Validate().ok());
}

TEST(FactorGraphTest, ObservationFactorsOnePerObservation) {
  TrackSet tracks;
  tracks.tracks.push_back(SimpleTrack(0, 4));
  LoaSpec spec;
  spec.feature_distributions.push_back(Fd<ConstObsFeature>(0.5));
  const auto graph = FactorGraph::Compile(tracks, spec, 10.0);
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph->factors().size(), 4u);
  for (const FactorNode& factor : graph->factors()) {
    EXPECT_EQ(factor.variables.size(), 1u);
    EXPECT_DOUBLE_EQ(factor.score, 0.5);
    EXPECT_EQ(factor.element.kind, FeatureKind::kObservation);
  }
  EXPECT_TRUE(graph->Validate().ok());
}

TEST(FactorGraphTest, BundleFactorConnectsAllMembers) {
  TrackSet tracks;
  Track track(0);
  track.AddBundle(MakeBundle(
      0, {MakeObs(1, ObservationSource::kHuman, 10),
          MakeObs(2, ObservationSource::kModel, 10.05)}));
  tracks.tracks.push_back(std::move(track));
  LoaSpec spec;
  spec.feature_distributions.push_back(Fd<ConstBundleFeature>(0.6));
  const auto graph = FactorGraph::Compile(tracks, spec, 10.0);
  ASSERT_TRUE(graph.ok());
  ASSERT_EQ(graph->factors().size(), 1u);
  EXPECT_EQ(graph->factors()[0].variables.size(), 2u);
}

TEST(FactorGraphTest, TransitionFactorsSpanAdjacentBundles) {
  TrackSet tracks;
  tracks.tracks.push_back(SimpleTrack(0, 4));
  LoaSpec spec;
  spec.feature_distributions.push_back(Fd<ConstTransitionFeature>(0.4));
  const auto graph = FactorGraph::Compile(tracks, spec, 10.0);
  ASSERT_TRUE(graph.ok());
  // 4 bundles -> 3 transitions, each connecting 2 observations.
  ASSERT_EQ(graph->factors().size(), 3u);
  for (const FactorNode& factor : graph->factors()) {
    EXPECT_EQ(factor.variables.size(), 2u);
    EXPECT_EQ(factor.element.kind, FeatureKind::kTransition);
  }
}

TEST(FactorGraphTest, TrackFactorConnectsEverything) {
  TrackSet tracks;
  tracks.tracks.push_back(SimpleTrack(0, 5));
  LoaSpec spec;
  spec.feature_distributions.push_back(Fd<ConstTrackFeature>(0.7));
  const auto graph = FactorGraph::Compile(tracks, spec, 10.0);
  ASSERT_TRUE(graph.ok());
  ASSERT_EQ(graph->factors().size(), 1u);
  EXPECT_EQ(graph->factors()[0].variables.size(), 5u);
}

TEST(FactorGraphTest, InapplicableFeatureProducesNoFactors) {
  TrackSet tracks;
  tracks.tracks.push_back(SimpleTrack(0, 3));
  LoaSpec spec;
  spec.feature_distributions.emplace_back(std::make_shared<NeverFeature>(),
                                          ConstDistribution(0.9));
  const auto graph = FactorGraph::Compile(tracks, spec, 10.0);
  ASSERT_TRUE(graph.ok());
  EXPECT_TRUE(graph->factors().empty());
}

TEST(FactorGraphTest, RejectsEmptyBundle) {
  TrackSet tracks;
  Track track(0);
  track.AddBundle(MakeBundle(0, {}));
  tracks.tracks.push_back(std::move(track));
  const auto graph = FactorGraph::Compile(tracks, LoaSpec{}, 10.0);
  EXPECT_FALSE(graph.ok());
}

TEST(FactorGraphTest, VariableIndexLookup) {
  TrackSet tracks;
  tracks.tracks.push_back(SimpleTrack(0, 2));
  tracks.tracks.push_back(SimpleTrack(1, 3));
  const auto graph = FactorGraph::Compile(tracks, LoaSpec{}, 10.0);
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph->VariableIndex(0, 0, 0), 0u);
  EXPECT_EQ(graph->VariableIndex(0, 1, 0), 1u);
  EXPECT_EQ(graph->VariableIndex(1, 0, 0), 2u);
  EXPECT_EQ(graph->VariableIndex(1, 2, 0), 4u);
}

// Out-of-range queries return nullopt, never abort: a graph compiled from
// untrusted input is queried with indices the caller did not validate.
TEST(FactorGraphTest, VariableIndexOutOfRangeYieldsNullopt) {
  TrackSet tracks;
  tracks.tracks.push_back(SimpleTrack(0, 2));
  const auto graph = FactorGraph::Compile(tracks, LoaSpec{}, 10.0);
  ASSERT_TRUE(graph.ok());
  EXPECT_FALSE(graph->VariableIndex(1, 0, 0).has_value());   // bad track
  EXPECT_FALSE(graph->VariableIndex(0, 2, 0).has_value());   // bad bundle
  EXPECT_FALSE(graph->VariableIndex(0, 0, 5).has_value());   // bad obs
  EXPECT_FALSE(graph->VariableIndex(99, 99, 99).has_value());
}

TEST(FactorGraphScoringTest, OutOfRangeScoreQueriesYieldNullopt) {
  TrackSet tracks;
  tracks.tracks.push_back(SimpleTrack(0, 2));
  LoaSpec spec;
  spec.feature_distributions.push_back(Fd<ConstObsFeature>(0.5));
  const auto graph = FactorGraph::Compile(tracks, spec, 10.0);
  ASSERT_TRUE(graph.ok());
  EXPECT_FALSE(graph->ScoreTrack(7).has_value());
  EXPECT_FALSE(graph->ScoreBundle(0, 9).has_value());
  EXPECT_FALSE(graph->ScoreBundle(3, 0).has_value());
  EXPECT_FALSE(graph->ScoreObservation(1000).has_value());
  EXPECT_FALSE(graph->ScoreVariableSet({0, 1000}).has_value());
}

// Each variable's line names its observation's id, source, class and
// confidence, and the frame of the bundle that holds it.
TEST(FactorGraphTest, ToStringListsNodesAndFactors) {
  TrackSet tracks;
  Track track(0);
  track.AddBundle(MakeBundle(5, {MakeObs(17, ObservationSource::kModel, 10.0)}));
  track.AddBundle(MakeBundle(6, {MakeObs(18, ObservationSource::kHuman, 10.5,
                                         ObjectClass::kTruck)}));
  tracks.tracks.push_back(std::move(track));
  LoaSpec spec;
  spec.feature_distributions.push_back(Fd<ConstObsFeature>(0.5));
  const auto graph = FactorGraph::Compile(tracks, spec, 10.0);
  ASSERT_TRUE(graph.ok());
  const std::string s = graph->ToString();
  EXPECT_NE(s.find("2 variables"), std::string::npos);
  EXPECT_NE(s.find("2 factors"), std::string::npos);
  EXPECT_NE(s.find("var 0: track 0 bundle 0 obs 17 model car @f5 conf=0.90"),
            std::string::npos)
      << s;
  EXPECT_NE(s.find("var 1: track 0 bundle 1 obs 18 human truck @f6 conf=1.00"),
            std::string::npos)
      << s;
}

// -------------------------------------------------------------- Scoring

TEST(FactorGraphScoringTest, PaperWorkedExample) {
  // Section 6: a track with two observations (volumes scoring 0.37 and
  // 0.39) and one velocity transition scoring 0.21 has score
  // (ln 0.37 + ln 0.39 + ln 0.21) / 3 = -1.17.
  TrackSet tracks;
  tracks.tracks.push_back(SimpleTrack(0, 2));

  // Distinct per-observation volume scores: use a feature of the box
  // center (x = 10.0, then 10.5) to key the score.
  class VolumeScoreFeature final : public ObservationFeature {
   public:
    std::string name() const override { return "volume_like"; }
    std::optional<double> Compute(const Observation& obs,
                                  const FeatureContext&) const override {
      return obs.box.center.x < 10.25 ? 0.0 : 1.0;
    }
  };
  const auto volume_dist = std::make_shared<stats::LambdaDistribution>(
      "volume_scores",
      [](double which) { return which < 0.5 ? 0.37 : 0.39; });

  LoaSpec spec;
  spec.feature_distributions.emplace_back(
      std::make_shared<VolumeScoreFeature>(), volume_dist);
  spec.feature_distributions.push_back(Fd<ConstTransitionFeature>(0.21));

  const auto graph = FactorGraph::Compile(tracks, spec, 10.0);
  ASSERT_TRUE(graph.ok());
  ASSERT_EQ(graph->factors().size(), 3u);
  const auto score = graph->ScoreTrack(0);
  ASSERT_TRUE(score.has_value());
  const double expected =
      (std::log(0.37) + std::log(0.39) + std::log(0.21)) / 3.0;
  EXPECT_NEAR(*score, expected, 1e-12);
  EXPECT_NEAR(*score, -1.17, 0.005);
}

TEST(FactorGraphScoringTest, ComponentScoreCountsFactorsOnce) {
  // A track factor touches all observations; scoring the track must count
  // it once, not once per observation.
  TrackSet tracks;
  tracks.tracks.push_back(SimpleTrack(0, 3));
  LoaSpec spec;
  spec.feature_distributions.push_back(Fd<ConstTrackFeature>(0.5));
  const auto graph = FactorGraph::Compile(tracks, spec, 10.0);
  ASSERT_TRUE(graph.ok());
  const auto score = graph->ScoreTrack(0);
  ASSERT_TRUE(score.has_value());
  EXPECT_NEAR(*score, std::log(0.5), 1e-12);
}

TEST(FactorGraphScoringTest, NormalizationMakesLengthsComparable) {
  // Two tracks with identical per-factor scores but different lengths get
  // the same normalized score (the stated purpose of normalization).
  TrackSet tracks;
  tracks.tracks.push_back(SimpleTrack(0, 3));
  tracks.tracks.push_back(SimpleTrack(1, 10));
  LoaSpec spec;
  spec.feature_distributions.push_back(Fd<ConstObsFeature>(0.5));
  const auto graph = FactorGraph::Compile(tracks, spec, 10.0);
  ASSERT_TRUE(graph.ok());
  const auto short_score = graph->ScoreTrack(0);
  const auto long_score = graph->ScoreTrack(1);
  ASSERT_TRUE(short_score.has_value());
  ASSERT_TRUE(long_score.has_value());
  EXPECT_NEAR(*short_score, *long_score, 1e-12);
  EXPECT_NEAR(*short_score, std::log(0.5), 1e-12);
}

TEST(FactorGraphScoringTest, ObservationScoreSumsItsFactors) {
  TrackSet tracks;
  tracks.tracks.push_back(SimpleTrack(0, 2));
  LoaSpec spec;
  spec.feature_distributions.push_back(Fd<ConstObsFeature>(0.5));
  spec.feature_distributions.push_back(Fd<ConstTransitionFeature>(0.25));
  const auto graph = FactorGraph::Compile(tracks, spec, 10.0);
  ASSERT_TRUE(graph.ok());
  // Observation 0: one obs factor (0.5) + one transition factor (0.25),
  // normalized by 2.
  const auto score = graph->ScoreObservation(0);
  ASSERT_TRUE(score.has_value());
  EXPECT_NEAR(*score, (std::log(0.5) + std::log(0.25)) / 2.0, 1e-12);
}

TEST(FactorGraphScoringTest, BundleScoreIncludesAdjacentTransitions) {
  TrackSet tracks;
  tracks.tracks.push_back(SimpleTrack(0, 3));
  LoaSpec spec;
  spec.feature_distributions.push_back(Fd<ConstTransitionFeature>(0.3));
  const auto graph = FactorGraph::Compile(tracks, spec, 10.0);
  ASSERT_TRUE(graph.ok());
  // Middle bundle participates in both transitions.
  const auto middle = graph->ScoreBundle(0, 1);
  ASSERT_TRUE(middle.has_value());
  EXPECT_NEAR(*middle, std::log(0.3), 1e-12);
  // Edge bundle participates in one.
  const auto edge = graph->ScoreBundle(0, 0);
  ASSERT_TRUE(edge.has_value());
  EXPECT_NEAR(*edge, std::log(0.3), 1e-12);
}

TEST(FactorGraphScoringTest, NoFactorsMeansNoScore) {
  TrackSet tracks;
  tracks.tracks.push_back(SimpleTrack(0, 2));
  const auto graph = FactorGraph::Compile(tracks, LoaSpec{}, 10.0);
  ASSERT_TRUE(graph.ok());
  EXPECT_FALSE(graph->ScoreTrack(0).has_value());
  EXPECT_FALSE(graph->ScoreObservation(0).has_value());
}

TEST(FactorGraphScoringTest, HigherFactorScoresGiveHigherComponentScores) {
  TrackSet tracks;
  tracks.tracks.push_back(SimpleTrack(0, 3));
  for (double p : {0.1, 0.5, 0.9}) {
    LoaSpec spec;
    spec.feature_distributions.push_back(Fd<ConstObsFeature>(p));
    const auto graph = FactorGraph::Compile(tracks, spec, 10.0);
    ASSERT_TRUE(graph.ok());
    EXPECT_NEAR(*graph->ScoreTrack(0), std::log(p), 1e-12);
  }
}

// Property: component scores are always finite and non-positive (factor
// scores live in (0, 1]).
class GraphScoreBoundsTest : public ::testing::TestWithParam<double> {};

TEST_P(GraphScoreBoundsTest, ScoresFiniteAndNonPositive) {
  TrackSet tracks;
  tracks.tracks.push_back(SimpleTrack(0, 6));
  LoaSpec spec;
  spec.feature_distributions.push_back(Fd<ConstObsFeature>(GetParam()));
  spec.feature_distributions.push_back(
      Fd<ConstTransitionFeature>(GetParam()));
  const auto graph = FactorGraph::Compile(tracks, spec, 10.0);
  ASSERT_TRUE(graph.ok());
  const auto score = graph->ScoreTrack(0);
  ASSERT_TRUE(score.has_value());
  EXPECT_TRUE(std::isfinite(*score));
  EXPECT_LE(*score, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(FactorScores, GraphScoreBoundsTest,
                         ::testing::Values(1e-9, 1e-4, 0.01, 0.37, 0.5, 0.99,
                                           1.0));

}  // namespace
}  // namespace fixy
