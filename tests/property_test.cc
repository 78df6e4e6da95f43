// Cross-module property tests: invariants that must hold for arbitrary
// simulated workloads, checked over parameterized seed sweeps.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "common/random.h"
#include "core/engine.h"
#include "dsl/track_builder.h"
#include "eval/metrics.h"
#include "geometry/iou.h"
#include "sim/generate.h"

namespace fixy {
namespace {

class SeededPropertyTest : public ::testing::TestWithParam<uint64_t> {};

// ---- Track assembly conserves observations. ----

TEST_P(SeededPropertyTest, TrackBuilderConservesObservations) {
  const auto generated =
      sim::GenerateScene(sim::LyftLikeProfile(), "prop", GetParam());
  const auto tracks = TrackBuilder().Build(generated.scene);
  ASSERT_TRUE(tracks.ok());
  std::multiset<ObservationId> in_scene;
  for (const Frame& frame : generated.scene.frames()) {
    for (const Observation& obs : frame.observations) {
      in_scene.insert(obs.id);
    }
  }
  std::multiset<ObservationId> in_tracks;
  for (const Track& track : tracks->tracks) {
    for (const ObservationBundle& bundle : track.bundles()) {
      for (const Observation& obs : bundle.observations) {
        in_tracks.insert(obs.id);
      }
    }
  }
  EXPECT_EQ(in_scene, in_tracks);
}

// ---- Bundles are time-ordered and intra-frame. ----

TEST_P(SeededPropertyTest, TrackBundlesAreOrderedAndCoherent) {
  const auto generated =
      sim::GenerateScene(sim::InternalLikeProfile(), "prop", GetParam());
  const auto tracks = TrackBuilder().Build(generated.scene);
  ASSERT_TRUE(tracks.ok());
  // Every observation's frame, from the scene that holds it.
  std::map<ObservationId, int> frame_of;
  for (const Frame& frame : generated.scene.frames()) {
    for (const Observation& obs : frame.observations) {
      frame_of[obs.id] = frame.index;
    }
  }
  for (const Track& track : tracks->tracks) {
    int prev_frame = -1;
    for (const ObservationBundle& bundle : track.bundles()) {
      EXPECT_GT(bundle.frame_index, prev_frame);
      prev_frame = bundle.frame_index;
      ASSERT_FALSE(bundle.observations.empty());
      for (const Observation& obs : bundle.observations) {
        EXPECT_EQ(frame_of.at(obs.id), bundle.frame_index);
      }
    }
  }
}

// ---- Bundling is invariant to observation order within frames. ----

TEST_P(SeededPropertyTest, RankingInvariantToObservationOrder) {
  const sim::SimProfile profile = sim::LyftLikeProfile();
  Fixy fixy;
  {
    const auto training =
        sim::GenerateDataset(profile, "prop_train", 2, GetParam());
    ASSERT_TRUE(fixy.Learn(training.dataset).ok());
  }
  const auto generated = sim::GenerateScene(profile, "prop", GetParam() + 7);
  Scene shuffled = generated.scene;
  Rng rng(GetParam() ^ 0xABCD);
  for (Frame& frame : shuffled.frames()) {
    for (size_t i = frame.observations.size(); i > 1; --i) {
      std::swap(frame.observations[i - 1],
                frame.observations[rng.UniformInt(i)]);
    }
  }
  const auto a = fixy.Find(generated.scene, "missing-tracks").value();
  const auto b = fixy.Find(shuffled, "missing-tracks").value();
  ASSERT_EQ(a.size(), b.size());
  // Scores must agree pairwise after sorting (track ids can differ since
  // assembly order differs).
  std::vector<double> scores_a;
  std::vector<double> scores_b;
  for (const auto& p : a) scores_a.push_back(p.score);
  for (const auto& p : b) scores_b.push_back(p.score);
  std::sort(scores_a.begin(), scores_a.end());
  std::sort(scores_b.begin(), scores_b.end());
  for (size_t i = 0; i < scores_a.size(); ++i) {
    EXPECT_NEAR(scores_a[i], scores_b[i], 1e-9);
  }
}

// ---- Ledger consistency: missed tracks really have no human labels. ----

TEST_P(SeededPropertyTest, MissingTrackErrorsHaveNoHumanLabels) {
  const auto generated =
      sim::GenerateScene(sim::LyftLikeProfile(), "prop", GetParam());
  for (const sim::GtError& error : generated.ledger.errors) {
    if (error.type != sim::GtErrorType::kMissingTrack) continue;
    for (const auto& [frame_index, box] : error.boxes) {
      if (frame_index < 0 ||
          frame_index >= static_cast<int>(generated.scene.frame_count())) {
        continue;
      }
      const Frame& frame =
          generated.scene.frames()[static_cast<size_t>(frame_index)];
      for (const Observation& obs : frame.observations) {
        if (obs.source != ObservationSource::kHuman) continue;
        EXPECT_LT(geom::BevIou(obs.box, box), 0.5)
            << "human label overlaps a 'missing' track at frame "
            << frame_index;
      }
    }
  }
}

// ---- Every human label corresponds to a ground-truth object. ----

TEST_P(SeededPropertyTest, HumanLabelsAreGrounded) {
  const auto generated =
      sim::GenerateScene(sim::InternalLikeProfile(), "prop", GetParam());
  for (const Frame& frame : generated.scene.frames()) {
    for (const Observation& obs : frame.observations) {
      if (obs.source != ObservationSource::kHuman) continue;
      double best_iou = 0.0;
      for (const sim::GtObject& object : generated.ground_truth.objects) {
        best_iou = std::max(
            best_iou, geom::BevIou(obs.box, object.BoxAt(frame.index)));
      }
      EXPECT_GT(best_iou, 0.3)
          << "human label " << obs.id << " at frame " << frame.index;
    }
  }
}

// ---- Precision/recall bounds. ----

TEST_P(SeededPropertyTest, MetricBounds) {
  const sim::SimProfile profile = sim::LyftLikeProfile();
  Fixy fixy;
  {
    const auto training =
        sim::GenerateDataset(profile, "prop_train", 2, GetParam());
    ASSERT_TRUE(fixy.Learn(training.dataset).ok());
  }
  const auto generated = sim::GenerateScene(profile, "prop", GetParam() + 3);
  const auto ranked = fixy.Find(generated.scene, "missing-tracks").value();
  const auto claimable = eval::ClaimableErrors(
      generated.ledger, ProposalKind::kMissingTrack, generated.scene.name());
  for (size_t k : {1u, 5u, 10u, 100u}) {
    const auto p = eval::PrecisionAtK(ranked, claimable, k);
    EXPECT_GE(p.precision, 0.0);
    EXPECT_LE(p.precision, 1.0);
    EXPECT_LE(p.hits, p.considered);
    EXPECT_LE(p.considered, std::min(k, ranked.size()));
  }
  const auto r = eval::RecallOf(ranked, claimable);
  EXPECT_GE(r.recall, 0.0);
  EXPECT_LE(r.recall, 1.0);
  EXPECT_LE(r.found, r.total);
  // Recall of the full list upper-bounds recall of any prefix.
  const auto r_top =
      eval::RecallOf(std::vector<ErrorProposal>(
                         ranked.begin(),
                         ranked.begin() +
                             std::min<size_t>(5, ranked.size())),
                     claimable);
  EXPECT_LE(r_top.found, r.found);
}

// ---- IoU agrees with Monte Carlo estimation. ----

TEST_P(SeededPropertyTest, IouMatchesMonteCarlo) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 5; ++trial) {
    const geom::Box3d a({rng.Uniform(-2, 2), rng.Uniform(-2, 2), 1.0},
                        rng.Uniform(1, 5), rng.Uniform(1, 3), 2.0,
                        rng.Uniform(0, 2 * M_PI));
    const geom::Box3d b({rng.Uniform(-2, 2), rng.Uniform(-2, 2), 1.0},
                        rng.Uniform(1, 5), rng.Uniform(1, 3), 2.0,
                        rng.Uniform(0, 2 * M_PI));
    // Monte Carlo estimate over the bounding region.
    const int n = 40000;
    int in_a = 0;
    int in_b = 0;
    int in_both = 0;
    for (int i = 0; i < n; ++i) {
      const geom::Vec2 p{rng.Uniform(-8, 8), rng.Uniform(-8, 8)};
      const bool hit_a = a.BevContains(p);
      const bool hit_b = b.BevContains(p);
      if (hit_a) ++in_a;
      if (hit_b) ++in_b;
      if (hit_a && hit_b) ++in_both;
    }
    if (in_a + in_b - in_both == 0) continue;
    const double mc_iou = static_cast<double>(in_both) /
                          static_cast<double>(in_a + in_b - in_both);
    EXPECT_NEAR(geom::BevIou(a, b), mc_iou, 0.05);
  }
}

// ---- Error-rate monotonicity: more injected errors at higher rates. ----

TEST(SimMonotonicityTest, MissingTrackRateScalesErrorCount) {
  auto count_errors = [](double rate) {
    sim::SimProfile profile = sim::LyftLikeProfile();
    profile.labeler.missing_track_rate = rate;
    profile.labeler.short_visibility_miss_rate = rate;
    size_t count = 0;
    for (int i = 0; i < 6; ++i) {
      const auto generated = sim::GenerateScene(
          profile, "mono_" + std::to_string(i), 1234);
      count +=
          generated.ledger.CountByType(sim::GtErrorType::kMissingTrack);
    }
    return count;
  };
  const size_t low = count_errors(0.02);
  const size_t mid = count_errors(0.2);
  const size_t high = count_errors(0.6);
  EXPECT_LT(low, mid);
  EXPECT_LT(mid, high);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededPropertyTest,
                         ::testing::Values(101, 202, 303, 404));

}  // namespace
}  // namespace fixy
