// Integration tests: the full pipeline (simulate -> serialize -> learn ->
// rank -> evaluate) across modules, plus end-to-end determinism.
#include <gtest/gtest.h>

#include <filesystem>

#include "baselines/model_assertions.h"
#include "baselines/uncertainty.h"
#include "core/engine.h"
#include "core/ranker.h"
#include "eval/metrics.h"
#include "io/scene_io.h"
#include "sim/generate.h"

namespace fixy {
namespace {

class PipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    profile_ = new sim::SimProfile(sim::LyftLikeProfile());
    training_ = new sim::GeneratedDataset(
        sim::GenerateDataset(*profile_, "train", 6, 2024));
    fixy_ = new Fixy();
    ASSERT_TRUE(fixy_->Learn(training_->dataset).ok());
  }

  static void TearDownTestSuite() {
    delete fixy_;
    delete training_;
    delete profile_;
    fixy_ = nullptr;
    training_ = nullptr;
    profile_ = nullptr;
  }

  static sim::SimProfile* profile_;
  static sim::GeneratedDataset* training_;
  static Fixy* fixy_;
};

sim::SimProfile* PipelineTest::profile_ = nullptr;
sim::GeneratedDataset* PipelineTest::training_ = nullptr;
Fixy* PipelineTest::fixy_ = nullptr;

TEST_F(PipelineTest, MissingTracksRankAboveNoiseOnAverage) {
  // Across several validation scenes, Fixy's top-5 precision for missing
  // tracks must beat the random-ordering baseline's.
  double fixy_hits = 0;
  double rand_hits = 0;
  double scenes_with_errors = 0;
  for (int i = 0; i < 6; ++i) {
    const auto generated =
        sim::GenerateScene(*profile_, "val_" + std::to_string(i), 500 + i);
    const auto claimable = eval::ClaimableErrors(
        generated.ledger, ProposalKind::kMissingTrack, generated.scene.name());
    if (claimable.empty()) continue;
    scenes_with_errors += 1;
    const auto fixy_proposals = fixy_->Find(generated.scene, "missing-tracks");
    ASSERT_TRUE(fixy_proposals.ok());
    fixy_hits +=
        eval::PrecisionAtK(*fixy_proposals, claimable, 5).precision;
    const auto rand_proposals = baselines::ConsistencyAssertion(
        generated.scene, baselines::MaOrdering::kRandom, 99 + i);
    ASSERT_TRUE(rand_proposals.ok());
    rand_hits +=
        eval::PrecisionAtK(*rand_proposals, claimable, 5).precision;
  }
  ASSERT_GT(scenes_with_errors, 0);
  EXPECT_GT(fixy_hits, rand_hits);
}

TEST_F(PipelineTest, ModelErrorsBeatUncertaintySampling) {
  double fixy_precision = 0;
  double us_precision = 0;
  int scenes = 0;
  for (int i = 0; i < 4; ++i) {
    const auto generated =
        sim::GenerateScene(*profile_, "me_" + std::to_string(i), 900 + i);
    const auto claimable = eval::ClaimableErrors(
        generated.ledger, ProposalKind::kModelError, generated.scene.name());
    if (claimable.empty()) continue;
    ++scenes;
    const auto fixy_proposals = fixy_->Find(generated.scene, "model-errors");
    ASSERT_TRUE(fixy_proposals.ok());
    fixy_precision +=
        eval::PrecisionAtK(*fixy_proposals, claimable, 10).precision;
    const auto us_proposals =
        baselines::UncertaintySampling(generated.scene);
    ASSERT_TRUE(us_proposals.ok());
    us_precision +=
        eval::PrecisionAtK(*us_proposals, claimable, 10).precision;
  }
  ASSERT_GT(scenes, 0);
  EXPECT_GT(fixy_precision, us_precision);
}

TEST_F(PipelineTest, SerializationRoundTripPreservesRanking) {
  const auto generated = sim::GenerateScene(*profile_, "roundtrip", 777);
  const auto direct = fixy_->Find(generated.scene, "missing-tracks");
  ASSERT_TRUE(direct.ok());

  const std::string dir =
      (std::filesystem::temp_directory_path() / "fixy_integration").string();
  std::filesystem::create_directories(dir);
  ASSERT_TRUE(io::SaveScene(generated.scene, dir + "/scene.json").ok());
  const auto loaded = io::LoadScene(dir + "/scene.json");
  ASSERT_TRUE(loaded.ok());
  const auto via_disk = fixy_->Find(*loaded, "missing-tracks");
  ASSERT_TRUE(via_disk.ok());

  ASSERT_EQ(direct->size(), via_disk->size());
  for (size_t i = 0; i < direct->size(); ++i) {
    EXPECT_EQ((*direct)[i].track_id, (*via_disk)[i].track_id);
    EXPECT_NEAR((*direct)[i].score, (*via_disk)[i].score, 1e-9);
  }
  std::filesystem::remove_all(dir);
}

TEST_F(PipelineTest, EndToEndDeterminism) {
  const auto generated = sim::GenerateScene(*profile_, "det", 31337);
  const auto a = fixy_->Find(generated.scene, "missing-tracks");
  const auto b = fixy_->Find(generated.scene, "missing-tracks");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->size(), b->size());
  for (size_t i = 0; i < a->size(); ++i) {
    EXPECT_EQ((*a)[i].track_id, (*b)[i].track_id);
    EXPECT_DOUBLE_EQ((*a)[i].score, (*b)[i].score);
  }
}

TEST_F(PipelineTest, LearningTwiceGivesSameDistributions) {
  Fixy again;
  ASSERT_TRUE(again.Learn(training_->dataset).ok());
  const auto generated = sim::GenerateScene(*profile_, "twice", 4242);
  const auto a = fixy_->Find(generated.scene, "missing-tracks");
  const auto b = again.Find(generated.scene, "missing-tracks");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->size(), b->size());
  for (size_t i = 0; i < a->size(); ++i) {
    EXPECT_DOUBLE_EQ((*a)[i].score, (*b)[i].score);
  }
}

TEST_F(PipelineTest, InternalProfilePipelineAlsoWorks) {
  const auto internal_profile = sim::InternalLikeProfile();
  const auto internal_training =
      sim::GenerateDataset(internal_profile, "itrain", 4, 88);
  Fixy fixy;
  ASSERT_TRUE(fixy.Learn(internal_training.dataset).ok());
  sim::SceneGenOptions options;
  options.exact_missing_tracks = 6;
  const auto generated =
      sim::GenerateScene(internal_profile, "ival", 99, options);
  const auto proposals = fixy.Find(generated.scene, "missing-tracks");
  ASSERT_TRUE(proposals.ok());
  const auto claimable = eval::ClaimableErrors(
      generated.ledger, ProposalKind::kMissingTrack, generated.scene.name());
  EXPECT_EQ(claimable.size(), 6u);
  const auto recall = eval::RecallOf(*proposals, claimable);
  // Most injected missing tracks must be recoverable from the full
  // proposal list (detector recall bounds this below 100%).
  EXPECT_GE(recall.recall, 0.5);
}

TEST_F(PipelineTest, ProposalsCarryConsistentMetadata) {
  const auto generated = sim::GenerateScene(*profile_, "meta", 246);
  const auto proposals = fixy_->Find(generated.scene, "missing-tracks");
  ASSERT_TRUE(proposals.ok());
  for (const ErrorProposal& p : *proposals) {
    EXPECT_EQ(p.scene_name, generated.scene.name());
    EXPECT_LE(p.first_frame, p.frame_index);
    EXPECT_LE(p.frame_index, p.last_frame);
    EXPECT_TRUE(p.box.IsValid());
    EXPECT_GE(p.model_confidence, 0.0);
    EXPECT_LE(p.model_confidence, 1.0);
  }
}

TEST_F(PipelineTest, MaExclusionProtocolReducesClaimablePool) {
  // Section 8.4 protocol: errors found by appear/flicker/multibox are
  // excluded before evaluating Fixy.
  const auto generated = sim::GenerateScene(*profile_, "excl", 135);
  auto claimable = eval::ClaimableErrors(
      generated.ledger, ProposalKind::kModelError, generated.scene.name());
  const size_t before = claimable.size();
  std::vector<ErrorProposal> ma_found;
  for (const auto& result :
       {baselines::AppearAssertion(generated.scene),
        baselines::FlickerAssertion(generated.scene),
        baselines::MultiboxAssertion(generated.scene)}) {
    ASSERT_TRUE(result.ok());
    ma_found.insert(ma_found.end(), result->begin(), result->end());
  }
  std::vector<const sim::GtError*> remaining;
  for (const sim::GtError* error : claimable) {
    if (!eval::AnyProposalMatches(ma_found, *error)) {
      remaining.push_back(error);
    }
  }
  EXPECT_LE(remaining.size(), before);
}

}  // namespace
}  // namespace fixy
