// Tests for src/eval/audit: the auditor loop that verifies ranked
// proposals and patches the label set.
#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/ranker.h"
#include "eval/audit.h"
#include "eval/metrics.h"
#include "sim/generate.h"

namespace fixy::eval {
namespace {

class AuditTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    profile_ = new sim::SimProfile(sim::LyftLikeProfile());
    fixy_ = new Fixy();
    const auto training = sim::GenerateDataset(*profile_, "train", 4, 321);
    ASSERT_TRUE(fixy_->Learn(training.dataset).ok());
  }
  static void TearDownTestSuite() {
    delete fixy_;
    delete profile_;
    fixy_ = nullptr;
    profile_ = nullptr;
  }

  static sim::SimProfile* profile_;
  static Fixy* fixy_;
};

sim::SimProfile* AuditTest::profile_ = nullptr;
Fixy* AuditTest::fixy_ = nullptr;

TEST_F(AuditTest, VerifiedProposalsPatchTheScene) {
  const auto generated = sim::GenerateScene(*profile_, "audit_scene", 11);
  const auto ranked = fixy_->Find(generated.scene, "missing-tracks").value();
  const auto result =
      AuditScene(generated.scene, ranked, generated.ledger);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_LE(result->verified, result->reviewed);
  EXPECT_LE(result->errors_fixed, result->verified);
  // Every added observation is an auditor label.
  EXPECT_EQ(result->corrected_scene.CountBySource(ObservationSource::kAuditor),
            result->observations_added);
  // Originals are untouched.
  EXPECT_EQ(result->corrected_scene.CountBySource(ObservationSource::kHuman),
            generated.scene.CountBySource(ObservationSource::kHuman));
  EXPECT_EQ(result->corrected_scene.CountBySource(ObservationSource::kModel),
            generated.scene.CountBySource(ObservationSource::kModel));
  EXPECT_TRUE(result->corrected_scene.Validate().ok());
}

TEST_F(AuditTest, YieldMatchesPrecisionAtK) {
  const auto generated = sim::GenerateScene(*profile_, "audit_scene", 12);
  const auto ranked = fixy_->Find(generated.scene, "missing-tracks").value();
  const auto claimable = ClaimableErrors(
      generated.ledger, ProposalKind::kMissingTrack, generated.scene.name());
  const auto result = AuditScene(generated.scene, ranked, generated.ledger);
  ASSERT_TRUE(result.ok());
  const PrecisionResult precision = PrecisionAtK(ranked, claimable, 10);
  EXPECT_EQ(result->verified, precision.hits);
  EXPECT_DOUBLE_EQ(result->Yield(), precision.precision);
}

TEST_F(AuditTest, FixedErrorsAreFoundNoMoreAfterCorrection) {
  // After patching, the corrected scene's auditor labels make the fixed
  // tracks human/auditor-covered, so they stop being missing-track
  // candidates.
  const auto generated = sim::GenerateScene(*profile_, "audit_scene", 13);
  const auto ranked = fixy_->Find(generated.scene, "missing-tracks").value();
  AuditOptions options;
  options.top_k = 10;
  const auto result =
      AuditScene(generated.scene, ranked, generated.ledger, options);
  ASSERT_TRUE(result.ok());
  if (result->errors_fixed == 0) GTEST_SKIP() << "no errors fixed";

  const auto ranked_after =
      fixy_->Find(result->corrected_scene, "missing-tracks").value();
  // Note: auditor labels count as non-model sources, so fixed tracks are
  // excluded from the candidate pool.
  size_t still_flagged = 0;
  const auto claimable = ClaimableErrors(
      generated.ledger, ProposalKind::kMissingTrack, generated.scene.name());
  for (const ErrorProposal& p : TopK(ranked_after, options.top_k)) {
    for (const sim::GtError* error : claimable) {
      if (ProposalMatchesError(p, *error)) {
        ++still_flagged;
        break;
      }
    }
  }
  const PrecisionResult before =
      PrecisionAtK(ranked, claimable, options.top_k);
  EXPECT_LT(still_flagged, before.hits);
}

TEST_F(AuditTest, EmptyProposalListIsANoOp) {
  const auto generated = sim::GenerateScene(*profile_, "audit_scene", 14);
  const auto result = AuditScene(generated.scene, {}, generated.ledger);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->reviewed, 0u);
  EXPECT_EQ(result->observations_added, 0u);
  EXPECT_DOUBLE_EQ(result->Yield(), 0.0);
  EXPECT_EQ(result->corrected_scene.TotalObservations(),
            generated.scene.TotalObservations());
}

TEST_F(AuditTest, RejectsInvalidScene) {
  Scene broken("broken", 10.0);
  Frame frame;
  frame.index = 3;  // wrong index
  broken.AddFrame(std::move(frame));
  EXPECT_FALSE(AuditScene(broken, {}, sim::GtLedger{}).ok());
}

TEST_F(AuditTest, TopKLimitsReview) {
  const auto generated = sim::GenerateScene(*profile_, "audit_scene", 15);
  const auto ranked = fixy_->Find(generated.scene, "missing-tracks").value();
  if (ranked.size() < 3) GTEST_SKIP() << "not enough proposals";
  AuditOptions options;
  options.top_k = 2;
  const auto result =
      AuditScene(generated.scene, ranked, generated.ledger, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->reviewed, 2u);
}

}  // namespace
}  // namespace fixy::eval
