// Tests for src/eval: proposal/error matching, precision@k, recall, and
// table rendering.
#include <gtest/gtest.h>

#include "eval/matching.h"
#include "eval/metrics.h"
#include "eval/report.h"

namespace fixy::eval {
namespace {

geom::Box3d CarBoxAt(double x, double y) {
  return geom::Box3d({x, y, 0.85}, 4.5, 1.9, 1.7, 0.0);
}

sim::GtError MakeError(sim::GtErrorType type, const std::string& scene,
                       int first, int last, double x, double y) {
  sim::GtError error;
  error.type = type;
  error.scene_name = scene;
  error.object_class = ObjectClass::kCar;
  error.first_frame = first;
  error.last_frame = last;
  for (int f = first; f <= last; ++f) {
    error.boxes[f] = CarBoxAt(x + 0.5 * (f - first), y);
  }
  return error;
}

ErrorProposal MakeProposal(ProposalKind kind, const std::string& scene,
                           int first, int last, int rep_frame, double x,
                           double y, double score = 1.0) {
  ErrorProposal p;
  p.kind = kind;
  p.scene_name = scene;
  p.first_frame = first;
  p.last_frame = last;
  p.frame_index = rep_frame;
  p.box = CarBoxAt(x, y);
  p.object_class = ObjectClass::kCar;
  p.score = score;
  return p;
}

// --------------------------------------------------------------- Matching

TEST(MatchingTest, KindTypeCompatibility) {
  using sim::GtErrorType;
  EXPECT_TRUE(KindMatchesType(ProposalKind::kMissingTrack,
                              GtErrorType::kMissingTrack));
  EXPECT_FALSE(KindMatchesType(ProposalKind::kMissingTrack,
                               GtErrorType::kGhostTrack));
  EXPECT_TRUE(KindMatchesType(ProposalKind::kMissingObservation,
                              GtErrorType::kMissingObservation));
  EXPECT_TRUE(
      KindMatchesType(ProposalKind::kModelError, GtErrorType::kGhostTrack));
  EXPECT_TRUE(KindMatchesType(ProposalKind::kModelError,
                              GtErrorType::kClassificationError));
  EXPECT_TRUE(KindMatchesType(ProposalKind::kModelError,
                              GtErrorType::kLocalizationError));
  EXPECT_FALSE(KindMatchesType(ProposalKind::kModelError,
                               GtErrorType::kMissingTrack));
}

TEST(MatchingTest, ExactOverlapMatches) {
  const auto error =
      MakeError(sim::GtErrorType::kMissingTrack, "s", 2, 8, 10, 0);
  const auto proposal =
      MakeProposal(ProposalKind::kMissingTrack, "s", 2, 8, 4, 11.0, 0);
  EXPECT_TRUE(ProposalMatchesError(proposal, error));
}

TEST(MatchingTest, DifferentSceneRejected) {
  const auto error =
      MakeError(sim::GtErrorType::kMissingTrack, "s1", 2, 8, 10, 0);
  const auto proposal =
      MakeProposal(ProposalKind::kMissingTrack, "s2", 2, 8, 4, 11.0, 0);
  EXPECT_FALSE(ProposalMatchesError(proposal, error));
}

TEST(MatchingTest, DisjointFramesRejected) {
  const auto error =
      MakeError(sim::GtErrorType::kMissingTrack, "s", 0, 3, 10, 0);
  const auto proposal =
      MakeProposal(ProposalKind::kMissingTrack, "s", 20, 25, 22, 10, 0);
  EXPECT_FALSE(ProposalMatchesError(proposal, error));
}

TEST(MatchingTest, GeometricMismatchRejected) {
  const auto error =
      MakeError(sim::GtErrorType::kMissingTrack, "s", 0, 8, 10, 0);
  const auto proposal =
      MakeProposal(ProposalKind::kMissingTrack, "s", 0, 8, 4, 50.0, 30.0);
  EXPECT_FALSE(ProposalMatchesError(proposal, error));
}

TEST(MatchingTest, FrameSlackAllowsNearMiss) {
  const auto error =
      MakeError(sim::GtErrorType::kMissingTrack, "s", 5, 10, 10, 0);
  // Proposal span ends 2 frames before the error starts; within slack 3.
  const auto near =
      MakeProposal(ProposalKind::kMissingTrack, "s", 0, 3, 3, 10.0, 0);
  EXPECT_TRUE(ProposalMatchesError(near, error));
  // Ends 4 frames before it: beyond the slack.
  const auto far =
      MakeProposal(ProposalKind::kMissingTrack, "s", 0, 1, 1, 10.0, 0);
  EXPECT_FALSE(ProposalMatchesError(far, error));
}

TEST(MatchingTest, EmptyErrorBoxesRejected) {
  sim::GtError error;
  error.type = sim::GtErrorType::kMissingTrack;
  error.scene_name = "s";
  const auto proposal =
      MakeProposal(ProposalKind::kMissingTrack, "s", 0, 3, 1, 10, 0);
  EXPECT_FALSE(ProposalMatchesError(proposal, error));
}

TEST(MatchingTest, IouThresholdRespected) {
  const auto error =
      MakeError(sim::GtErrorType::kMissingTrack, "s", 0, 5, 10, 0);
  // Error box at frame 2 is at x=11 (4.5 m long): a proposal at x=13
  // overlaps it with IoU ~0.38, one at x=15 with IoU ~0.06, below 0.1.
  const auto overlapping =
      MakeProposal(ProposalKind::kMissingTrack, "s", 0, 5, 2, 13.0, 0);
  EXPECT_TRUE(ProposalMatchesError(overlapping, error));
  const auto grazing =
      MakeProposal(ProposalKind::kMissingTrack, "s", 0, 5, 2, 15.0, 0);
  EXPECT_FALSE(ProposalMatchesError(grazing, error));
}

// ---------------------------------------------------------------- Metrics

TEST(MetricsTest, PrecisionAtKCountsHits) {
  const auto e1 = MakeError(sim::GtErrorType::kMissingTrack, "s", 0, 5, 10, 0);
  const auto e2 =
      MakeError(sim::GtErrorType::kMissingTrack, "s", 0, 5, 40, 10);
  std::vector<ErrorProposal> ranked = {
      MakeProposal(ProposalKind::kMissingTrack, "s", 0, 5, 2, 11, 0, 0.9),
      MakeProposal(ProposalKind::kMissingTrack, "s", 0, 5, 2, 80, 0, 0.8),
      MakeProposal(ProposalKind::kMissingTrack, "s", 0, 5, 2, 41, 10, 0.7),
  };
  const std::vector<const sim::GtError*> errors = {&e1, &e2};
  const PrecisionResult result = PrecisionAtK(ranked, errors, 3);
  EXPECT_EQ(result.hits, 2u);
  EXPECT_EQ(result.considered, 3u);
  EXPECT_NEAR(result.precision, 2.0 / 3.0, 1e-12);
}

TEST(MetricsTest, PrecisionUsesAvailableWhenFewerThanK) {
  const auto e1 = MakeError(sim::GtErrorType::kMissingTrack, "s", 0, 5, 10, 0);
  std::vector<ErrorProposal> ranked = {
      MakeProposal(ProposalKind::kMissingTrack, "s", 0, 5, 2, 11, 0)};
  const PrecisionResult result = PrecisionAtK(ranked, {&e1}, 10);
  EXPECT_EQ(result.considered, 1u);
  EXPECT_DOUBLE_EQ(result.precision, 1.0);
}

TEST(MetricsTest, AuditProtocolCountsDuplicatesAsHits) {
  // Both proposals flag the same real missing object; an auditor
  // verifies each as a real error.
  const auto e1 = MakeError(sim::GtErrorType::kMissingTrack, "s", 0, 5, 10, 0);
  std::vector<ErrorProposal> ranked = {
      MakeProposal(ProposalKind::kMissingTrack, "s", 0, 5, 2, 11, 0, 0.9),
      MakeProposal(ProposalKind::kMissingTrack, "s", 0, 5, 3, 11.2, 0, 0.8),
  };
  const PrecisionResult result = PrecisionAtK(ranked, {&e1}, 2);
  EXPECT_EQ(result.hits, 2u);
  EXPECT_DOUBLE_EQ(result.precision, 1.0);
}

TEST(MetricsTest, EmptyInputs) {
  const PrecisionResult none = PrecisionAtK({}, {}, 10);
  EXPECT_EQ(none.considered, 0u);
  EXPECT_DOUBLE_EQ(none.precision, 0.0);
  const RecallResult recall = RecallOf({}, {});
  EXPECT_EQ(recall.total, 0u);
  EXPECT_DOUBLE_EQ(recall.recall, 0.0);
}

TEST(MetricsTest, RecallCountsFoundErrors) {
  const auto e1 = MakeError(sim::GtErrorType::kMissingTrack, "s", 0, 5, 10, 0);
  const auto e2 =
      MakeError(sim::GtErrorType::kMissingTrack, "s", 0, 5, 40, 10);
  const auto e3 =
      MakeError(sim::GtErrorType::kMissingTrack, "s", 0, 5, 70, -10);
  std::vector<ErrorProposal> proposals = {
      MakeProposal(ProposalKind::kMissingTrack, "s", 0, 5, 2, 11, 0)};
  const RecallResult result = RecallOf(proposals, {&e1, &e2, &e3});
  EXPECT_EQ(result.found, 1u);
  EXPECT_EQ(result.total, 3u);
  EXPECT_NEAR(result.recall, 1.0 / 3.0, 1e-12);
}

TEST(MetricsTest, ClaimableErrorsFiltersByKindAndScene) {
  sim::GtLedger ledger;
  ledger.errors.push_back(
      MakeError(sim::GtErrorType::kMissingTrack, "a", 0, 5, 10, 0));
  ledger.errors.push_back(
      MakeError(sim::GtErrorType::kGhostTrack, "a", 0, 5, 20, 0));
  ledger.errors.push_back(
      MakeError(sim::GtErrorType::kMissingTrack, "b", 0, 5, 30, 0));
  EXPECT_EQ(ClaimableErrors(ledger, ProposalKind::kMissingTrack).size(), 2u);
  EXPECT_EQ(ClaimableErrors(ledger, ProposalKind::kMissingTrack, "a").size(),
            1u);
  EXPECT_EQ(ClaimableErrors(ledger, ProposalKind::kModelError, "a").size(),
            1u);
}

TEST(MetricsTest, AnyProposalMatches) {
  const auto e1 = MakeError(sim::GtErrorType::kMissingTrack, "s", 0, 5, 10, 0);
  std::vector<ErrorProposal> proposals = {
      MakeProposal(ProposalKind::kMissingTrack, "s", 0, 5, 2, 80, 0),
      MakeProposal(ProposalKind::kMissingTrack, "s", 0, 5, 2, 11, 0)};
  EXPECT_TRUE(AnyProposalMatches(proposals, e1));
  EXPECT_FALSE(AnyProposalMatches({proposals[0]}, e1));
}

// ----------------------------------------------------------------- Report

TEST(ReportTest, TableRendersAlignedColumns) {
  Table table({"Method", "P@10"});
  table.AddRow({"FIXY", "69%"});
  table.AddRow({"Ad-hoc MA (rand)", "32%"});
  const std::string s = table.ToString();
  EXPECT_NE(s.find("| Method"), std::string::npos);
  EXPECT_NE(s.find("| FIXY"), std::string::npos);
  EXPECT_NE(s.find("| Ad-hoc MA (rand) |"), std::string::npos);
  // Header rule present.
  EXPECT_NE(s.find("|---"), std::string::npos);
}

TEST(ReportTest, ShortRowsArePadded) {
  Table table({"a", "b", "c"});
  table.AddRow({"1"});
  const std::string s = table.ToString();
  EXPECT_NE(s.find("| 1 |"), std::string::npos);
}

TEST(ReportTest, PercentFormatting) {
  EXPECT_EQ(Percent(0.69), "69%");
  EXPECT_EQ(Percent(1.0), "100%");
  EXPECT_EQ(Percent(0.0), "0%");
  EXPECT_EQ(Percent(0.666), "67%");
}

}  // namespace
}  // namespace fixy::eval
