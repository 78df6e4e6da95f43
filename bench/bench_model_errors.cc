// Regenerates the Section 8.4 experiment: finding novel ML model
// prediction errors that ad-hoc model assertions cannot find.
//
// Protocol (as in the paper):
//   1. Run the appear, flicker, and multibox assertions; any ledger error
//      they catch is excluded.
//   2. Fixy ranks model-only tracks with inverted AOFs; its proposals that
//      re-find MA-caught errors are dropped.
//   3. Precision@10 is measured over 5 Lyft scenes, against the remaining
//      (novel) errors; uncertainty sampling is the comparison baseline.
//
// Paper: Fixy 82% vs uncertainty sampling 42%; Fixy surfaces errors with
// model confidence as high as 95%.
#include <algorithm>
#include <cstdio>

#include "baselines/model_assertions.h"
#include "baselines/uncertainty.h"
#include "core/ranker.h"
#include "eval/metrics.h"
#include "eval/report.h"
#include "workloads.h"

namespace fixy::bench {
namespace {

constexpr int kScenes = 5;  // "over 5 scenes in the Lyft dataset"

// Drops proposals that match any error in `exclude`.
std::vector<ErrorProposal> ExcludeMatching(
    std::vector<ErrorProposal> proposals,
    const std::vector<const sim::GtError*>& exclude) {
  std::vector<ErrorProposal> kept;
  for (ErrorProposal& p : proposals) {
    bool excluded = false;
    for (const sim::GtError* error : exclude) {
      if (eval::ProposalMatchesError(p, *error)) {
        excluded = true;
        break;
      }
    }
    if (!excluded) kept.push_back(std::move(p));
  }
  return kept;
}

void Run() {
  PrintHeader("Section 8.4: finding novel ML model prediction errors");

  const TrainedPipeline lyft =
      Train(sim::LyftLikeProfile(), kLyftTrainingScenes);

  double fixy_precision = 0.0;
  double us_precision = 0.0;
  int scenes_counted = 0;
  double max_hit_confidence = 0.0;
  size_t total_errors = 0;
  size_t ma_caught = 0;

  for (int i = 0; i < kScenes; ++i) {
    const auto generated = sim::GenerateScene(
        lyft.profile, "lyft_me_" + std::to_string(i), kValidationSeed + 1);
    const auto all_errors = eval::ClaimableErrors(
        generated.ledger, ProposalKind::kModelError, generated.scene.name());
    total_errors += all_errors.size();

    // Step 1: errors caught by the ad-hoc assertions are excluded.
    std::vector<ErrorProposal> ma_proposals;
    for (const auto& result :
         {baselines::AppearAssertion(generated.scene),
          baselines::FlickerAssertion(generated.scene),
          baselines::MultiboxAssertion(generated.scene)}) {
      ma_proposals.insert(ma_proposals.end(), result->begin(),
                          result->end());
    }
    std::vector<const sim::GtError*> novel_errors;
    std::vector<const sim::GtError*> caught_errors;
    for (const sim::GtError* error : all_errors) {
      if (eval::AnyProposalMatches(ma_proposals, *error)) {
        caught_errors.push_back(error);
      } else {
        novel_errors.push_back(error);
      }
    }
    ma_caught += caught_errors.size();
    if (novel_errors.empty()) continue;
    ++scenes_counted;

    // Step 2 & 3: Fixy and uncertainty sampling on the novel errors.
    const auto fixy_ranked = ExcludeMatching(
        lyft.fixy.Find(generated.scene, "model-errors").value(), caught_errors);
    const auto us_ranked = ExcludeMatching(
        baselines::UncertaintySampling(generated.scene).value(),
        caught_errors);
    fixy_precision +=
        eval::PrecisionAtK(fixy_ranked, novel_errors, 10).precision;
    us_precision +=
        eval::PrecisionAtK(us_ranked, novel_errors, 10).precision;

    // Highest-confidence novel error Fixy surfaces in its top 10.
    for (const ErrorProposal& p : TopK(fixy_ranked, 10)) {
      for (const sim::GtError* error : novel_errors) {
        if (eval::ProposalMatchesError(p, *error)) {
          max_hit_confidence = std::max(max_hit_confidence,
                                        p.model_confidence);
        }
      }
    }
  }
  if (scenes_counted > 0) {
    fixy_precision /= scenes_counted;
    us_precision /= scenes_counted;
  }

  eval::Table table({"Method", "Precision@10", "Paper"});
  table.AddRow({"FIXY (after MA exclusion)", eval::Percent(fixy_precision),
                "82%"});
  table.AddRow({"Uncertainty sampling", eval::Percent(us_precision), "42%"});
  std::printf("%s", table.ToString().c_str());
  std::printf("\nModel errors in the %d scenes: %zu (caught by ad-hoc MAs "
              "and excluded: %zu)\n",
              kScenes, total_errors, ma_caught);
  std::printf("Highest confidence of a Fixy-found novel error: %.0f%% "
              "(paper: up to 95%%, beyond uncertainty sampling's reach)\n",
              100.0 * max_hit_confidence);
}

}  // namespace
}  // namespace fixy::bench

int main() {
  fixy::bench::Run();
  return 0;
}
