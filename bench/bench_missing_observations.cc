// Regenerates the Section 8.3 case study: finding missing human labels
// *within* otherwise-labeled tracks.
//
// Paper: "Within the datasets, we were only able to find a single example
// of such a missing observation. For this example, Fixy ranked the missing
// observation at the top." Low-probability bundles (volume-inconsistent
// overlaps, Figure 7) are correctly ranked low.
//
// The injector reproduces the rarity (missing_obs_rate ~1e-3); this bench
// reports the rank of every injected missing observation among Fixy's
// ranked bundles, per scene.
#include <cstdio>

#include "core/ranker.h"
#include "eval/metrics.h"
#include "eval/report.h"
#include "workloads.h"

namespace fixy::bench {
namespace {

void Run() {
  PrintHeader("Section 8.3: finding missing observations within tracks");

  const TrainedPipeline lyft =
      Train(sim::LyftLikeProfile(), kLyftTrainingScenes);

  eval::Table table(
      {"Scene", "Injected missing obs", "Rank of each (of candidates)"});
  int total_errors = 0;
  int found_at_top = 0;
  int found_in_top5 = 0;
  for (int i = 0; i < kLyftValidationScenes; ++i) {
    const auto generated = sim::GenerateScene(
        lyft.profile, "lyft_val_" + std::to_string(i), kValidationSeed);
    const auto errors = eval::ClaimableErrors(
        generated.ledger, ProposalKind::kMissingObservation,
        generated.scene.name());
    if (errors.empty()) continue;
    const auto proposals =
        lyft.fixy.Find(generated.scene, "missing-obs").value();
    std::string ranks;
    for (const sim::GtError* error : errors) {
      ++total_errors;
      int rank = -1;
      for (size_t r = 0; r < proposals.size(); ++r) {
        if (eval::ProposalMatchesError(proposals[r], *error)) {
          rank = static_cast<int>(r) + 1;
          break;
        }
      }
      if (rank == 1) ++found_at_top;
      if (rank >= 1 && rank <= 5) ++found_in_top5;
      if (!ranks.empty()) ranks += ", ";
      ranks += rank < 0 ? "not found" : "#" + std::to_string(rank);
    }
    table.AddRow({generated.scene.name(), std::to_string(errors.size()),
                  ranks + " of " + std::to_string(proposals.size())});
  }
  std::printf("%s", table.ToString().c_str());
  std::printf(
      "\nTotal injected missing observations: %d; ranked #1: %d; in top 5: "
      "%d\n",
      total_errors, found_at_top, found_in_top5);
  std::printf(
      "Paper: a single such error existed across both datasets and Fixy\n"
      "ranked it at the top. Shape to reproduce: these rare errors rank at\n"
      "or near #1 among the candidate bundles of their scene.\n");
}

}  // namespace
}  // namespace fixy::bench

int main() {
  fixy::bench::Run();
  return 0;
}
