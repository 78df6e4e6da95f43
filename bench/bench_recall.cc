// Regenerates the Section 8.2 recall results:
//
//   (1) "To assess the recall of Fixy, we exhaustively audited a 15 second
//       scene from our internal dataset. It contained 24 missing tracks.
//       In this scene, Fixy achieved a recall of 75%, finding 18 of the
//       missing tracks in the top 10 ranked errors per-class."
//
//   (2) "LOA found errors in 100% of the [Lyft] scenes with errors in the
//       top 10 ranked errors."
#include <cstdio>

#include "core/ranker.h"
#include "eval/metrics.h"
#include "eval/report.h"
#include "workloads.h"

namespace fixy::bench {
namespace {

void Run() {
  PrintHeader("Section 8.2: recall of missing-track finding");

  // --- (1) The exhaustively audited internal scene. ---
  const TrainedPipeline internal =
      Train(sim::InternalLikeProfile(), kInternalTrainingScenes);
  const sim::GeneratedScene audit = GenerateAuditScene();
  const auto claimable = eval::ClaimableErrors(
      audit.ledger, ProposalKind::kMissingTrack, audit.scene.name());

  const auto proposals =
      internal.fixy.Find(audit.scene, "missing-tracks").value();
  const auto top10_per_class = TopKPerClass(proposals, 10);
  const eval::RecallResult recall =
      eval::RecallOf(top10_per_class, claimable);

  eval::Table table({"Metric", "Measured", "Paper"});
  table.AddRow({"Missing tracks in audited scene",
                std::to_string(claimable.size()), "24"});
  table.AddRow({"Found in top 10 per class", std::to_string(recall.found),
                "18"});
  table.AddRow({"Recall", eval::Percent(recall.recall), "75%"});

  // --- (2) Scene-level hit rate on the Lyft validation set. ---
  const TrainedPipeline lyft =
      Train(sim::LyftLikeProfile(), kLyftTrainingScenes);
  int scenes_with_errors = 0;
  int scenes_hit_in_top10 = 0;
  for (int i = 0; i < kLyftValidationScenes; ++i) {
    const auto generated = sim::GenerateScene(
        lyft.profile, "lyft_val_" + std::to_string(i), kValidationSeed);
    const auto errors =
        eval::ClaimableErrors(generated.ledger, ProposalKind::kMissingTrack,
                              generated.scene.name());
    if (errors.empty()) continue;
    ++scenes_with_errors;
    const auto scene_proposals =
        lyft.fixy.Find(generated.scene, "missing-tracks").value();
    if (eval::PrecisionAtK(TopK(scene_proposals, 10), errors, 10).hits > 0) {
      ++scenes_hit_in_top10;
    }
  }
  table.AddRow({"Lyft scenes with errors", std::to_string(scenes_with_errors),
                "32 of 46"});
  table.AddRow(
      {"...where top 10 contains a real error",
       eval::Percent(scenes_with_errors > 0
                         ? static_cast<double>(scenes_hit_in_top10) /
                               scenes_with_errors
                         : 0.0),
       "100%"});
  std::printf("%s", table.ToString().c_str());
}

}  // namespace
}  // namespace fixy::bench

int main() {
  fixy::bench::Run();
  return 0;
}
