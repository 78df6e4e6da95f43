// Regenerates Table 3 of the paper: precision at top 10/5/1 for finding
// tracks missed by human labelers, comparing Fixy against the ad-hoc
// model-assertion baseline (consistency assertion) with random and
// confidence severity orderings, on a Lyft-like and an Internal-like
// dataset.
//
// Paper reference (Table 3):
//   FIXY             Lyft      69% / 70% / 67%
//   Ad-hoc MA (rand) Lyft      32% / 30% / 24%
//   Ad-hoc MA (conf) Lyft      39% / 40% / 39%
//   FIXY             Internal  76% / 100% / 100%
//   Ad-hoc MA (rand) Internal  49% / 64% / 66%
//   Ad-hoc MA (conf) Internal  71% / 86% / 66%
//
// Absolute numbers depend on the substrate; the shape to reproduce is:
// Fixy wins everywhere (up to ~2x over MA(rand) on Lyft), MA(conf) sits
// between, and the audited Internal data is easier for everyone.
#include <cstdio>
#include <functional>
#include <numeric>
#include <vector>

#include "baselines/model_assertions.h"
#include "core/ranker.h"
#include "eval/metrics.h"
#include "eval/report.h"
#include "workloads.h"

namespace fixy::bench {
namespace {

struct PrecisionRow {
  double at10 = 0.0;
  double at5 = 0.0;
  double at1 = 0.0;
  int scenes = 0;
};

using ProposalFn =
    std::function<std::vector<ErrorProposal>(const Scene& scene, int index)>;

// Averages precision@{10,5,1} over every scene that contains at least one
// claimable missing-track error (the paper measures "across every scene
// ... that we discovered errors").
PrecisionRow EvaluateMethod(const std::vector<sim::GeneratedScene>& scenes,
                            const ProposalFn& propose) {
  PrecisionRow row;
  for (size_t i = 0; i < scenes.size(); ++i) {
    const sim::GeneratedScene& generated = scenes[i];
    const auto claimable =
        eval::ClaimableErrors(generated.ledger, ProposalKind::kMissingTrack,
                              generated.scene.name());
    if (claimable.empty()) continue;
    const std::vector<ErrorProposal> proposals =
        propose(generated.scene, static_cast<int>(i));
    row.at10 += eval::PrecisionAtK(proposals, claimable, 10).precision;
    row.at5 += eval::PrecisionAtK(proposals, claimable, 5).precision;
    row.at1 += eval::PrecisionAtK(proposals, claimable, 1).precision;
    ++row.scenes;
  }
  if (row.scenes > 0) {
    row.at10 /= row.scenes;
    row.at5 /= row.scenes;
    row.at1 /= row.scenes;
  }
  return row;
}

void AddRows(eval::Table* table, const std::string& dataset,
             const std::vector<sim::GeneratedScene>& scenes,
             const TrainedPipeline& pipeline, const char* paper_fixy,
             const char* paper_rand, const char* paper_conf) {
  const PrecisionRow fixy_row =
      EvaluateMethod(scenes, [&pipeline](const Scene& scene, int) {
        return pipeline.fixy.Find(scene, "missing-tracks").value();
      });
  const PrecisionRow rand_row =
      EvaluateMethod(scenes, [](const Scene& scene, int index) {
        return baselines::ConsistencyAssertion(
                   scene, baselines::MaOrdering::kRandom,
                   1000 + static_cast<uint64_t>(index))
            .value();
      });
  const PrecisionRow conf_row =
      EvaluateMethod(scenes, [](const Scene& scene, int index) {
        return baselines::ConsistencyAssertion(
                   scene, baselines::MaOrdering::kConfidence,
                   2000 + static_cast<uint64_t>(index))
            .value();
      });

  auto row = [&](const char* method, const PrecisionRow& r,
                 const char* paper) {
    table->AddRow({method, dataset, eval::Percent(r.at10),
                   eval::Percent(r.at5), eval::Percent(r.at1), paper});
  };
  row("FIXY", fixy_row, paper_fixy);
  row("Ad-hoc MA (rand)", rand_row, paper_rand);
  row("Ad-hoc MA (conf)", conf_row, paper_conf);
  std::printf("[%s] scenes with missing-track errors: %d\n", dataset.c_str(),
              fixy_row.scenes);
}

void Run() {
  PrintHeader(
      "Table 3: precision of missing-track finding (Fixy vs ad-hoc MAs)");

  // --- Lyft-like: 46 validation scenes, noisy vendor labels. ---
  const TrainedPipeline lyft =
      Train(sim::LyftLikeProfile(), kLyftTrainingScenes);
  std::vector<sim::GeneratedScene> lyft_scenes;
  for (int i = 0; i < kLyftValidationScenes; ++i) {
    lyft_scenes.push_back(sim::GenerateScene(
        lyft.profile, "lyft_val_" + std::to_string(i), kValidationSeed));
  }

  // --- Internal-like: the paper focuses on the scene that failed audit
  // (exactly 24 missing tracks); the remaining internal scenes feed the
  // scene count only.
  const TrainedPipeline internal =
      Train(sim::InternalLikeProfile(), kInternalTrainingScenes);
  std::vector<sim::GeneratedScene> internal_scenes;
  internal_scenes.push_back(GenerateAuditScene());

  eval::Table table({"Method", "Dataset", "P@10", "P@5", "P@1",
                     "Paper (P@10/5/1)"});
  AddRows(&table, "Lyft", lyft_scenes, lyft, "69% / 70% / 67%",
          "32% / 30% / 24%", "39% / 40% / 39%");
  AddRows(&table, "Internal", internal_scenes, internal,
          "76% / 100% / 100%", "49% / 64% / 66%", "71% / 86% / 66%");

  std::printf("%s", table.ToString().c_str());
  std::printf(
      "\nShape check (paper): FIXY beats MA(rand) by ~2x on Lyft; MA(conf)\n"
      "falls between; Internal (audited labels, calibrated model) is easier\n"
      "for every method.\n");
}

}  // namespace
}  // namespace fixy::bench

int main() {
  fixy::bench::Run();
  return 0;
}
