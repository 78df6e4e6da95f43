// An auditing workflow over a labeled dataset (the Figure 1 / Figure 8 use
// case): rank likely missing labels in every scene of a vendor-labeled
// dataset and print the audit worklist an expert would review, cheapest
// errors first.
//
// Also demonstrates dataset persistence: the generated dataset is written
// to disk in the .fixy format and read back before auditing, as a real
// deployment would consume ingested data.
//
// Usage: find_label_errors [output_dir]
#include <cstdio>
#include <filesystem>
#include <string>

#include "core/engine.h"
#include "core/ranker.h"
#include "eval/metrics.h"
#include "io/scene_io.h"
#include "sim/generate.h"

int main(int argc, char** argv) {
  using namespace fixy;
  const std::string dir =
      argc > 1 ? argv[1]
               : (std::filesystem::temp_directory_path() / "fixy_example")
                     .string();

  // --- Ingest: a vendor-labeled dataset with model predictions. ---
  const sim::SimProfile profile = sim::LyftLikeProfile();
  const sim::GeneratedDataset incoming =
      sim::GenerateDataset(profile, "batch42", /*count=*/6, /*seed=*/777);
  const Status saved = io::SaveDataset(incoming.dataset, dir);
  if (!saved.ok()) {
    std::fprintf(stderr, "save failed: %s\n", saved.ToString().c_str());
    return 1;
  }
  const Result<Dataset> loaded = io::LoadDataset(dir);
  if (!loaded.ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 loaded.status().ToString().c_str());
    return 1;
  }
  std::printf("ingested dataset '%s': %zu scenes, %zu observations (from "
              "%s)\n\n",
              loaded->name.c_str(), loaded->scenes.size(),
              loaded->TotalObservations(), dir.c_str());

  // --- Offline: learn feature distributions from existing labels. ---
  const sim::GeneratedDataset historical =
      sim::GenerateDataset(profile, "historical", /*count=*/8, /*seed=*/42);
  Fixy fixy;
  if (const Status s = fixy.Learn(historical.dataset); !s.ok()) {
    std::fprintf(stderr, "learning failed: %s\n", s.ToString().c_str());
    return 1;
  }

  // --- Online: build the audit worklist. ---
  std::printf("audit worklist (top 3 suspected missing labels per scene):\n");
  size_t verified = 0;
  size_t proposed = 0;
  for (const Scene& scene : loaded->scenes) {
    const auto proposals = fixy.Find(scene, "missing-tracks");
    if (!proposals.ok()) {
      std::fprintf(stderr, "ranking failed for %s: %s\n",
                   scene.name().c_str(),
                   proposals.status().ToString().c_str());
      return 1;
    }
    const auto claimable = eval::ClaimableErrors(
        incoming.ledger, ProposalKind::kMissingTrack, scene.name());
    for (const ErrorProposal& p : TopK(*proposals, 3)) {
      ++proposed;
      bool real = false;
      for (const sim::GtError* error : claimable) {
        if (eval::ProposalMatchesError(p, *error)) {
          real = true;
          break;
        }
      }
      if (real) ++verified;
      std::printf("  %-12s frame %3d: unlabeled %-10s %.1f m from the AV, "
                  "score %.3f  [%s]\n",
                  scene.name().c_str(), p.frame_index,
                  ObjectClassToString(p.object_class),
                  p.box.BevCenterDistance(
                      scene.frames()[static_cast<size_t>(p.frame_index)]
                          .ego_position),
                  p.score, real ? "verified real" : "auditor rejects");
    }
  }
  std::printf("\n%zu of %zu proposals verified against ground truth "
              "(%.0f%% audit yield)\n",
              verified, proposed,
              proposed > 0 ? 100.0 * verified / proposed : 0.0);
  return 0;
}
