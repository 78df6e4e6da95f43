// Quickstart: the full Fixy workflow on synthetic data in ~50 lines.
//
//   1. Generate a training dataset (existing organizational labels) and a
//      validation scene containing injected label errors.
//   2. Learn feature distributions from the training labels (offline
//      phase).
//   3. Rank potential missing tracks in the validation scene (online
//      phase) and check the top proposals against the ground-truth error
//      ledger.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "core/engine.h"
#include "core/ranker.h"
#include "eval/matching.h"
#include "eval/metrics.h"
#include "sim/generate.h"

int main() {
  using namespace fixy;

  // 1. Simulate the organizational resources: 8 training scenes and one
  //    validation scene, all in the noisy "Lyft-like" style.
  const sim::SimProfile profile = sim::LyftLikeProfile();
  const sim::GeneratedDataset training =
      sim::GenerateDataset(profile, "train", /*count=*/8, /*seed=*/42);
  const sim::GeneratedScene validation =
      sim::GenerateScene(profile, "validation", /*seed=*/7);

  std::printf("training: %d scenes, %zu observations\n",
              static_cast<int>(training.dataset.scenes.size()),
              training.dataset.TotalObservations());
  std::printf("validation scene: %zu frames, %zu observations, %zu injected "
              "missing tracks\n",
              validation.scene.frame_count(),
              validation.scene.TotalObservations(),
              validation.ledger.CountByType(sim::GtErrorType::kMissingTrack));

  // 2. Offline phase: learn volume/velocity distributions from the
  //    training labels.
  Fixy fixy;
  const Status learn_status = fixy.Learn(training.dataset);
  if (!learn_status.ok()) {
    std::fprintf(stderr, "learning failed: %s\n",
                 learn_status.ToString().c_str());
    return 1;
  }
  for (const FeatureDistribution& fd : fixy.learned_features()) {
    std::printf("learned feature: %s\n", fd.feature().name().c_str());
  }

  // 3. Online phase: rank potential missing tracks.
  const Result<std::vector<ErrorProposal>> proposals =
      fixy.Find(validation.scene, "missing-tracks");
  if (!proposals.ok()) {
    std::fprintf(stderr, "ranking failed: %s\n",
                 proposals.status().ToString().c_str());
    return 1;
  }

  const auto claimable = eval::ClaimableErrors(
      validation.ledger, ProposalKind::kMissingTrack, "validation");
  std::printf("\ntop 10 ranked proposals (of %zu):\n", proposals->size());
  int rank = 1;
  for (const ErrorProposal& p : TopK(*proposals, 10)) {
    bool real = false;
    for (const sim::GtError* error : claimable) {
      if (eval::ProposalMatchesError(p, *error)) {
        real = true;
        break;
      }
    }
    std::printf("  #%2d score=%7.3f %-10s frames [%3d..%3d]  %s\n", rank++,
                p.score, ObjectClassToString(p.object_class), p.first_frame,
                p.last_frame, real ? "REAL missing label" : "false alarm");
  }
  return 0;
}
