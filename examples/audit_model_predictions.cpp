// Monitoring ML model predictions for errors without any human labels
// (the Section 8.4 use case): Fixy's inverted-AOF ranking surfaces ghost
// tracks, misclassifications, and localization failures that the classic
// ad-hoc model assertions (appear / flicker / multibox) stay silent on —
// including errors the model is highly confident about.
//
// Usage: audit_model_predictions
#include <cstdio>

#include "baselines/model_assertions.h"
#include "baselines/uncertainty.h"
#include "core/engine.h"
#include "core/ranker.h"
#include "eval/metrics.h"
#include "sim/generate.h"

int main() {
  using namespace fixy;

  const sim::SimProfile profile = sim::LyftLikeProfile();
  Fixy fixy;
  {
    const auto training =
        sim::GenerateDataset(profile, "training", /*count=*/8, /*seed=*/42);
    if (const Status s = fixy.Learn(training.dataset); !s.ok()) {
      std::fprintf(stderr, "learning failed: %s\n", s.ToString().c_str());
      return 1;
    }
  }

  // A deployment scene: model predictions only (no labels exist yet).
  const auto generated = sim::GenerateScene(profile, "deployment", 4242);
  const auto ledger_errors = eval::ClaimableErrors(
      generated.ledger, ProposalKind::kModelError, generated.scene.name());
  std::printf("deployment scene: %zu model predictions, %zu true model "
              "errors\n\n",
              generated.scene.CountBySource(ObservationSource::kModel),
              ledger_errors.size());

  // What the classic assertions find.
  const auto appear = baselines::AppearAssertion(generated.scene).value();
  const auto flicker = baselines::FlickerAssertion(generated.scene).value();
  const auto multibox = baselines::MultiboxAssertion(generated.scene).value();
  std::printf("ad-hoc assertions flag: appear=%zu flicker=%zu multibox=%zu\n",
              appear.size(), flicker.size(), multibox.size());

  // What Fixy finds, ranked.
  const auto proposals = fixy.Find(generated.scene, "model-errors").value();
  std::printf("Fixy ranks %zu candidate tracks; top 10:\n\n",
              proposals.size());
  int rank = 1;
  for (const ErrorProposal& p : TopK(proposals, 10)) {
    const sim::GtError* match = nullptr;
    for (const sim::GtError* error : ledger_errors) {
      if (eval::ProposalMatchesError(p, *error)) {
        match = error;
        break;
      }
    }
    std::printf("  #%2d score=%7.3f %-10s frames [%3d..%3d] conf=%.2f  %s\n",
                rank++, p.score, ObjectClassToString(p.object_class),
                p.first_frame, p.last_frame, p.model_confidence,
                match != nullptr ? sim::GtErrorTypeToString(match->type)
                                 : "(clean track)");
  }

  // The paper's headline: errors found at high model confidence, which
  // uncertainty sampling structurally cannot surface.
  double max_conf = 0.0;
  for (const ErrorProposal& p : TopK(proposals, 10)) {
    for (const sim::GtError* error : ledger_errors) {
      if (eval::ProposalMatchesError(p, *error)) {
        max_conf = std::max(max_conf, p.model_confidence);
      }
    }
  }
  const auto uncertain =
      baselines::UncertaintySampling(generated.scene).value();
  std::printf("\nhighest-confidence true error in Fixy's top 10: %.0f%%\n",
              100.0 * max_conf);
  if (!uncertain.empty()) {
    std::printf("uncertainty sampling would inspect confidences near %.2f "
                "first and miss it\n",
                uncertain.front().model_confidence);
  }
  return 0;
}
