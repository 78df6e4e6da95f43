// Uncertainty sampling baseline (Section 8.4): "we sampled predictions
// around a confidence threshold", the standard active-learning heuristic.
// Predictions closest to the threshold rank first — which is exactly why
// it cannot surface the high-confidence (0.95) model errors Fixy finds.
#ifndef FIXY_BASELINES_UNCERTAINTY_H_
#define FIXY_BASELINES_UNCERTAINTY_H_

#include <vector>

#include "common/result.h"
#include "core/proposal.h"
#include "data/scene.h"

namespace fixy::baselines {

/// Ranks model predictions by closeness of their confidence to the 0.5
/// decision threshold (most uncertain first), as model-error proposals.
/// Predictions are grouped per assembled track and only each track's most
/// uncertain one is kept, so the top-k is not spent on one object.
Result<std::vector<ErrorProposal>> UncertaintySampling(const Scene& scene);

}  // namespace fixy::baselines

#endif  // FIXY_BASELINES_UNCERTAINTY_H_
