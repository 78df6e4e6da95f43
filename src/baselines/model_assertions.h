// Ad-hoc model assertions — the baseline of Kang et al., "Model Assertions
// for Monitoring and Improving ML Models" (MLSys 2020), reimplemented as
// the paper's evaluation deploys them:
//
//   - consistency: objects predicted consistently by the model in
//     consecutive frames should have human labels (used to find missing
//     tracks, Section 8.2);
//   - appear: an observation should have observations in nearby timestamps
//     (flags very short tracks);
//   - flicker: an observation should not appear and disappear rapidly
//     (flags tracks with frame gaps);
//   - multibox: three or more boxes should not mutually overlap.
//
// MAs return flagged data with *ad-hoc severity scores*: the evaluation
// orders consistency flags randomly or by model confidence, which is
// exactly the calibration weakness LOA addresses.
#ifndef FIXY_BASELINES_MODEL_ASSERTIONS_H_
#define FIXY_BASELINES_MODEL_ASSERTIONS_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "core/proposal.h"
#include "data/scene.h"

namespace fixy::baselines {

/// How the consistency assertion orders its flags (the paper compares
/// "Ad-hoc MA (rand)" and "Ad-hoc MA (conf)").
enum class MaOrdering {
  kRandom = 0,
  kConfidence = 1,
};

/// Consistency assertion: flags model-only tracks of at least two
/// detections that have no associated human label, ordered randomly
/// (seeded) or by mean model confidence.
Result<std::vector<ErrorProposal>> ConsistencyAssertion(const Scene& scene,
                                                        MaOrdering ordering,
                                                        uint64_t seed);

/// Appear assertion: flags model tracks with at most two observations.
Result<std::vector<ErrorProposal>> AppearAssertion(const Scene& scene);

/// Flicker assertion: flags model tracks whose detections have frame gaps.
Result<std::vector<ErrorProposal>> FlickerAssertion(const Scene& scene);

/// Multibox assertion: flags frames where three or more model boxes
/// mutually overlap (pairwise BEV IoU above 0.15); one proposal per
/// offending group.
Result<std::vector<ErrorProposal>> MultiboxAssertion(const Scene& scene);

}  // namespace fixy::baselines

#endif  // FIXY_BASELINES_MODEL_ASSERTIONS_H_
