#include "eval/audit.h"

#include <algorithm>

#include "common/macros.h"

namespace fixy::eval {

Result<AuditResult> AuditScene(const Scene& scene,
                               const std::vector<ErrorProposal>& ranked,
                               const sim::GtLedger& ledger,
                               const AuditOptions& options) {
  FIXY_RETURN_IF_ERROR(scene.Validate());

  AuditResult result;
  result.corrected_scene = scene;

  const std::vector<const sim::GtError*> errors =
      ledger.ErrorsInScene(scene.name());

  // Next free observation id for the auditor labels.
  ObservationId next_id = 0;
  for (const Frame& frame : scene.frames()) {
    for (const Observation& obs : frame.observations) {
      next_id = std::max(next_id, obs.id + 1);
    }
  }

  std::vector<bool> fixed(errors.size(), false);
  result.reviewed = std::min(options.top_k, ranked.size());
  for (size_t i = 0; i < result.reviewed; ++i) {
    const ErrorProposal& proposal = ranked[i];
    bool hit = false;
    for (size_t e = 0; e < errors.size(); ++e) {
      if (!ProposalMatchesError(proposal, *errors[e])) continue;
      hit = true;
      if (fixed[e]) continue;
      fixed[e] = true;
      ++result.errors_fixed;
      // Patch the label set: one auditor box per frame of the error.
      for (const auto& [frame_index, box] : errors[e]->boxes) {
        if (frame_index < 0 ||
            frame_index >=
                static_cast<int>(result.corrected_scene.frame_count())) {
          continue;
        }
        Frame& frame = result.corrected_scene
                           .frames()[static_cast<size_t>(frame_index)];
        Observation obs;
        obs.id = next_id++;
        obs.source = ObservationSource::kAuditor;
        obs.object_class = errors[e]->object_class;
        obs.box = box;
        obs.confidence = 1.0;
        frame.observations.push_back(std::move(obs));
        ++result.observations_added;
      }
    }
    if (hit) ++result.verified;
  }
  FIXY_RETURN_IF_ERROR(result.corrected_scene.Validate());
  return result;
}

}  // namespace fixy::eval
