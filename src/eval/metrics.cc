#include "eval/metrics.h"

#include <algorithm>

namespace fixy::eval {

PrecisionResult PrecisionAtK(const std::vector<ErrorProposal>& ranked,
                             const std::vector<const sim::GtError*>& errors,
                             size_t k) {
  PrecisionResult result;
  result.considered = std::min(k, ranked.size());
  for (size_t i = 0; i < result.considered; ++i) {
    for (const sim::GtError* error : errors) {
      if (ProposalMatchesError(ranked[i], *error)) {
        ++result.hits;
        break;
      }
    }
  }
  if (result.considered > 0) {
    result.precision = static_cast<double>(result.hits) /
                       static_cast<double>(result.considered);
  }
  return result;
}

RecallResult RecallOf(const std::vector<ErrorProposal>& proposals,
                      const std::vector<const sim::GtError*>& errors) {
  RecallResult result;
  result.total = errors.size();
  for (const sim::GtError* error : errors) {
    if (AnyProposalMatches(proposals, *error)) ++result.found;
  }
  if (result.total > 0) {
    result.recall =
        static_cast<double>(result.found) / static_cast<double>(result.total);
  }
  return result;
}

std::vector<const sim::GtError*> ClaimableErrors(
    const sim::GtLedger& ledger, ProposalKind kind,
    const std::string& scene_name) {
  std::vector<const sim::GtError*> result;
  for (const sim::GtError& error : ledger.errors) {
    if (!KindMatchesType(kind, error.type)) continue;
    if (!scene_name.empty() && error.scene_name != scene_name) continue;
    result.push_back(&error);
  }
  return result;
}

bool AnyProposalMatches(const std::vector<ErrorProposal>& proposals,
                        const sim::GtError& error) {
  for (const ErrorProposal& proposal : proposals) {
    if (ProposalMatchesError(proposal, error)) return true;
  }
  return false;
}

}  // namespace fixy::eval
