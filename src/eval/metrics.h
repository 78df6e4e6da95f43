// Precision@k and recall over ranked proposals, computed against the
// ground-truth ledger. Precision follows the paper's audit protocol: the
// auditor verifies each flagged item on its own, so every proposal that
// matches a real error counts, duplicates of one error included.
#ifndef FIXY_EVAL_METRICS_H_
#define FIXY_EVAL_METRICS_H_

#include <vector>

#include "core/proposal.h"
#include "eval/matching.h"
#include "sim/ledger.h"

namespace fixy::eval {

struct PrecisionResult {
  /// hits / considered; 0 when nothing was considered.
  double precision = 0.0;
  size_t hits = 0;
  /// min(k, proposals available) — the paper uses the maximum available
  /// when fewer than k errors were flagged.
  size_t considered = 0;
};

/// Precision among the top k proposals: the fraction that correctly
/// identify a real error (ProposalMatchesError with any of `errors`).
PrecisionResult PrecisionAtK(const std::vector<ErrorProposal>& ranked,
                             const std::vector<const sim::GtError*>& errors,
                             size_t k);

struct RecallResult {
  double recall = 0.0;
  size_t found = 0;
  size_t total = 0;
};

/// Fraction of `errors` matched by at least one proposal.
RecallResult RecallOf(const std::vector<ErrorProposal>& proposals,
                      const std::vector<const sim::GtError*>& errors);

/// Filters a ledger down to the errors a proposal kind can claim, within
/// one scene (empty scene name = all scenes).
std::vector<const sim::GtError*> ClaimableErrors(
    const sim::GtLedger& ledger, ProposalKind kind,
    const std::string& scene_name = "");

/// True if any proposal in `proposals` matches `error`. Used for the
/// Section 8.4 protocol of excluding errors already caught by ad-hoc MAs.
bool AnyProposalMatches(const std::vector<ErrorProposal>& proposals,
                        const sim::GtError& error);

}  // namespace fixy::eval

#endif  // FIXY_EVAL_METRICS_H_
