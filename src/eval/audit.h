// The expert-auditor loop of the paper's deployment (Section 2): auditors
// review Fixy's top-ranked proposals, verify which are real, and patch the
// label set. Here the ground-truth ledger plays the auditor; the output is
// a corrected scene with auditor-source observations added for every
// verified missing label, plus audit statistics.
//
// This closes the paper's workflow: rank -> audit -> corrected labels ->
// (re)train on higher-quality data.
#ifndef FIXY_EVAL_AUDIT_H_
#define FIXY_EVAL_AUDIT_H_

#include <vector>

#include "core/proposal.h"
#include "data/scene.h"
#include "eval/matching.h"
#include "sim/ledger.h"

namespace fixy::eval {

/// Result of auditing the top proposals of one scene.
struct AuditResult {
  /// The scene with auditor observations added for each verified error.
  Scene corrected_scene;
  /// Proposals reviewed (min(top_k, available)).
  size_t reviewed = 0;
  /// Proposals that identified a real error.
  size_t verified = 0;
  /// Distinct ledger errors fixed (a verified error may be flagged by
  /// several proposals but is fixed once).
  size_t errors_fixed = 0;
  /// Auditor observations added to the corrected scene.
  size_t observations_added = 0;

  double Yield() const {
    return reviewed > 0 ? static_cast<double>(verified) /
                              static_cast<double>(reviewed)
                        : 0.0;
  }
};

struct AuditOptions {
  /// How many top proposals the auditor reviews ("organizations have
  /// limited resources to evaluate potential errors").
  size_t top_k = 10;
};

/// Audits `ranked` (already sorted, most suspicious first) against the
/// scene's ledger entries and produces the corrected scene: every frame
/// box of each verified error is added as an ObservationSource::kAuditor
/// observation. Errors: FailedPrecondition if the scene fails validation.
Result<AuditResult> AuditScene(const Scene& scene,
                               const std::vector<ErrorProposal>& ranked,
                               const sim::GtLedger& ledger,
                               const AuditOptions& options = {});

}  // namespace fixy::eval

#endif  // FIXY_EVAL_AUDIT_H_
