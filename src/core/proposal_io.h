// Serialization of ranked error proposals — the artifact handed from the
// ranking pipeline to audit tooling ("flag problematic data ... so an
// expert auditor can verify", Sections 2-3).
#ifndef FIXY_CORE_PROPOSAL_IO_H_
#define FIXY_CORE_PROPOSAL_IO_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "core/proposal.h"
#include "json/json.h"

namespace fixy {

/// Serializes a ranked proposal list (order preserved).
json::Value ProposalsToJson(const std::vector<ErrorProposal>& proposals);

/// Writes ProposalsToJson's pretty-printed document to `path` through
/// WriteFileAtomic. Errors: IoError.
Status SaveProposals(const std::vector<ErrorProposal>& proposals,
                     const std::string& path);

}  // namespace fixy

#endif  // FIXY_CORE_PROPOSAL_IO_H_
