// Ranking utilities: Fixy's output is a ranked list of potential errors
// ("As output, Fixy returns a ranked list of observations, where higher
// ranked observations are ideally more likely to contain errors",
// Section 3).
#ifndef FIXY_CORE_RANKER_H_
#define FIXY_CORE_RANKER_H_

#include <vector>

#include "core/proposal.h"

namespace fixy {

struct BatchReport;

/// Sorts proposals by score descending; ties broken by (scene, track id,
/// frame) so the order is deterministic.
void RankProposals(std::vector<ErrorProposal>* proposals);

/// The top k proposals of an already-ranked list (fewer if not available).
std::vector<ErrorProposal> TopK(const std::vector<ErrorProposal>& ranked,
                                size_t k);

/// The worklist of one application's ranked batch: the top k proposals of
/// every scene that ranked, concatenated in dataset order. `fixy_cli rank
/// --out` saves it and fixyd returns it, which keeps the two byte-identical.
std::vector<ErrorProposal> Worklist(const BatchReport& report, size_t k);

/// Per-class top k: for each object class, up to k best proposals, ranked.
/// Mirrors the paper's per-class recall protocol ("finding 18 of the
/// missing tracks in the top 10 ranked errors per-class", Section 8.2).
std::vector<ErrorProposal> TopKPerClass(
    const std::vector<ErrorProposal>& ranked, size_t k);

}  // namespace fixy

#endif  // FIXY_CORE_RANKER_H_
