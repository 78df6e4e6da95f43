#include "core/ranker.h"

#include <algorithm>
#include <array>

#include "core/engine.h"
#include "obs/metrics.h"

namespace fixy {

void RankProposals(std::vector<ErrorProposal>* proposals) {
  std::sort(proposals->begin(), proposals->end(),
            [](const ErrorProposal& a, const ErrorProposal& b) {
              if (a.score != b.score) return a.score > b.score;
              if (a.scene_name != b.scene_name) {
                return a.scene_name < b.scene_name;
              }
              if (a.track_id != b.track_id) return a.track_id < b.track_id;
              return a.frame_index < b.frame_index;
            });
}

std::vector<ErrorProposal> TopK(const std::vector<ErrorProposal>& ranked,
                                size_t k) {
  std::vector<ErrorProposal> top(ranked.begin(),
                                 ranked.begin() +
                                     std::min(k, ranked.size()));
  return top;
}

std::vector<ErrorProposal> Worklist(const BatchReport& report, size_t k) {
  std::vector<ErrorProposal> worklist;
  for (const SceneOutcome& outcome : report.outcomes) {
    if (!outcome.ok()) continue;
    worklist.insert(worklist.end(), outcome.proposals.begin(),
                    outcome.proposals.begin() +
                        std::min(k, outcome.proposals.size()));
  }
  return worklist;
}

std::vector<ErrorProposal> TopKPerClass(
    const std::vector<ErrorProposal>& ranked, size_t k) {
  std::array<size_t, kNumObjectClasses> taken{};
  std::vector<ErrorProposal> top;
  for (const ErrorProposal& proposal : ranked) {
    // Library callers build ErrorProposals themselves, so the class is not
    // trusted as an index: out-of-range values (including negative ones,
    // which the cast wraps far past the array) are skipped and counted
    // instead of indexing out of bounds.
    const size_t cls = static_cast<size_t>(proposal.object_class);
    if (cls >= taken.size()) {
      obs::Count("rank.invalid_class_proposals");
      continue;
    }
    size_t& count = taken[cls];
    if (count < k) {
      ++count;
      top.push_back(proposal);
    }
  }
  RankProposals(&top);
  return top;
}

}  // namespace fixy
