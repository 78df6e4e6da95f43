#include "eval/matching.h"

#include <algorithm>
#include <cstdlib>

#include "geometry/iou.h"

namespace fixy::eval {

namespace {

// Minimum BEV IoU between the proposal's box and the error's box.
constexpr double kIouThreshold = 0.1;
// A proposal may sit this many frames outside the error's span.
constexpr int kFrameSlack = 3;

}  // namespace

bool KindMatchesType(ProposalKind kind, sim::GtErrorType type) {
  switch (kind) {
    case ProposalKind::kMissingTrack:
      return type == sim::GtErrorType::kMissingTrack;
    case ProposalKind::kMissingObservation:
      return type == sim::GtErrorType::kMissingObservation;
    case ProposalKind::kModelError:
      return type == sim::GtErrorType::kGhostTrack ||
             type == sim::GtErrorType::kClassificationError ||
             type == sim::GtErrorType::kLocalizationError;
  }
  return false;
}

bool ProposalMatchesError(const ErrorProposal& proposal,
                          const sim::GtError& error) {
  if (proposal.scene_name != error.scene_name) return false;
  if (!KindMatchesType(proposal.kind, error.type)) return false;
  // Frame spans must overlap within the slack.
  if (proposal.last_frame < error.first_frame - kFrameSlack ||
      proposal.first_frame > error.last_frame + kFrameSlack) {
    return false;
  }
  if (error.boxes.empty()) return false;
  // Compare against the error's box at the frame nearest the proposal's
  // representative frame.
  auto it = error.boxes.lower_bound(proposal.frame_index);
  const geom::Box3d* nearest = nullptr;
  int nearest_gap = 0;
  if (it != error.boxes.end()) {
    nearest = &it->second;
    nearest_gap = std::abs(it->first - proposal.frame_index);
  }
  if (it != error.boxes.begin()) {
    const auto prev = std::prev(it);
    const int gap = std::abs(prev->first - proposal.frame_index);
    if (nearest == nullptr || gap < nearest_gap) {
      nearest = &prev->second;
      nearest_gap = gap;
    }
  }
  if (nearest == nullptr) return false;
  // Allow a small temporal gap: boxes drift as objects move, so grow the
  // acceptance as distance-in-time grows is NOT done; instead require the
  // match frame to be reasonably close.
  if (nearest_gap > kFrameSlack + 2) return false;
  return geom::BevIou(proposal.box, *nearest) > kIouThreshold;
}

}  // namespace fixy::eval
