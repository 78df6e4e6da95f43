// Matching ranked error proposals against the simulator's ground-truth
// error ledger — the mechanical replacement for the paper's manual
// verification ("we manually checked the top 10 potential errors").
#ifndef FIXY_EVAL_MATCHING_H_
#define FIXY_EVAL_MATCHING_H_

#include "core/proposal.h"
#include "sim/ledger.h"

namespace fixy::eval {

/// True if `proposal`'s kind can claim `error`'s type:
///   kMissingTrack       -> kMissingTrack
///   kMissingObservation -> kMissingObservation
///   kModelError         -> kGhostTrack | kClassificationError |
///                          kLocalizationError
bool KindMatchesType(ProposalKind kind, sim::GtErrorType type);

/// True if `proposal` correctly identifies `error`: same scene, compatible
/// kind, frame spans that overlap within 3 frames of slack, and BEV IoU
/// above 0.1 with the error's box at the frame nearest the proposal's
/// representative frame (at most 5 frames away). The IoU bar is loose
/// because proposal boxes carry detector noise.
bool ProposalMatchesError(const ErrorProposal& proposal,
                          const sim::GtError& error);

}  // namespace fixy::eval

#endif  // FIXY_EVAL_MATCHING_H_
