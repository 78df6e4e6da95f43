// The ground-truth error ledger: every error the simulator injects is
// recorded here, replacing the paper's expert auditors — precision@k and
// recall are computed exactly against this ledger (src/eval).
#ifndef FIXY_SIM_LEDGER_H_
#define FIXY_SIM_LEDGER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "data/types.h"
#include "geometry/box.h"

namespace fixy::sim {

/// The kinds of injected errors.
enum class GtErrorType {
  /// The human labels miss the object entirely (Section 8.2).
  kMissingTrack = 0,
  /// A single human box is missing inside an otherwise labeled track (8.3).
  kMissingObservation = 1,
  /// The detector hallucinated a track that corresponds to no object (8.4).
  kGhostTrack = 2,
  /// The detector assigned the wrong class to a real object (8.4).
  kClassificationError = 3,
  /// The detector's boxes on a real object are grossly mislocalized (8.4).
  kLocalizationError = 4,
};

const char* GtErrorTypeToString(GtErrorType type);

/// One injected error, with enough geometry to match ranked proposals
/// against it.
struct GtError {
  GtErrorType type = GtErrorType::kMissingTrack;
  std::string scene_name;
  /// Ground-truth object id, or a synthetic id for ghost tracks.
  uint64_t object_key = 0;
  ObjectClass object_class = ObjectClass::kCar;
  int first_frame = 0;
  int last_frame = 0;
  /// True (or, for ghosts, emitted) boxes over the error's frame span.
  std::map<int, geom::Box3d> boxes;
  /// Closest approach to the ego over the span (severity context).
  double min_ego_distance = 0.0;

  std::string ToString() const;
};

/// All errors injected into a dataset.
struct GtLedger {
  std::vector<GtError> errors;

  size_t CountByType(GtErrorType type) const;
  std::vector<const GtError*> ErrorsInScene(
      const std::string& scene_name) const;

  void Append(const GtLedger& other) {
    errors.insert(errors.end(), other.errors.begin(), other.errors.end());
  }
};

}  // namespace fixy::sim

#endif  // FIXY_SIM_LEDGER_H_
