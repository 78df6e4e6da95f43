#include "sim/ledger.h"

#include "common/string_util.h"

namespace fixy::sim {

const char* GtErrorTypeToString(GtErrorType type) {
  switch (type) {
    case GtErrorType::kMissingTrack:
      return "missing_track";
    case GtErrorType::kMissingObservation:
      return "missing_observation";
    case GtErrorType::kGhostTrack:
      return "ghost_track";
    case GtErrorType::kClassificationError:
      return "classification_error";
    case GtErrorType::kLocalizationError:
      return "localization_error";
  }
  return "unknown";
}

std::string GtError::ToString() const {
  return StrFormat("%s %s key=%llu class=%s frames=[%d..%d] min_dist=%.1f",
                   scene_name.c_str(), GtErrorTypeToString(type),
                   static_cast<unsigned long long>(object_key),
                   ObjectClassToString(object_class), first_frame, last_frame,
                   min_ego_distance);
}

size_t GtLedger::CountByType(GtErrorType type) const {
  size_t count = 0;
  for (const GtError& error : errors) {
    if (error.type == type) ++count;
  }
  return count;
}

std::vector<const GtError*> GtLedger::ErrorsInScene(
    const std::string& scene_name) const {
  std::vector<const GtError*> result;
  for (const GtError& error : errors) {
    if (error.scene_name == scene_name) result.push_back(&error);
  }
  return result;
}

}  // namespace fixy::sim
