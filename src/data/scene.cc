#include "data/scene.h"

#include <bit>
#include <cmath>
#include <vector>

#include "common/random.h"
#include "common/string_util.h"

namespace fixy {

namespace {

// True if every field of the box is finite. IsValid() alone rejects NaN
// extents (NaN > 0 is false) but lets NaN centers and yaws through, and
// those reach feature computation (distances, velocities) during ranking.
bool BoxIsFinite(const geom::Box3d& box) {
  return std::isfinite(box.center.x) && std::isfinite(box.center.y) &&
         std::isfinite(box.center.z) && std::isfinite(box.length) &&
         std::isfinite(box.width) && std::isfinite(box.height) &&
         std::isfinite(box.yaw);
}

// The observation ids seen so far, in one flat open-addressing table of
// at least twice as many slots as ids, so a probe ends at an empty slot.
// kInvalidObservationId marks empty slots: Validate rejects that id
// before inserting.
class IdSet {
 public:
  explicit IdSet(size_t capacity)
      : slots_(std::bit_ceil(2 * capacity + 1), kInvalidObservationId),
        mask_(slots_.size() - 1) {}

  // False if `id` was already present. SplitMix64 carries every id bit
  // into the low bits the mask keeps, so ids that differ only in their
  // high bits do not share one probe run.
  bool Insert(ObservationId id) {
    for (size_t slot = SplitMix64(id).Next() & mask_;;
         slot = (slot + 1) & mask_) {
      if (slots_[slot] == id) return false;
      if (slots_[slot] == kInvalidObservationId) {
        slots_[slot] = id;
        return true;
      }
    }
  }

 private:
  std::vector<ObservationId> slots_;
  size_t mask_;
};

}  // namespace

double Scene::DurationSeconds() const {
  if (frames_.size() < 2) return 0.0;
  return frames_.back().timestamp - frames_.front().timestamp;
}

size_t Scene::TotalObservations() const {
  size_t total = 0;
  for (const Frame& f : frames_) total += f.observations.size();
  return total;
}

size_t Scene::CountBySource(ObservationSource source) const {
  size_t total = 0;
  for (const Frame& f : frames_) {
    for (const Observation& o : f.observations) {
      if (o.source == source) ++total;
    }
  }
  return total;
}

Scene FilterToSource(const Scene& scene, ObservationSource source) {
  Scene filtered(scene.name(), scene.frame_rate_hz());
  for (const Frame& frame : scene.frames()) {
    Frame copy = frame;
    copy.observations.clear();
    for (const Observation& obs : frame.observations) {
      if (obs.source == source) copy.observations.push_back(obs);
    }
    filtered.AddFrame(std::move(copy));
  }
  return filtered;
}

Status Scene::Validate() const {
  if (!std::isfinite(frame_rate_hz_) || frame_rate_hz_ <= 0.0) {
    return Status::FailedPrecondition(
        StrFormat("scene '%s': frame rate must be finite and positive",
                  name_.c_str()));
  }
  IdSet seen_ids(TotalObservations());
  double prev_timestamp = -1.0;
  for (size_t i = 0; i < frames_.size(); ++i) {
    const Frame& frame = frames_[i];
    if (frame.index != static_cast<int>(i)) {
      return Status::FailedPrecondition(
          StrFormat("scene '%s': frame %zu has index %d", name_.c_str(), i,
                    frame.index));
    }
    // !(>=) instead of (<) so NaN timestamps are rejected rather than
    // slipping through both orderings.
    if (!(frame.timestamp >= prev_timestamp)) {
      return Status::FailedPrecondition(
          StrFormat("scene '%s': frame %zu timestamp decreases or is not "
                    "finite",
                    name_.c_str(), i));
    }
    if (!std::isfinite(frame.timestamp)) {
      return Status::FailedPrecondition(
          StrFormat("scene '%s': frame %zu timestamp is not finite",
                    name_.c_str(), i));
    }
    if (!std::isfinite(frame.ego_position.x) ||
        !std::isfinite(frame.ego_position.y) ||
        !std::isfinite(frame.ego_yaw)) {
      return Status::FailedPrecondition(
          StrFormat("scene '%s': frame %zu ego pose is not finite",
                    name_.c_str(), i));
    }
    prev_timestamp = frame.timestamp;
    for (const Observation& obs : frame.observations) {
      if (obs.id == kInvalidObservationId) {
        return Status::FailedPrecondition(
            StrFormat("scene '%s': observation with invalid id",
                      name_.c_str()));
      }
      if (!seen_ids.Insert(obs.id)) {
        return Status::FailedPrecondition(
            StrFormat("scene '%s': duplicate observation id %llu",
                      name_.c_str(),
                      static_cast<unsigned long long>(obs.id)));
      }
      if (!BoxIsFinite(obs.box)) {
        return Status::FailedPrecondition(
            StrFormat("scene '%s': observation %llu box has a non-finite "
                      "field",
                      name_.c_str(),
                      static_cast<unsigned long long>(obs.id)));
      }
      if (!obs.box.IsValid()) {
        return Status::FailedPrecondition(
            StrFormat("scene '%s': observation %llu has degenerate box "
                      "(non-positive extent)",
                      name_.c_str(),
                      static_cast<unsigned long long>(obs.id)));
      }
      // Negated so NaN confidence fails the range check too.
      if (!(obs.confidence >= 0.0 && obs.confidence <= 1.0)) {
        return Status::FailedPrecondition(
            StrFormat("scene '%s': observation %llu confidence out of range",
                      name_.c_str(),
                      static_cast<unsigned long long>(obs.id)));
      }
    }
  }
  return Status::Ok();
}

size_t Dataset::TotalObservations() const {
  size_t total = 0;
  for (const Scene& s : scenes) total += s.TotalObservations();
  return total;
}

}  // namespace fixy
