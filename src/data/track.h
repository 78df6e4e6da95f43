// Observation bundles and tracks — the associated structures LOA scores
// (beta and tau in the paper's syntax, Table 1). Bundles group observations
// of the same object from different sources within one time step; tracks
// chain bundles across time.
#ifndef FIXY_DATA_TRACK_H_
#define FIXY_DATA_TRACK_H_

#include <optional>
#include <string>
#include <vector>

#include "data/observation.h"
#include "geometry/vec.h"

namespace fixy {

/// Observations of (putatively) one object in a single frame, across
/// sources.
struct ObservationBundle {
  int frame_index = 0;
  double timestamp = 0.0;
  /// Ego pose at this frame, copied in so bundle/transition features can
  /// compute ego-relative quantities without scene lookups.
  geom::Vec2 ego_position;
  std::vector<Observation> observations;

  bool empty() const { return observations.empty(); }
  bool HasSource(ObservationSource source) const;
  /// Returns the first observation from `source`, if any.
  const Observation* FindBySource(ObservationSource source) const;
  /// Mean of member box centers (the bundle's consensus position).
  geom::Vec3 MeanCenter() const;
  /// Majority class among member observations (ties broken by enum order).
  /// nullopt for an empty bundle.
  std::optional<ObjectClass> MajorityClass() const;
};

/// A sequence of bundles for one object across time.
class Track {
 public:
  Track() = default;
  explicit Track(TrackId id) : id_(id) {}

  TrackId id() const { return id_; }
  void set_id(TrackId id) { id_ = id; }

  const std::vector<ObservationBundle>& bundles() const { return bundles_; }
  std::vector<ObservationBundle>& bundles() { return bundles_; }
  void AddBundle(ObservationBundle bundle) {
    bundles_.push_back(std::move(bundle));
  }

  size_t size() const { return bundles_.size(); }
  bool empty() const { return bundles_.empty(); }

  /// Total observations across all bundles.
  size_t TotalObservations() const;

  /// True if any member observation comes from `source`.
  bool HasSource(ObservationSource source) const;

  /// Majority class among member observations (ties broken by enum order).
  /// nullopt for an empty track.
  std::optional<ObjectClass> MajorityClass() const;

  int FirstFrame() const;
  int LastFrame() const;

  /// Track duration in seconds (0 for fewer than two bundles).
  double DurationSeconds() const;

  /// Mean detector confidence over model observations; nullopt if the track
  /// has none.
  std::optional<double> MeanModelConfidence() const;

  std::string ToString() const;

 private:
  TrackId id_ = 0;
  std::vector<ObservationBundle> bundles_;
};

/// All tracks assembled from one scene.
struct TrackSet {
  std::string scene_name;
  std::vector<Track> tracks;
};

}  // namespace fixy

#endif  // FIXY_DATA_TRACK_H_
