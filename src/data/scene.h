// Scene: a short snippet of sensor time ("scenes ... sent to vendors for
// labeling", Section 1) holding per-frame observations and the ego pose.
#ifndef FIXY_DATA_SCENE_H_
#define FIXY_DATA_SCENE_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "data/observation.h"
#include "geometry/vec.h"

namespace fixy {

/// One sensor sweep: all observations proposed for a single timestamp, from
/// all sources, plus the ego vehicle pose at that time.
struct Frame {
  int index = 0;
  /// Seconds since scene start.
  double timestamp = 0.0;
  /// Ego (AV) position in the world ground plane and heading in radians.
  geom::Vec2 ego_position;
  double ego_yaw = 0.0;
  std::vector<Observation> observations;
};

/// A labeled snippet: an ordered sequence of frames at a fixed rate.
class Scene {
 public:
  Scene() = default;
  Scene(std::string name, double frame_rate_hz)
      : name_(std::move(name)), frame_rate_hz_(frame_rate_hz) {}

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  double frame_rate_hz() const { return frame_rate_hz_; }
  void set_frame_rate_hz(double hz) { frame_rate_hz_ = hz; }

  const std::vector<Frame>& frames() const { return frames_; }
  std::vector<Frame>& frames() { return frames_; }

  void AddFrame(Frame frame) { frames_.push_back(std::move(frame)); }

  size_t frame_count() const { return frames_.size(); }

  /// Scene length in seconds (0 for fewer than two frames).
  double DurationSeconds() const;

  /// Total observations across all frames.
  size_t TotalObservations() const;

  /// Observations from a specific source across all frames.
  size_t CountBySource(ObservationSource source) const;

  /// Validates internal consistency: frame rate finite and positive, frame
  /// indices 0..n-1 in order, timestamps finite and non-decreasing, ego
  /// poses finite, observation ids unique within the scene, box fields
  /// finite with strictly positive extents, and confidences in [0, 1]
  /// (NaN rejected). This is the ingestion boundary: garbage that passes
  /// here must at worst rank as low-plausibility, never crash the
  /// pipeline. Returns the first violation found.
  Status Validate() const;

 private:
  std::string name_;
  double frame_rate_hz_ = 10.0;
  std::vector<Frame> frames_;
};

/// A copy of `scene` (name, frame rate, frames and ego poses) keeping only
/// the observations from `source`, in their order.
Scene FilterToSource(const Scene& scene, ObservationSource source);

/// A collection of scenes (e.g. "the entire validation set").
struct Dataset {
  std::string name;
  std::vector<Scene> scenes;

  size_t TotalObservations() const;
};

}  // namespace fixy

#endif  // FIXY_DATA_SCENE_H_
