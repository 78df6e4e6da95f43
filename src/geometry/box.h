// Oriented 3D bounding boxes, the observation geometry used by Fixy.
#ifndef FIXY_GEOMETRY_BOX_H_
#define FIXY_GEOMETRY_BOX_H_

#include <array>

#include "geometry/vec.h"

namespace fixy::geom {

/// An oriented 3D bounding box: axis-aligned in z (gravity-aligned), rotated
/// by `yaw` radians about the vertical axis in the ground (x, y) plane. This
/// is the standard AV-perception box parameterization (as in the Lyft Level
/// 5 and nuScenes datasets).
struct Box3d {
  /// Center of the box in world coordinates (z is the vertical center).
  Vec3 center;
  /// Full extents: length (along heading), width (lateral), height
  /// (vertical). All must be non-negative.
  double length = 0.0;
  double width = 0.0;
  double height = 0.0;
  /// Heading angle in radians, counter-clockwise from +x.
  double yaw = 0.0;

  Box3d() = default;
  Box3d(const Vec3& center_in, double length_in, double width_in,
        double height_in, double yaw_in)
      : center(center_in),
        length(length_in),
        width(width_in),
        height(height_in),
        yaw(yaw_in) {}

  /// Volume in cubic meters.
  double Volume() const { return length * width * height; }

  /// Footprint area in the ground plane, in square meters.
  double BevArea() const { return length * width; }

  /// True if all extents are strictly positive.
  bool IsValid() const { return length > 0.0 && width > 0.0 && height > 0.0; }

  /// The four footprint corners in the ground plane, counter-clockwise
  /// starting from the front-left corner.
  std::array<Vec2, 4> BevCorners() const;

  /// Euclidean distance between the box center and `point` in the ground
  /// plane (the "distance to AV" used by the Distance feature).
  double BevCenterDistance(const Vec2& point) const {
    return (center.Xy() - point).Norm();
  }

  /// True if `point` lies inside (or on the edge of) the footprint.
  bool BevContains(const Vec2& point) const;
};

}  // namespace fixy::geom

#endif  // FIXY_GEOMETRY_BOX_H_
