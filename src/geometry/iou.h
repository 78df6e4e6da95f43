// Intersection-over-union for oriented boxes. BEV IoU drives observation
// association (bundling and tracking) exactly as in the paper's worked
// example ("compute_iou(box1, box2) > 0.5").
#ifndef FIXY_GEOMETRY_IOU_H_
#define FIXY_GEOMETRY_IOU_H_

#include <array>

#include "geometry/box.h"
#include "geometry/vec.h"

namespace fixy::geom {

/// Everything BevIou reads of one box, computed once: a box tested
/// against k others pays for its corners and circumradius once, not k
/// times.
struct BevFootprint {
  BevFootprint() = default;
  explicit BevFootprint(const Box3d& box);

  /// Box3d::BevCorners(), counter-clockwise from the front-left corner.
  std::array<Vec2, 4> corners;
  Vec2 center;
  /// Box3d::BevArea().
  double area = 0.0;
  /// ½·√(length² + width²): the footprint at any yaw lies within this
  /// distance of the centre.
  double radius = 0.0;
  /// Box3d::IsValid(): every extent, height included, is positive.
  bool valid = false;
  /// True when the broad phase may decide this box's pairs: both BEV
  /// sides are at least 1e-4 m and the circumcircle lies within 1e7 m of
  /// the origin on both axes (DESIGN.md §10).
  bool in_envelope = false;
};

/// Area of the intersection of two convex quads with counter-clockwise
/// vertices (Sutherland-Hodgman: `subject` clipped by each edge of
/// `clip`). A point up to 1e-12 / |edge| off an edge's inner side counts
/// as inside it. Returns 0 when fewer than 3 vertices survive.
double ConvexQuadIntersectionArea(const std::array<Vec2, 4>& subject,
                                  const std::array<Vec2, 4>& clip);

/// Intersection area of two footprints (rotated rectangles): 0 when
/// either box is invalid or the broad phase proves them apart, otherwise
/// the quad clip's area.
double BevIntersectionArea(const BevFootprint& a, const BevFootprint& b);
double BevIntersectionArea(const Box3d& a, const Box3d& b);

/// Birds-eye-view IoU: footprint intersection / footprint union.
/// Returns 0 when either box has a degenerate footprint.
double BevIou(const BevFootprint& a, const BevFootprint& b);
double BevIou(const Box3d& a, const Box3d& b);

}  // namespace fixy::geom

#endif  // FIXY_GEOMETRY_IOU_H_
