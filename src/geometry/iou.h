// Intersection-over-union for oriented boxes. BEV IoU drives observation
// association (bundling and tracking) exactly as in the paper's worked
// example ("compute_iou(box1, box2) > 0.5").
#ifndef FIXY_GEOMETRY_IOU_H_
#define FIXY_GEOMETRY_IOU_H_

#include <array>

#include "geometry/box.h"
#include "geometry/vec.h"

namespace fixy::geom {

/// Area of the intersection of two convex quads with counter-clockwise
/// vertices (Sutherland-Hodgman: `subject` clipped by each edge of
/// `clip`). A point up to 1e-12 / |edge| off an edge's inner side counts
/// as inside it. Returns 0 when fewer than 3 vertices survive.
double ConvexQuadIntersectionArea(const std::array<Vec2, 4>& subject,
                                  const std::array<Vec2, 4>& clip);

/// Intersection area of the two box footprints (rotated rectangles).
double BevIntersectionArea(const Box3d& a, const Box3d& b);

/// Birds-eye-view IoU: footprint intersection / footprint union.
/// Returns 0 when either box has a degenerate footprint.
double BevIou(const Box3d& a, const Box3d& b);

}  // namespace fixy::geom

#endif  // FIXY_GEOMETRY_IOU_H_
