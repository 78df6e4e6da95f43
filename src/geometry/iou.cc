#include "geometry/iou.h"

#include <algorithm>
#include <cmath>

namespace fixy::geom {

namespace {

// Broad phase. Two footprints whose circumcircles are more than
// kBroadPhaseMargin apart cannot meet, and inside the envelope below the
// polygon clip returns exactly 0 for them, so the reject returns the
// clip's own value without building either polygon. Outside the envelope
// the clip's absolute tolerances decide: `Inside` admits points up to
// 1e-12/|edge| m off an edge, and far from the origin the corners round
// by more than the margin. DESIGN.md §10 has the argument.
constexpr double kBroadPhaseMargin = 1e-6;     // m between circumcircles
constexpr double kBroadPhaseMinSide = 1e-4;    // m, shortest footprint side
constexpr double kBroadPhaseMaxCoord = 1e7;    // m, any footprint coordinate

// True when the footprints are certainly disjoint. NaN fails every
// comparison and infinities exceed the coordinate bound, so non-finite
// centres and extents fall through to the clip. Yaw does not enter the
// test: the circumcircle is the same at any heading.
bool FootprintsApart(const Box3d& a, const Box3d& b) {
  const double ra = 0.5 * std::sqrt(a.length * a.length + a.width * a.width);
  const double rb = 0.5 * std::sqrt(b.length * b.length + b.width * b.width);
  const auto in_envelope = [](const Box3d& box, double r) {
    return box.length >= kBroadPhaseMinSide &&
           box.width >= kBroadPhaseMinSide &&
           std::abs(box.center.x) + r <= kBroadPhaseMaxCoord &&
           std::abs(box.center.y) + r <= kBroadPhaseMaxCoord;
  };
  if (!in_envelope(a, ra) || !in_envelope(b, rb)) return false;
  const double dx = a.center.x - b.center.x;
  const double dy = a.center.y - b.center.y;
  const double reach = ra + rb + kBroadPhaseMargin;
  return dx * dx + dy * dy > reach * reach;
}

}  // namespace

ConvexPolygon BoxBevPolygon(const Box3d& box) {
  const auto corners = box.BevCorners();
  return ConvexPolygon(std::vector<Vec2>(corners.begin(), corners.end()));
}

double BevIntersectionArea(const Box3d& a, const Box3d& b) {
  if (!a.IsValid() || !b.IsValid()) return 0.0;
  if (FootprintsApart(a, b)) return 0.0;
  return BoxBevPolygon(a).Intersect(BoxBevPolygon(b)).Area();
}

double BevIou(const Box3d& a, const Box3d& b) {
  if (!a.IsValid() || !b.IsValid()) return 0.0;
  const double inter = BevIntersectionArea(a, b);
  const double uni = a.BevArea() + b.BevArea() - inter;
  if (uni <= 0.0) return 0.0;
  return std::clamp(inter / uni, 0.0, 1.0);
}

double Iou3d(const Box3d& a, const Box3d& b) {
  if (!a.IsValid() || !b.IsValid()) return 0.0;
  const double bev_inter = BevIntersectionArea(a, b);
  const double z_overlap =
      std::max(0.0, std::min(a.ZMax(), b.ZMax()) - std::max(a.ZMin(), b.ZMin()));
  const double inter = bev_inter * z_overlap;
  const double uni = a.Volume() + b.Volume() - inter;
  if (uni <= 0.0) return 0.0;
  return std::clamp(inter / uni, 0.0, 1.0);
}

}  // namespace fixy::geom
