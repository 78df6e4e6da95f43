#include "geometry/iou.h"

#include <algorithm>
#include <cmath>

namespace fixy::geom {

namespace {

// True if `p` is on the interior side (left) of the directed edge a->b,
// within tolerance.
bool Inside(const Vec2& p, const Vec2& a, const Vec2& b) {
  return (b - a).Cross(p - a) >= -1e-12;
}

// Intersection point of segment p1->p2 with the infinite line through a->b.
Vec2 LineIntersection(const Vec2& p1, const Vec2& p2, const Vec2& a,
                      const Vec2& b) {
  const Vec2 r = p2 - p1;
  const Vec2 s = b - a;
  const double denom = r.Cross(s);
  if (std::abs(denom) < 1e-15) {
    // Parallel within tolerance; fall back to the segment midpoint, which is
    // the best degenerate answer and keeps areas bounded.
    return (p1 + p2) * 0.5;
  }
  const double t = (a - p1).Cross(s) / denom;
  return p1 + r * t;
}

// A clip vertex without Vec2's default member initialisers: an array of
// these is trivially default-constructible, so it is not zero-filled.
struct RawVertex {
  double x;
  double y;

  RawVertex& operator=(const Vec2& v) {
    x = v.x;
    y = v.y;
    return *this;
  }
  Vec2 ToVec2() const { return {x, y}; }
};

// Broad phase. Two footprints whose circumcircles are more than
// kBroadPhaseMargin apart cannot meet, and inside the envelope below the
// quad clip returns exactly 0 for them, so the reject returns the clip's
// own value without clipping. Outside the envelope the clip's absolute
// tolerances decide: `Inside` admits points up to 1e-12/|edge| m off an
// edge, and far from the origin the corners round by more than the
// margin. DESIGN.md §10 has the argument.
constexpr double kBroadPhaseMargin = 1e-6;     // m between circumcircles
constexpr double kBroadPhaseMinSide = 1e-4;    // m, shortest footprint side
constexpr double kBroadPhaseMaxCoord = 1e7;    // m, any footprint coordinate

}  // namespace

BevFootprint::BevFootprint(const Box3d& box)
    : corners(box.BevCorners()),
      center(box.center.Xy()),
      area(box.BevArea()),
      radius(0.5 * std::sqrt(box.length * box.length + box.width * box.width)),
      valid(box.IsValid()),
      // NaN fails every comparison and infinities exceed the coordinate
      // bound, so non-finite centres and extents stay outside. Yaw does
      // not enter: the circumcircle is the same at any heading.
      in_envelope(box.length >= kBroadPhaseMinSide &&
                  box.width >= kBroadPhaseMinSide &&
                  std::abs(center.x) + radius <= kBroadPhaseMaxCoord &&
                  std::abs(center.y) + radius <= kBroadPhaseMaxCoord) {}

double ConvexQuadIntersectionArea(const std::array<Vec2, 4>& subject,
                                  const std::array<Vec2, 4>& clip) {
  // Each pass emits at most two vertices per input vertex, so the four
  // passes grow a quad to at most 4 * 2^4 = 64 vertices, whatever the
  // inputs (NaNs included). The buffers hold RawVertex, not Vec2, so they
  // are left uninitialised rather than zero-filled on every clip.
  RawVertex buffers[2][64];
  std::copy(subject.begin(), subject.end(), buffers[0]);
  size_t count = subject.size();
  int in = 0;
  for (size_t i = 0; i < clip.size() && count != 0; ++i) {
    const Vec2& a = clip[i];
    const Vec2& b = clip[(i + 1) % clip.size()];
    const RawVertex* input = buffers[in];
    RawVertex* output = buffers[1 - in];
    size_t emitted = 0;
    // Each vertex is tested once: its result is carried as the next
    // vertex's `prev_inside`, starting from the last vertex.
    Vec2 prev = input[count - 1].ToVec2();
    bool prev_inside = Inside(prev, a, b);
    for (size_t j = 0; j < count; ++j) {
      const Vec2 current = input[j].ToVec2();
      const bool current_inside = Inside(current, a, b);
      if (current_inside) {
        if (!prev_inside) {
          output[emitted++] = LineIntersection(prev, current, a, b);
        }
        output[emitted++] = current;
      } else if (prev_inside) {
        output[emitted++] = LineIntersection(prev, current, a, b);
      }
      prev = current;
      prev_inside = current_inside;
    }
    count = emitted;
    in = 1 - in;
  }
  if (count < 3) return 0.0;
  // The shoelace sum starts at vertex 0 and closes with the last edge;
  // the order fixes the area's bits.
  const RawVertex* polygon = buffers[in];
  double sum = 0.0;
  for (size_t i = 0; i + 1 < count; ++i) {
    sum += polygon[i].ToVec2().Cross(polygon[i + 1].ToVec2());
  }
  sum += polygon[count - 1].ToVec2().Cross(polygon[0].ToVec2());
  return std::abs(sum / 2.0);
}

double BevIntersectionArea(const BevFootprint& a, const BevFootprint& b) {
  if (!a.valid || !b.valid) return 0.0;
  if (a.in_envelope && b.in_envelope) {
    const double dx = a.center.x - b.center.x;
    const double dy = a.center.y - b.center.y;
    const double reach = a.radius + b.radius + kBroadPhaseMargin;
    if (dx * dx + dy * dy > reach * reach) return 0.0;
  }
  return ConvexQuadIntersectionArea(a.corners, b.corners);
}

double BevIntersectionArea(const Box3d& a, const Box3d& b) {
  return BevIntersectionArea(BevFootprint(a), BevFootprint(b));
}

double BevIou(const BevFootprint& a, const BevFootprint& b) {
  if (!a.valid || !b.valid) return 0.0;
  const double inter = BevIntersectionArea(a, b);
  const double uni = a.area + b.area - inter;
  if (uni <= 0.0) return 0.0;
  return std::clamp(inter / uni, 0.0, 1.0);
}

double BevIou(const Box3d& a, const Box3d& b) {
  return BevIou(BevFootprint(a), BevFootprint(b));
}

}  // namespace fixy::geom
