#include "geometry/box.h"

#include <cmath>

namespace fixy::geom {

std::array<Vec2, 4> Box3d::BevCorners() const {
  const double hl = length / 2.0;
  const double hw = width / 2.0;
  // Local-frame corners, counter-clockwise starting at front-left, each
  // rotated by yaw as Vec2::Rotated does, with one cos and one sin.
  const std::array<Vec2, 4> local = {
      Vec2{hl, hw}, Vec2{-hl, hw}, Vec2{-hl, -hw}, Vec2{hl, -hw}};
  const double c = std::cos(yaw);
  const double s = std::sin(yaw);
  std::array<Vec2, 4> world;
  const Vec2 origin = center.Xy();
  for (size_t i = 0; i < 4; ++i) {
    world[i] = origin + Vec2{c * local[i].x - s * local[i].y,
                             s * local[i].x + c * local[i].y};
  }
  return world;
}

bool Box3d::BevContains(const Vec2& point) const {
  // Transform into the box frame and compare against half extents.
  const Vec2 local = (point - center.Xy()).Rotated(-yaw);
  return std::abs(local.x) <= length / 2.0 + 1e-12 &&
         std::abs(local.y) <= width / 2.0 + 1e-12;
}

}  // namespace fixy::geom
