#include "sim/world.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "geometry/iou.h"
#include "sim/object_priors.h"

namespace fixy::sim {

namespace {

constexpr double kLaneOffsets[] = {2.0, 5.5, -2.0, -5.5};
constexpr double kParkedOffsets[] = {8.5, -8.5};

// Minimum bumper-to-bumper gap enforced between vehicles sharing a lane.
constexpr double kFollowingGap = 2.5;

ObjectClass SampleClass(const WorldParams& params, Rng& rng) {
  const std::vector<double> weights = {
      params.car_weight, params.truck_weight, params.pedestrian_weight,
      params.motorcycle_weight};
  return static_cast<ObjectClass>(rng.Categorical(weights));
}

// Mutable simulation state of one object.
struct SimObject {
  GtObject object;
  geom::Vec2 position;
  double heading = 0.0;
  double speed = 0.0;
  /// Index into kLaneOffsets for moving vehicles; -1 otherwise.
  int lane = -1;
};

geom::Box3d BoxOf(const SimObject& so) {
  return geom::Box3d(
      geom::Vec3(so.position.x, so.position.y, so.object.height / 2.0),
      so.object.length, so.object.width, so.object.height, so.heading);
}

// Samples an object's class, size, kinematic role, and a spawn pose that
// does not overlap already-placed objects, given by their footprints
// (rejection sampling; gives up after a bounded number of tries and
// accepts the overlap — rare, and better than looping forever in a
// saturated world).
SimObject SpawnObject(uint64_t gt_id, const WorldParams& params,
                      double spawn_x_lo, double spawn_x_hi,
                      const std::vector<geom::BevFootprint>& placed,
                      Rng& rng) {
  SimObject so;
  so.object.gt_id = gt_id;
  so.object.object_class = SampleClass(params, rng);
  const SampledSize size = SampleSize(so.object.object_class, rng);
  so.object.length = size.length;
  so.object.width = size.width;
  so.object.height = size.height;
  so.speed = SampleSpeed(so.object.object_class, rng);

  for (int attempt = 0; attempt < 25; ++attempt) {
    if (so.object.object_class == ObjectClass::kPedestrian) {
      const double side = rng.Bernoulli(0.5) ? 1.0 : -1.0;
      so.position = {rng.Uniform(spawn_x_lo, spawn_x_hi),
                     side * rng.Uniform(9.0, 13.0)};
      so.heading = rng.Uniform(0.0, 2.0 * M_PI);
      so.lane = -1;
    } else if (so.speed == 0.0) {
      const double offset =
          kParkedOffsets[rng.UniformInt(std::size(kParkedOffsets))];
      so.position = {rng.Uniform(spawn_x_lo, spawn_x_hi), offset};
      so.heading = offset > 0 ? 0.0 : M_PI;
      so.lane = -1;
    } else {
      so.lane = static_cast<int>(rng.UniformInt(std::size(kLaneOffsets)));
      const double lane_y = kLaneOffsets[so.lane];
      so.position = {rng.Uniform(spawn_x_lo, spawn_x_hi), lane_y};
      so.heading = lane_y > 0 ? 0.0 : M_PI;
    }
    const geom::BevFootprint footprint(BoxOf(so));
    bool collides = false;
    for (const geom::BevFootprint& other : placed) {
      if (geom::BevIou(footprint, other) > 0.02) {
        collides = true;
        break;
      }
    }
    if (!collides) break;
  }
  return so;
}

// Advances one object by dt, without regard to neighbors.
void AdvanceFreely(SimObject* so, double dt, Rng& rng) {
  if (so->object.object_class == ObjectClass::kPedestrian &&
      so->speed > 0.0) {
    so->heading += rng.Normal(0.0, 0.35);
    geom::Vec2 step = geom::Vec2(std::cos(so->heading),
                                 std::sin(so->heading)) *
                      (so->speed * dt);
    // Keep pedestrians off the roadway.
    if (std::abs((so->position + step).y) < 8.0) {
      step.y = -step.y;
      so->heading = -so->heading;
    }
    so->position += step;
  } else if (so->speed > 0.0) {
    so->speed = std::max(0.0, so->speed + rng.Normal(0.0, 0.05));
    so->heading += rng.Normal(0.0, 0.004);
    so->position += geom::Vec2(std::cos(so->heading),
                               std::sin(so->heading)) *
                    (so->speed * dt);
  }
}

// Car-following constraint: within each (lane, direction) group, a vehicle
// may not advance past the rear bumper of the vehicle ahead minus the
// following gap. Direction follows the lane sign, so ordering along the
// direction of travel is ordering in signed x.
void EnforceFollowing(std::vector<SimObject>* objects) {
  for (size_t lane = 0; lane < std::size(kLaneOffsets); ++lane) {
    // Collect the lane's vehicles, sorted front-to-back along travel.
    std::vector<SimObject*> members;
    for (SimObject& so : *objects) {
      if (so.lane == static_cast<int>(lane) && so.speed > 0.0) {
        members.push_back(&so);
      }
    }
    if (members.size() < 2) continue;
    const double direction = kLaneOffsets[lane] > 0 ? 1.0 : -1.0;
    std::sort(members.begin(), members.end(),
              [direction](const SimObject* a, const SimObject* b) {
                return direction * a->position.x >
                       direction * b->position.x;
              });
    for (size_t i = 1; i < members.size(); ++i) {
      SimObject* follower = members[i];
      const SimObject* leader = members[i - 1];
      const double min_separation = (leader->object.length +
                                     follower->object.length) /
                                        2.0 +
                                    kFollowingGap;
      const double gap = direction * (leader->position.x -
                                      follower->position.x);
      if (gap < min_separation) {
        follower->position.x =
            leader->position.x - direction * min_separation;
        // Match the leader's speed so the constraint does not re-trigger
        // every frame.
        follower->speed = std::min(follower->speed, leader->speed);
      }
    }
  }
}

}  // namespace

GtScene GenerateWorld(const WorldParams& params, const std::string& name,
                      Rng& rng) {
  FIXY_CHECK(params.duration_seconds > 0.0);
  FIXY_CHECK(params.frame_rate_hz > 0.0);

  GtScene scene;
  scene.name = name;
  scene.frame_rate_hz = params.frame_rate_hz;
  scene.num_frames = static_cast<int>(
      std::lround(params.duration_seconds * params.frame_rate_hz));
  FIXY_CHECK(scene.num_frames >= 1);

  const double dt = 1.0 / params.frame_rate_hz;
  scene.ego_positions.reserve(static_cast<size_t>(scene.num_frames));
  scene.ego_yaws.reserve(static_cast<size_t>(scene.num_frames));
  for (int f = 0; f < scene.num_frames; ++f) {
    scene.ego_positions.push_back(
        {params.ego_speed_mps * dt * static_cast<double>(f), 0.0});
    scene.ego_yaws.push_back(0.0);
  }

  const double spawn_x_lo = -params.spawn_behind_meters;
  const double spawn_x_hi =
      scene.ego_positions.back().x + params.spawn_ahead_meters;

  const int object_count = std::max(1, rng.Poisson(params.mean_object_count));
  std::vector<SimObject> objects;
  std::vector<geom::BevFootprint> footprints;
  objects.reserve(static_cast<size_t>(object_count));
  footprints.reserve(static_cast<size_t>(object_count));
  for (int i = 0; i < object_count; ++i) {
    objects.push_back(SpawnObject(static_cast<uint64_t>(i), params,
                                  spawn_x_lo, spawn_x_hi, footprints, rng));
    footprints.emplace_back(BoxOf(objects.back()));
  }
  EnforceFollowing(&objects);

  // Frame loop: record states, then advance everything in lock step.
  for (int f = 0; f < scene.num_frames; ++f) {
    for (SimObject& so : objects) {
      GtState state;
      state.position = so.position;
      state.yaw = so.heading;
      state.speed = so.speed;
      so.object.states.push_back(state);
    }
    for (SimObject& so : objects) {
      AdvanceFreely(&so, dt, rng);
    }
    EnforceFollowing(&objects);
  }

  scene.objects.reserve(objects.size());
  for (SimObject& so : objects) {
    scene.objects.push_back(std::move(so.object));
  }
  return scene;
}

}  // namespace fixy::sim
