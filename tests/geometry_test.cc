// Tests for src/geometry: vectors, boxes, the quad clip, IoU — golden
// values plus parameterized property sweeps (symmetry, bounds, identity),
// the bit-exactness of the IoU broad phase against the clip, and a CRC-32
// pinning the overlap bits.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "common/crc32.h"
#include "common/random.h"
#include "geometry/box.h"
#include "geometry/iou.h"
#include "geometry/vec.h"

namespace fixy::geom {
namespace {

constexpr double kEps = 1e-9;

// ------------------------------------------------------------------ Vec

TEST(VecTest, Arithmetic) {
  const Vec2 a{1.0, 2.0};
  const Vec2 b{3.0, -1.0};
  EXPECT_EQ(a + b, Vec2(4.0, 1.0));
  EXPECT_EQ(a - b, Vec2(-2.0, 3.0));
  EXPECT_EQ(a * 2.0, Vec2(2.0, 4.0));
  EXPECT_EQ(2.0 * a, Vec2(2.0, 4.0));
  EXPECT_EQ(a / 2.0, Vec2(0.5, 1.0));
}

TEST(VecTest, DotAndCross) {
  const Vec2 x{1.0, 0.0};
  const Vec2 y{0.0, 1.0};
  EXPECT_DOUBLE_EQ(x.Dot(y), 0.0);
  EXPECT_DOUBLE_EQ(x.Cross(y), 1.0);
  EXPECT_DOUBLE_EQ(y.Cross(x), -1.0);
}

TEST(VecTest, NormAndSquaredNorm) {
  const Vec2 v{3.0, 4.0};
  EXPECT_DOUBLE_EQ(v.Norm(), 5.0);
  EXPECT_DOUBLE_EQ(v.SquaredNorm(), 25.0);
}

TEST(VecTest, RotationQuarterTurn) {
  const Vec2 v{1.0, 0.0};
  const Vec2 r = v.Rotated(M_PI / 2.0);
  EXPECT_NEAR(r.x, 0.0, kEps);
  EXPECT_NEAR(r.y, 1.0, kEps);
}

TEST(VecTest, RotationPreservesNorm) {
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    const Vec2 v{rng.Uniform(-10, 10), rng.Uniform(-10, 10)};
    const double angle = rng.Uniform(0, 2 * M_PI);
    EXPECT_NEAR(v.Rotated(angle).Norm(), v.Norm(), 1e-9);
  }
}

TEST(Vec3Test, BasicOps) {
  const Vec3 a{1, 2, 3};
  const Vec3 b{4, 5, 6};
  EXPECT_EQ(a + b, Vec3(5, 7, 9));
  EXPECT_DOUBLE_EQ(a.Dot(b), 32.0);
  EXPECT_EQ(a.Xy(), Vec2(1, 2));
}

// ------------------------------------------------------------------ Box

TEST(BoxTest, VolumeAndArea) {
  const Box3d box({0, 0, 1}, 4.0, 2.0, 1.5, 0.0);
  EXPECT_DOUBLE_EQ(box.Volume(), 12.0);
  EXPECT_DOUBLE_EQ(box.BevArea(), 8.0);
}

TEST(BoxTest, Validity) {
  EXPECT_TRUE(Box3d({0, 0, 0}, 1, 1, 1, 0).IsValid());
  EXPECT_FALSE(Box3d({0, 0, 0}, 0, 1, 1, 0).IsValid());
  EXPECT_FALSE(Box3d().IsValid());
}

TEST(BoxTest, AxisAlignedCorners) {
  const Box3d box({0, 0, 0}, 4.0, 2.0, 1.0, 0.0);
  const auto corners = box.BevCorners();
  EXPECT_NEAR(corners[0].x, 2.0, kEps);
  EXPECT_NEAR(corners[0].y, 1.0, kEps);
  EXPECT_NEAR(corners[2].x, -2.0, kEps);
  EXPECT_NEAR(corners[2].y, -1.0, kEps);
}

TEST(BoxTest, RotatedCornersStayAtRadius) {
  const Box3d box({5, 5, 0}, 4.0, 2.0, 1.0, 0.7);
  const double radius = std::sqrt(4.0 + 1.0);  // half-diagonal
  for (const Vec2& corner : box.BevCorners()) {
    EXPECT_NEAR((corner - Vec2{5, 5}).Norm(), radius, kEps);
  }
}

TEST(BoxTest, BevContains) {
  const Box3d box({0, 0, 0}, 4.0, 2.0, 1.0, 0.0);
  EXPECT_TRUE(box.BevContains({0, 0}));
  EXPECT_TRUE(box.BevContains({1.9, 0.9}));
  EXPECT_FALSE(box.BevContains({2.1, 0}));
  EXPECT_FALSE(box.BevContains({0, 1.1}));
}

TEST(BoxTest, BevContainsRotated) {
  const Box3d box({0, 0, 0}, 4.0, 2.0, 1.0, M_PI / 2.0);
  // After a quarter turn, length lies along y.
  EXPECT_TRUE(box.BevContains({0, 1.9}));
  EXPECT_FALSE(box.BevContains({1.9, 0}));
}

TEST(BoxTest, CenterDistance) {
  const Box3d box({3, 4, 0}, 1, 1, 1, 0);
  EXPECT_DOUBLE_EQ(box.BevCenterDistance({0, 0}), 5.0);
}

// ------------------------------------------------------------ Quad clip

using Quad = std::array<Vec2, 4>;

constexpr Quad kUnitSquare = {{{0, 0}, {1, 0}, {1, 1}, {0, 1}}};

// A quad clipped by itself keeps every vertex, so the area is exactly its
// shoelace sum.
TEST(PolygonTest, AreaOfSquare) {
  EXPECT_DOUBLE_EQ(ConvexQuadIntersectionArea(kUnitSquare, kUnitSquare), 1.0);
}

// A zero-width quad (a segment) has no area, as subject or as clip.
TEST(PolygonTest, EmptyAndDegenerate) {
  const Quad segment = {{{0, 0}, {1, 1}, {1, 1}, {0, 0}}};
  EXPECT_DOUBLE_EQ(ConvexQuadIntersectionArea(segment, kUnitSquare), 0.0);
  EXPECT_DOUBLE_EQ(ConvexQuadIntersectionArea(kUnitSquare, segment), 0.0);
}

TEST(PolygonTest, SelfIntersectionIsIdentity) {
  EXPECT_NEAR(ConvexQuadIntersectionArea(kUnitSquare, kUnitSquare), 1.0,
              1e-9);
}

TEST(PolygonTest, HalfOverlapSquares) {
  const Quad b = {{{0.5, 0}, {1.5, 0}, {1.5, 1}, {0.5, 1}}};
  EXPECT_NEAR(ConvexQuadIntersectionArea(kUnitSquare, b), 0.5, 1e-9);
}

TEST(PolygonTest, DisjointSquares) {
  const Quad b = {{{2, 2}, {3, 2}, {3, 3}, {2, 3}}};
  EXPECT_DOUBLE_EQ(ConvexQuadIntersectionArea(kUnitSquare, b), 0.0);
}

TEST(PolygonTest, ContainedSquare) {
  const Quad outer = {{{-2, -2}, {2, -2}, {2, 2}, {-2, 2}}};
  EXPECT_NEAR(ConvexQuadIntersectionArea(outer, kUnitSquare), 1.0, 1e-9);
  EXPECT_NEAR(ConvexQuadIntersectionArea(kUnitSquare, outer), 1.0, 1e-9);
}

TEST(PolygonTest, DiamondSquareIntersection) {
  // A diamond with unit diagonals (area 0.5) centered in a 2x2 square:
  // fully contained.
  const Quad square = {{{-1, -1}, {1, -1}, {1, 1}, {-1, 1}}};
  const Quad diamond = {{{0.0, -0.5}, {0.5, 0.0}, {0.0, 0.5}, {-0.5, 0.0}}};
  EXPECT_NEAR(ConvexQuadIntersectionArea(square, diamond), 0.5, 1e-9);
}

TEST(PolygonTest, IntersectionIsCommutativeInArea) {
  Rng rng(71);
  for (int i = 0; i < 50; ++i) {
    const Box3d a({rng.Uniform(-2, 2), rng.Uniform(-2, 2), 0},
                  rng.Uniform(0.5, 4), rng.Uniform(0.5, 3), 1.0,
                  rng.Uniform(0, 2 * M_PI));
    const Box3d b({rng.Uniform(-2, 2), rng.Uniform(-2, 2), 0},
                  rng.Uniform(0.5, 4), rng.Uniform(0.5, 3), 1.0,
                  rng.Uniform(0, 2 * M_PI));
    const double ab =
        ConvexQuadIntersectionArea(a.BevCorners(), b.BevCorners());
    const double ba =
        ConvexQuadIntersectionArea(b.BevCorners(), a.BevCorners());
    EXPECT_NEAR(ab, ba, 1e-8);
  }
}

// ------------------------------------------------------------------ IoU

TEST(IouTest, IdenticalBoxes) {
  const Box3d box({1, 2, 0.5}, 4, 2, 1, 0.3);
  EXPECT_NEAR(BevIou(box, box), 1.0, 1e-9);
}

TEST(IouTest, DisjointBoxes) {
  const Box3d a({0, 0, 0.5}, 2, 2, 1, 0);
  const Box3d b({10, 0, 0.5}, 2, 2, 1, 0);
  EXPECT_DOUBLE_EQ(BevIou(a, b), 0.0);
}

TEST(IouTest, HalfOverlapGolden) {
  // Two 2x2 squares offset by 1 along x: intersection 2, union 6.
  const Box3d a({0, 0, 0.5}, 2, 2, 1, 0);
  const Box3d b({1, 0, 0.5}, 2, 2, 1, 0);
  EXPECT_NEAR(BevIou(a, b), 2.0 / 6.0, 1e-9);
}

TEST(IouTest, RotationInvarianceOfIdenticalPairs) {
  Rng rng(5);
  for (int i = 0; i < 30; ++i) {
    const double yaw = rng.Uniform(0, 2 * M_PI);
    const Box3d a({0, 0, 0.5}, 4, 2, 1, yaw);
    EXPECT_NEAR(BevIou(a, a), 1.0, 1e-9);
  }
}

TEST(IouTest, Rotated45DegreeGolden) {
  // Unit square vs the same square rotated 45 degrees: intersection is a
  // regular octagon with area 2*(sqrt(2)-1) ~= 0.8284.
  const Box3d a({0, 0, 0.5}, 1, 1, 1, 0);
  const Box3d b({0, 0, 0.5}, 1, 1, 1, M_PI / 4.0);
  const double inter = 2.0 * (std::sqrt(2.0) - 1.0);
  const double uni = 2.0 - inter;
  EXPECT_NEAR(BevIou(a, b), inter / uni, 1e-6);
}

TEST(IouTest, DegenerateBoxGivesZero) {
  const Box3d degenerate({0, 0, 0}, 0, 2, 1, 0);
  const Box3d box({0, 0, 0.5}, 2, 2, 1, 0);
  EXPECT_DOUBLE_EQ(BevIou(degenerate, box), 0.0);
}

// BEV IoU reads the footprints only: boxes with no vertical overlap but the
// same footprint score 1.
TEST(IouTest, BevIouIgnoresVerticalSeparation) {
  const Box3d low({0, 0, 0.5}, 2, 2, 1, 0);
  const Box3d high({0, 0, 5.0}, 2, 2, 1, 0);
  EXPECT_NEAR(BevIou(low, high), 1.0, 1e-9);
}

// Property sweep: BEV IoU is symmetric and bounded.
class IouPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IouPropertyTest, SymmetricAndBounded) {
  Rng rng(GetParam());
  for (int i = 0; i < 100; ++i) {
    const Box3d a({rng.Uniform(-5, 5), rng.Uniform(-5, 5),
                   rng.Uniform(0, 2)},
                  rng.Uniform(0.3, 6), rng.Uniform(0.3, 3),
                  rng.Uniform(0.5, 3), rng.Uniform(0, 2 * M_PI));
    const Box3d b({rng.Uniform(-5, 5), rng.Uniform(-5, 5),
                   rng.Uniform(0, 2)},
                  rng.Uniform(0.3, 6), rng.Uniform(0.3, 3),
                  rng.Uniform(0.5, 3), rng.Uniform(0, 2 * M_PI));
    const double bev = BevIou(a, b);
    EXPECT_GE(bev, 0.0);
    EXPECT_LE(bev, 1.0);
    EXPECT_NEAR(bev, BevIou(b, a), 1e-8);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IouPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// Property: translating both boxes together leaves IoU unchanged.
class IouTranslationTest : public ::testing::TestWithParam<double> {};

TEST_P(IouTranslationTest, TranslationInvariant) {
  const double shift = GetParam();
  const Box3d a({0, 0, 0.5}, 4, 2, 1, 0.4);
  const Box3d b({1, 0.5, 0.5}, 3, 2, 1, 0.9);
  Box3d a2 = a;
  Box3d b2 = b;
  a2.center.x += shift;
  a2.center.y -= shift;
  b2.center.x += shift;
  b2.center.y -= shift;
  EXPECT_NEAR(BevIou(a, b), BevIou(a2, b2), 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Shifts, IouTranslationTest,
                         ::testing::Values(-100.0, -1.5, 0.0, 2.5, 1000.0));

// ------------------------------------------------ Broad-phase exactness

// BevIntersectionArea skips the quad clip for footprints whose
// circumcircles are more than 1e-6 m apart, inside an envelope where the
// clip returns exactly 0 for them: every BEV side >= 1e-4 m and every
// footprint coordinate within 1e7 m of the origin. These tests hold both
// IoU entry points to the clip's own values, bit for bit, inside and
// outside that envelope.
constexpr double kBroadPhaseMargin = 1e-6;
constexpr double kBroadPhaseMinSide = 1e-4;
constexpr double kBroadPhaseMaxCoord = 1e7;
constexpr int kBroadPhasePairs = 25000;

double ClipArea(const Box3d& a, const Box3d& b) {
  return ConvexQuadIntersectionArea(a.BevCorners(), b.BevCorners());
}

double ClipBevIou(const Box3d& a, const Box3d& b) {
  const double inter = ClipArea(a, b);
  const double uni = a.BevArea() + b.BevArea() - inter;
  if (uni <= 0.0) return 0.0;
  return std::clamp(inter / uni, 0.0, 1.0);
}

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

double CircumRadius(const Box3d& box) {
  return 0.5 * std::sqrt(box.length * box.length + box.width * box.width);
}

std::string DescribePair(const Box3d& a, const Box3d& b) {
  const auto one = [](const Box3d& box) {
    char text[160];
    std::snprintf(text, sizeof(text), "{c=(%.17g, %.17g) l=%.17g w=%.17g "
                  "yaw=%.17g}", box.center.x, box.center.y, box.length,
                  box.width, box.yaw);
    return std::string(text);
  };
  return one(a) + " vs " + one(b);
}

// Number of the two entry points that differ from the clip in any bit.
int ClipMismatches(const Box3d& a, const Box3d& b) {
  return (Bits(BevIntersectionArea(a, b)) != Bits(ClipArea(a, b))) +
         (Bits(BevIou(a, b)) != Bits(ClipBevIou(a, b)));
}

// A sampling envelope: extents are log-uniform on [min_extent,
// max_extent], centre coordinates have log-uniform magnitudes on
// [min_coord, max_coord] and a random sign, yaws are arbitrary, and the
// second box sits at the circumradius sum plus or minus a log-uniform gap
// of 1e-12..1 m. Each envelope names how many of its pairs must land in
// the reject region and fall through each guard, so a sampler that stops
// reaching a region fails instead of passing vacuously.
struct BroadPhaseEnvelope {
  const char* name;
  uint64_t seed;
  double min_extent;
  double max_extent;
  double min_coord;
  double max_coord;
  int min_rejected;
  int min_small_side;
  int min_far_coord;
};

void PrintTo(const BroadPhaseEnvelope& envelope, std::ostream* os) {
  *os << envelope.name;
}

double LogUniform(Rng& rng, double lo, double hi) {
  return std::exp(rng.Uniform(std::log(lo), std::log(hi)));
}

// One pair drawn from `env`, with the gap its circumcircles were placed at.
// Every draw is its own statement, so the pairs do not depend on the
// compiler's argument evaluation order: each box draws its yaw, height,
// width and length, then the first box its centre.
struct EnvelopePair {
  Box3d a;
  Box3d b;
  double gap = 0.0;
};

EnvelopePair SamplePair(Rng& rng, const BroadPhaseEnvelope& env) {
  const auto extent = [&] {
    return LogUniform(rng, env.min_extent, env.max_extent);
  };
  const auto coord = [&] {
    const double magnitude = LogUniform(rng, env.min_coord, env.max_coord);
    return rng.Bernoulli(0.5) ? magnitude : -magnitude;
  };
  const auto shape = [&] {
    Box3d box;
    box.yaw = rng.Uniform(-4 * M_PI, 4 * M_PI);
    box.height = extent();
    box.width = extent();
    box.length = extent();
    return box;
  };
  EnvelopePair pair;
  Box3d& a = pair.a;
  Box3d& b = pair.b;
  a = shape();
  a.center = {coord(), coord(), rng.Uniform(-1, 1)};
  b = shape();
  pair.gap = rng.Bernoulli(0.5) ? 1.0 : -1.0;
  pair.gap *= LogUniform(rng, 1e-12, 1.0);
  const double distance =
      std::max(0.0, CircumRadius(a) + CircumRadius(b) + pair.gap);
  const double angle = rng.Uniform(0, 2 * M_PI);
  b.center = {a.center.x + distance * std::cos(angle),
              a.center.y + distance * std::sin(angle),
              a.center.z + rng.Uniform(-1, 1) * (a.height + b.height)};
  return pair;
}

constexpr BroadPhaseEnvelope kEnvelopes[] = {
    // Inside the envelope: the reject decides about a quarter of pairs.
    {"guarded", 11, 1e-4, 10, 1e-3, 1e6, 4000, 0, 0},
    // Every box has a side below 1e-4 m: all pairs go to the clip.
    {"small_sides", 12, 1e-9, 1e-4, 1e-3, 1e6, 0, kBroadPhasePairs, 0},
    // Every centre is beyond 1e7 m: all pairs go to the clip.
    {"far_centres", 13, 1e-4, 10, 1e7, 1e12, 0, 0, kBroadPhasePairs},
    // The whole mixture: extents 1e-9..10 m, centres out to 1e12 m.
    {"mixed", 14, 1e-9, 10, 1e-3, 1e12, 100, 20000, 10000}};

class BroadPhaseExactnessTest
    : public ::testing::TestWithParam<BroadPhaseEnvelope> {};

TEST_P(BroadPhaseExactnessTest, MatchesClipBitForBit) {
  const BroadPhaseEnvelope& env = GetParam();
  Rng rng(env.seed);
  int rejected = 0;
  int small_side = 0;
  int far_coord = 0;
  int mismatched = 0;
  std::string first_mismatch;
  for (int i = 0; i < kBroadPhasePairs; ++i) {
    const auto [a, b, gap] = SamplePair(rng, env);
    const double ra = CircumRadius(a);
    const double rb = CircumRadius(b);
    const bool side_guard =
        std::min({a.length, a.width, b.length, b.width}) < kBroadPhaseMinSide;
    const bool coord_guard =
        std::max({std::abs(a.center.x) + ra, std::abs(a.center.y) + ra,
                  std::abs(b.center.x) + rb, std::abs(b.center.y) + rb}) >
        kBroadPhaseMaxCoord;
    small_side += side_guard;
    far_coord += coord_guard;
    // Twice the margin, so rounding of b's centre cannot move a pair
    // counted here back inside it.
    rejected += !side_guard && !coord_guard && gap > 2 * kBroadPhaseMargin;

    if (ClipMismatches(a, b) != 0 && mismatched++ == 0) {
      first_mismatch = DescribePair(a, b);
    }
  }
  EXPECT_EQ(mismatched, 0) << "first: " << first_mismatch;
  EXPECT_GE(rejected, env.min_rejected);
  EXPECT_GE(small_side, env.min_small_side);
  EXPECT_GE(far_coord, env.min_far_coord);
}

INSTANTIATE_TEST_SUITE_P(
    Envelopes, BroadPhaseExactnessTest, ::testing::ValuesIn(kEnvelopes),
    [](const auto& info) { return std::string(info.param.name); });

// Pairs whose circumcircles are more than the margin apart, yet which the
// clip scores as overlapping. Each lies outside the broad phase's
// envelope in one direction, so the clip's (pre-existing) answer must come
// back unchanged rather than become 0.
void ExpectClipOverlapKept(const Box3d& a, const Box3d& b) {
  const double dx = a.center.x - b.center.x;
  const double dy = a.center.y - b.center.y;
  ASSERT_GT(std::sqrt(dx * dx + dy * dy),
            CircumRadius(a) + CircumRadius(b) + kBroadPhaseMargin);
  ASSERT_GT(ClipArea(a, b), 0.0);
  EXPECT_EQ(ClipMismatches(a, b), 0) << DescribePair(a, b);
  EXPECT_EQ(ClipMismatches(b, a), 0) << DescribePair(b, a);
}

// Sub-micrometre sides: the clip's 1e-12 cross-product tolerance admits
// points 1e-3 m off a 1e-9 m edge, so it scores these boxes, 10 um apart,
// as fully overlapping.
TEST(BroadPhaseTest, SubMicrometreSidesKeepTheClipsValue) {
  const Box3d a({0, 0, 0}, 1e-9, 1e-9, 1e-9, 0.3);
  const Box3d b({1e-5, 0, 0}, 1e-9, 1e-9, 1e-9, 1.1);
  ExpectClipOverlapKept(a, b);
  EXPECT_NEAR(BevIou(a, b), 1.0, 1e-6);
}

// Centres near 1.6e11 m: corners round to a 3e-5 m grid, so these two
// diamonds, whose circumcircles are 3.4 um apart, share a sliver.
TEST(BroadPhaseTest, FarCentresKeepTheClipsValue) {
  const double side = 1.1733011078033051;
  ExpectClipOverlapKept(
      Box3d({159857974229.9704, 0, 0}, side, side, 1, M_PI / 4),
      Box3d({159857974231.6297, 0, 0}, side, side, 1, M_PI / 4));
}

// Corner-to-corner contact 1e-13 m apart, inside the envelope: the clip's
// tolerance scores it as a sliver of area, and the 1e-6 m margin keeps the
// reject from turning that into 0.
TEST(BroadPhaseTest, NearContactKeepsTheClipsSliver) {
  const Box3d a({0, 0, 0}, 2, 2, 1, M_PI / 4);
  const Box3d b({2 * std::sqrt(2.0) + 1e-13, 0, 0}, 2, 2, 1, M_PI / 4);
  ASSERT_GT(ClipArea(a, b), 0.0);
  EXPECT_EQ(ClipMismatches(a, b), 0);
  EXPECT_EQ(ClipMismatches(b, a), 0);
}

// Non-finite centres and extents fall through to the clip, whatever it
// makes of them. Yaw never enters the reject; a NaN yaw makes every
// clip corner NaN, so the clip answers 0 too.
TEST(BroadPhaseTest, NonFiniteValuesKeepTheClipsValue) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const Box3d far({100, 0, 0}, 4, 2, 1.5, 0.2);
  for (const Box3d& odd :
       {Box3d({nan, 0, 0}, 4, 2, 1.5, 0), Box3d({0, nan, 0}, 4, 2, 1.5, 0),
        Box3d({inf, 0, 0}, 4, 2, 1.5, 0), Box3d({0, -inf, 0}, 4, 2, 1.5, 0),
        Box3d({0, 0, 0}, 4, 2, 1.5, nan), Box3d({0, 0, 0}, inf, 2, 1.5, 0)}) {
    EXPECT_EQ(ClipMismatches(odd, far), 0) << DescribePair(odd, far);
    EXPECT_EQ(ClipMismatches(far, odd), 0) << DescribePair(far, odd);
  }
}

// A footprint carries its box's corners, centre, area and validity as the
// box computes them, and its envelope flag is the guard above: both BEV
// sides >= 1e-4 m and |centre| + circumradius <= 1e7 m on each axis. A
// flag that dropped the radius or a side would change no IoU bit (the
// margin has slack there), so these boxes sit on each side of every
// bound.
TEST(BroadPhaseTest, FootprintFollowsItsBoxAndTheGuard) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const struct {
    Box3d box;
    bool in_envelope;
  } cases[] = {
      // A 4 x 2 footprint has circumradius sqrt(5) ~ 2.24 m.
      {Box3d({1e7 - 3, 0, 0}, 4, 2, 1, 0.4), true},
      {Box3d({1e7 - 2, 0, 0}, 4, 2, 1, 0.4), false},
      {Box3d({0, -(1e7 - 3), 0}, 4, 2, 1, 2.0), true},
      {Box3d({0, -(1e7 - 2), 0}, 4, 2, 1, 2.0), false},
      {Box3d({0, 0, 0}, kBroadPhaseMinSide, 2, 1, 0), true},
      {Box3d({0, 0, 0}, 4, 0.99 * kBroadPhaseMinSide, 1, 0), false},
      {Box3d({0, 0, 0}, 0.99 * kBroadPhaseMinSide, 2, 1, 0), false},
      {Box3d({5, 5, 0}, 4, 2, 0, 0.7), true},  // invalid: zero height
      {Box3d({nan, 0, 0}, 4, 2, 1, 0), false},
      {Box3d({0, 0, 0}, inf, 2, 1, 0), false}};
  for (const auto& [box, in_envelope] : cases) {
    const BevFootprint footprint(box);
    SCOPED_TRACE(DescribePair(box, box));
    EXPECT_EQ(footprint.in_envelope, in_envelope);
    EXPECT_EQ(footprint.valid, box.IsValid());
    EXPECT_EQ(Bits(footprint.area), Bits(box.BevArea()));
    EXPECT_EQ(Bits(footprint.radius), Bits(CircumRadius(box)));
    EXPECT_EQ(Bits(footprint.center.x), Bits(box.center.x));
    EXPECT_EQ(Bits(footprint.center.y), Bits(box.center.y));
    const std::array<Vec2, 4> corners = box.BevCorners();
    for (size_t i = 0; i < 4; ++i) {
      EXPECT_EQ(Bits(footprint.corners[i].x), Bits(corners[i].x));
      EXPECT_EQ(Bits(footprint.corners[i].y), Bits(corners[i].y));
    }
  }
}

// ----------------------------------------------------- Pinned overlap bits

// A CRC-32 over the 8-byte patterns of BevIntersectionArea and BevIou, in
// both argument orders, on directed pairs and on 2,500 seeded pairs from
// each broad-phase envelope. The constant was recorded from the
// heap-backed polygon clip that the fixed-buffer clip replaced, so any
// change to the clip's arithmetic (its tolerances, vertex order or
// summation order) that moves one bit fails here.
TEST(IouTest, OverlapBitsPinned) {
  const double far_side = 1.1733011078033051;
  std::vector<std::pair<Box3d, Box3d>> pairs = {
      // The 45 degree octagon.
      {Box3d({0, 0, 0.5}, 1, 1, 1, 0), Box3d({0, 0, 0.5}, 1, 1, 1, M_PI / 4)},
      // Edge contact: a shared edge, and a 2e-12 m sliver whose top edge
      // lies exactly the clip's 1e-12 tolerance below a unit box, so the
      // cross products meet the tolerance with equality.
      {Box3d({0, 0, 0}, 2, 2, 1, 0), Box3d({2, 0, 0}, 2, 2, 1, 0)},
      {Box3d({0.5, -2e-12, 0}, 1, 2e-12, 1, 0),
       Box3d({0.5, 0.5, 0}, 1, 1, 1, 0)},
      // Contained boxes.
      {Box3d({0, 0, 0}, 4, 4, 1, 0.3), Box3d({0.2, -0.1, 0}, 1, 0.5, 1, 1.2)},
      // Sub-micrometre sides and far centres, as in BroadPhaseTest.
      {Box3d({0, 0, 0}, 1e-9, 1e-9, 1e-9, 0.3),
       Box3d({1e-5, 0, 0}, 1e-9, 1e-9, 1e-9, 1.1)},
      {Box3d({159857974229.9704, 0, 0}, far_side, far_side, 1, M_PI / 4),
       Box3d({159857974231.6297, 0, 0}, far_side, far_side, 1, M_PI / 4)}};
  for (const BroadPhaseEnvelope& env : kEnvelopes) {
    Rng rng(env.seed);
    for (int i = 0; i < 2500; ++i) {
      const EnvelopePair pair = SamplePair(rng, env);
      pairs.emplace_back(pair.a, pair.b);
    }
  }
  std::string bytes;
  for (const auto& [a, b] : pairs) {
    for (const double v : {BevIntersectionArea(a, b), BevIou(a, b),
                           BevIntersectionArea(b, a), BevIou(b, a)}) {
      for (int k = 0; k < 8; ++k) {
        bytes.push_back(static_cast<char>(Bits(v) >> (8 * k)));
      }
    }
  }
  EXPECT_EQ(Crc32(bytes), 4109239433u);
}

}  // namespace
}  // namespace fixy::geom
