// SIMD-vs-scalar equality tests for the KDE hot-path kernel (DESIGN.md
// §11). The dispatch contract is *bit* identity: every comparison here is
// EXPECT_EQ on doubles, no tolerances. Every vector kernel the CPU runs
// is compared against scalar. Randomized sweeps cover the lane remainders
// (n mod 4 and n mod 8) and unaligned windows; the adversarial cases pin
// the known numerical edges — cutoff boundaries, the minimum bandwidth,
// huge sample counts, empty windows, and non-finite queries.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "common/random.h"
#include "stats/kde.h"
#include "stats/simd.h"

namespace fixy::stats {
namespace {

namespace simd = ::fixy::stats::simd;

// One kernel's results next to the scalar kernel's.
struct KernelRun {
  simd::Kernel kernel;
  std::vector<double> values;
};
struct KernelRuns {
  std::vector<double> scalar;
  std::vector<KernelRun> vector;  // every vector kernel the CPU runs
};

// Runs `fn` under the scalar kernel, then under every vector kernel the
// CPU can run; nullopt when there is no vector kernel to compare against.
template <typename Fn>
std::optional<KernelRuns> RunUnderEveryKernel(Fn&& fn) {
  KernelRuns runs;
  EXPECT_TRUE(simd::SetKernelForTesting(simd::Kernel::kScalar));
  runs.scalar = fn();
  for (const simd::Kernel kernel :
       {simd::Kernel::kAvx2, simd::Kernel::kAvx512}) {
    if (!simd::SetKernelForTesting(kernel)) continue;
    runs.vector.push_back({kernel, fn()});
  }
  simd::ClearKernelOverrideForTesting();
  if (runs.vector.empty()) return std::nullopt;
  return runs;
}

void ExpectBitIdentical(const KernelRuns& runs) {
  for (const KernelRun& run : runs.vector) {
    ASSERT_EQ(runs.scalar.size(), run.values.size());
    for (size_t i = 0; i < runs.scalar.size(); ++i) {
      EXPECT_EQ(runs.scalar[i], run.values[i])
          << "element " << i << " under " << simd::KernelName(run.kernel);
    }
  }
}

class SimdKernelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!simd::KernelAvailable(simd::Kernel::kAvx2)) {
      GTEST_SKIP() << "no AVX2 on this CPU; nothing to compare";
    }
    if (!simd::KernelAvailable(simd::Kernel::kAvx512)) {
      std::printf("no AVX-512F on this CPU: the avx512 comparison is "
                  "skipped, scalar is compared against avx2 only\n");
    }
  }
  void TearDown() override { simd::ClearKernelOverrideForTesting(); }
};

TEST(SimdDispatchTest, OverrideRoundTrips) {
  EXPECT_TRUE(simd::KernelAvailable(simd::Kernel::kScalar));
  EXPECT_TRUE(simd::SetKernelForTesting(simd::Kernel::kScalar));
  EXPECT_EQ(simd::ActiveKernel(), simd::Kernel::kScalar);
  simd::ClearKernelOverrideForTesting();
  for (const simd::Kernel kernel :
       {simd::Kernel::kAvx2, simd::Kernel::kAvx512}) {
    if (!simd::KernelAvailable(kernel)) {
      std::printf("kernel %s unavailable on this CPU; its round trip is "
                  "skipped\n", simd::KernelName(kernel));
      EXPECT_FALSE(simd::SetKernelForTesting(kernel));
      continue;
    }
    EXPECT_TRUE(simd::SetKernelForTesting(kernel));
    EXPECT_EQ(simd::ActiveKernel(), kernel);
    simd::ClearKernelOverrideForTesting();
  }
  // An AVX-512 CPU runs the AVX2 kernel too, and dispatch picks the widest.
  if (simd::KernelAvailable(simd::Kernel::kAvx512)) {
    EXPECT_TRUE(simd::KernelAvailable(simd::Kernel::kAvx2));
    EXPECT_EQ(simd::ActiveKernel(), simd::Kernel::kAvx512);
  }
  EXPECT_STREQ(simd::KernelName(simd::Kernel::kScalar), "scalar");
  EXPECT_STREQ(simd::KernelName(simd::Kernel::kAvx2), "avx2");
  EXPECT_STREQ(simd::KernelName(simd::Kernel::kAvx512), "avx512");
}

TEST_F(SimdKernelTest, RandomizedWindowSumsAreBitIdentical) {
  std::mt19937_64 rng(20260808);
  std::uniform_real_distribution<double> value(-50.0, 50.0);
  std::uniform_real_distribution<double> bw(1e-3, 10.0);
  // Window lengths sweep every lane remainder of both vector widths (n mod
  // 4 and n mod 8, with and without the AVX-512 kernel's trailing quad)
  // and both the sub-lane and multi-lane regimes.
  for (const size_t n :
       {size_t{0}, size_t{1}, size_t{2}, size_t{3}, size_t{4}, size_t{5},
        size_t{6}, size_t{7}, size_t{8}, size_t{9}, size_t{12}, size_t{13},
        size_t{15}, size_t{16}, size_t{31}, size_t{64}, size_t{257}}) {
    for (int rep = 0; rep < 8; ++rep) {
      std::vector<double> samples(n);
      for (double& s : samples) s = value(rng);
      const double x = value(rng);
      const double inv_bw = 1.0 / bw(rng);
      const auto runs = RunUnderEveryKernel([&] {
        return std::vector<double>{
            simd::GaussianWindowSum(samples.data(), n, x, inv_bw)};
      });
      ASSERT_TRUE(runs.has_value());
      ExpectBitIdentical(*runs);
    }
  }
}

TEST_F(SimdKernelTest, RandomizedDensitiesAreBitIdentical) {
  std::mt19937_64 rng(7);
  std::normal_distribution<double> sample(0.0, 3.0);
  for (const size_t n : {size_t{1}, size_t{13}, size_t{200}, size_t{1000}}) {
    std::vector<double> samples(n);
    for (double& s : samples) s = sample(rng);
    std::vector<double> queries(337);
    for (double& q : queries) q = sample(rng);
    const auto runs = RunUnderEveryKernel([&] {
      // Fit under the pinned kernel too: the warm-up (the table and the
      // mode) runs the kernel, so both must be dispatch-invariant.
      auto kde = GaussianKde::Fit(samples);
      EXPECT_TRUE(kde.ok());
      std::vector<double> out(queries.size());
      kde->DensityBatch(queries, out);
      out.push_back(kde->ModeDensity());
      for (double q : queries) out.push_back(kde->NormalizedScore(q));
      return out;
    });
    ASSERT_TRUE(runs.has_value());
    ExpectBitIdentical(*runs);
  }
}

TEST_F(SimdKernelTest, CutoffBoundaryQueriesAreBitIdentical) {
  // Queries sitting exactly on (and one ULP to either side of) the
  // 8-bandwidth cutoff: the window bounds (first sample >= x - 8h, first
  // sample > x + 8h) flip at these points, so every kernel must agree on
  // windows of length 0, 1, and n.
  const double h = 0.25;
  const std::vector<double> samples = {-1.0, -0.5, 0.0, 0.5, 1.0};
  auto kde = GaussianKde::FitWithBandwidth(samples, h);
  ASSERT_TRUE(kde.ok());
  std::vector<double> queries;
  for (double s : samples) {
    for (double edge : {s - 8.0 * h, s + 8.0 * h}) {
      queries.push_back(std::nextafter(edge, -1e300));
      queries.push_back(edge);
      queries.push_back(std::nextafter(edge, 1e300));
    }
  }
  const auto runs = RunUnderEveryKernel([&] {
    std::vector<double> out;
    for (double q : queries) out.push_back(kde->ExactDensity(q));
    std::vector<double> batch(queries.size());
    kde->ExactDensityBatch(queries, batch);
    out.insert(out.end(), batch.begin(), batch.end());
    return out;
  });
  ASSERT_TRUE(runs.has_value());
  ExpectBitIdentical(*runs);
  // Per-query and batch evaluation agree with themselves per kernel.
  const size_t half = queries.size();
  for (size_t i = 0; i < half; ++i) {
    EXPECT_EQ(runs->scalar[i], runs->scalar[half + i]) << "query " << i;
  }
}

TEST_F(SimdKernelTest, MinimumBandwidthIsBitIdentical) {
  // The smallest bandwidth FitWithBandwidth admits (1e-6): inv_bandwidth
  // is 1e6 and kernel arguments swing across the full [-32, 0] range
  // within a few microns of a sample, stressing the exp approximation's
  // reduction constants.
  const std::vector<double> samples = {0.0, 1e-7, 2e-7, 5e-7, 1e-6, 2e-6};
  auto kde = GaussianKde::FitWithBandwidth(samples, 1e-6);
  ASSERT_TRUE(kde.ok());
  std::vector<double> queries;
  for (int i = -40; i <= 40; ++i) {
    queries.push_back(static_cast<double>(i) * 1e-7);
  }
  const auto runs = RunUnderEveryKernel([&] {
    std::vector<double> out(queries.size());
    kde->ExactDensityBatch(queries, out);
    return out;
  });
  ASSERT_TRUE(runs.has_value());
  ExpectBitIdentical(*runs);
  EXPECT_GT(runs->scalar[40], 0.0);  // query 0.0 sits on a sample
}

TEST_F(SimdKernelTest, HugeSampleCountIsBitIdentical) {
  // Large windows exercise long accumulation chains where any reassociation
  // between the kernels would compound: 20k clustered samples with a pinned
  // bandwidth give ~2000-element windows (the fitted-bandwidth mode scan
  // over more samples than this is too slow for a unit test in scalar).
  std::mt19937_64 rng(99);
  std::uniform_real_distribution<double> value(0.0, 1.0);
  std::vector<double> samples(20000);
  for (double& s : samples) s = value(rng);
  std::vector<double> queries(128);
  for (double& q : queries) q = value(rng);
  const auto runs = RunUnderEveryKernel([&] {
    auto kde = GaussianKde::FitWithBandwidth(samples, 0.00625);
    EXPECT_TRUE(kde.ok());
    std::vector<double> out(queries.size());
    kde->DensityBatch(queries, out);
    return out;
  });
  ASSERT_TRUE(runs.has_value());
  ExpectBitIdentical(*runs);
  for (double d : runs->scalar) EXPECT_GT(d, 0.0);
}

TEST_F(SimdKernelTest, EmptyWindowsAndNonFiniteQueriesAreZero) {
  const std::vector<double> samples = {0.0, 0.1, 0.2};
  auto kde = GaussianKde::FitWithBandwidth(samples, 0.01);
  ASSERT_TRUE(kde.ok());
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // Far-away, infinite, and NaN queries all have zero density; the batch
  // path skips the non-finite ones without moving its window cursors.
  const std::vector<double> queries = {1e9, -1e9, inf, -inf, nan, 0.1};
  const auto runs = RunUnderEveryKernel([&] {
    std::vector<double> out(queries.size());
    kde->ExactDensityBatch(queries, out);
    out.push_back(simd::GaussianWindowSum(samples.data(), 0, 0.0, 1.0));
    for (double q : queries) out.push_back(kde->ExactDensity(q));
    return out;
  });
  ASSERT_TRUE(runs.has_value());
  ExpectBitIdentical(*runs);
  const std::vector<double>& out = runs->scalar;
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(out[i], 0.0) << "query " << i;
    EXPECT_EQ(out[7 + i], 0.0) << "per-query " << i;  // ExactDensity agrees
  }
  EXPECT_GT(out[5], 0.0);        // the one in-range query
  EXPECT_EQ(out[6], 0.0);        // n == 0 window sums to zero
  EXPECT_EQ(out[12], out[5]);    // batch == per-query on the finite one
}

TEST_F(SimdKernelTest, UnsortedBatchesAreBitIdentical) {
  std::mt19937_64 rng(123);
  std::normal_distribution<double> sample(0.0, 1.0);
  std::vector<double> samples(500);
  for (double& s : samples) s = sample(rng);
  auto kde = GaussianKde::Fit(samples);
  ASSERT_TRUE(kde.ok());
  // Deliberately unsorted with duplicates: the cursors restart at every
  // step back and must give the same windows (and therefore bits) as lone
  // evaluation.
  std::vector<double> queries(211);
  for (double& q : queries) q = sample(rng);
  queries[10] = queries[100];
  queries[50] = queries[0];
  const auto runs = RunUnderEveryKernel([&] {
    std::vector<double> out(queries.size());
    kde->ExactDensityBatch(queries, out);
    return out;
  });
  ASSERT_TRUE(runs.has_value());
  ExpectBitIdentical(*runs);
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(runs->scalar[i], kde->ExactDensity(queries[i]))
        << "query " << i;
  }
}

// ------------------------------------------------- KDE density golden

// The little-endian bytes of each value's bit pattern, CRC-32'd.
uint32_t BitsCrc(const std::vector<double>& values) {
  std::string bytes;
  for (const double v : values) {
    const uint64_t bits = std::bit_cast<uint64_t>(v);
    for (int b = 0; b < 8; ++b) {
      bytes.push_back(static_cast<char>(bits >> (8 * b)));
    }
  }
  return Crc32(bytes);
}

// Exact densities of one fresh fit at `queries`, in query order, followed
// by its mode density — through ExactDensity, an ascending
// ExactDensityBatch (the table build's sliding cursors) and an
// ExactDensityBatch in the drawn order. All three must give the same bits.
std::vector<std::vector<double>> ExactDensityPaths(
    const std::vector<double>& samples, const std::vector<double>& queries) {
  auto kde = GaussianKde::Fit(samples);
  EXPECT_TRUE(kde.ok());
  std::vector<double> single;
  for (const double q : queries) single.push_back(kde->ExactDensity(q));

  std::vector<size_t> order(queries.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return queries[a] < queries[b]; });
  std::vector<double> sorted_queries;
  for (const size_t i : order) sorted_queries.push_back(queries[i]);
  std::vector<double> sorted_out(queries.size());
  kde->ExactDensityBatch(sorted_queries, sorted_out);
  std::vector<double> sorted(queries.size());
  for (size_t k = 0; k < order.size(); ++k) sorted[order[k]] = sorted_out[k];

  std::vector<double> shuffled(queries.size());
  kde->ExactDensityBatch(queries, shuffled);

  const double mode = kde->ModeDensity();
  for (std::vector<double>* path : {&single, &sorted, &shuffled}) {
    path->push_back(mode);
  }
  return {single, sorted, shuffled};
}

// Table densities of one fresh fit at `queries` — through Density and
// through DensityBatch — each followed by the table's node count. Both
// must give the same bits.
std::vector<std::vector<double>> TableDensityPaths(
    const std::vector<double>& samples, const std::vector<double>& queries) {
  auto kde = GaussianKde::Fit(samples);
  EXPECT_TRUE(kde.ok());
  std::vector<double> single;
  for (const double q : queries) single.push_back(kde->Density(q));
  std::vector<double> batch(queries.size());
  kde->DensityBatch(queries, batch);
  const double nodes = static_cast<double>(kde->TableNodeCount());
  single.push_back(nodes);
  batch.push_back(nodes);
  return {single, batch};
}

// Two fixed-seed fits: 4,096 standard-normal samples, and a 3,000-sample
// bimodal mixture, queried at 1,000 uniform points.
struct GoldenFits {
  std::vector<double> unimodal;
  std::vector<double> bimodal;
  std::vector<double> queries;
};

GoldenFits MakeGoldenFits() {
  GoldenFits fits;
  Rng rng(20261017);
  for (int i = 0; i < 4096; ++i) fits.unimodal.push_back(rng.Normal(0.0, 1.0));
  for (int i = 0; i < 1500; ++i) fits.bimodal.push_back(rng.Normal(-4.0, 0.7));
  for (int i = 0; i < 1500; ++i) fits.bimodal.push_back(rng.Normal(3.0, 1.2));
  for (int i = 0; i < 1000; ++i) fits.queries.push_back(rng.Uniform(-8.0, 8.0));
  return fits;
}

// Every kernel the CPU can run must reproduce each path's recorded CRC-32s
// with a fresh fit (so the warm-up, table and mode, runs under it).
template <typename Paths>
void ExpectCrcsUnderEveryKernel(Paths paths, uint32_t unimodal_crc,
                                uint32_t bimodal_crc) {
  const GoldenFits fits = MakeGoldenFits();
  const struct {
    const char* name;
    const std::vector<double>* samples;
    uint32_t crc;
  } goldens[] = {{"unimodal", &fits.unimodal, unimodal_crc},
                 {"bimodal", &fits.bimodal, bimodal_crc}};
  for (const simd::Kernel kernel :
       {simd::Kernel::kScalar, simd::Kernel::kAvx2, simd::Kernel::kAvx512}) {
    if (!simd::SetKernelForTesting(kernel)) {
      std::printf("kernel %s unavailable on this CPU; skipped\n",
                  simd::KernelName(kernel));
      continue;
    }
    for (const auto& golden : goldens) {
      const auto results = paths(*golden.samples, fits.queries);
      for (size_t p = 0; p < results.size(); ++p) {
        EXPECT_EQ(BitsCrc(results[p]), golden.crc)
            << golden.name << " path " << p << " under "
            << simd::KernelName(kernel);
      }
    }
  }
  simd::ClearKernelOverrideForTesting();
}

// The exact windowed sum. The CRC-32s were recorded from the KDE as it was
// before its window search moved to binary search and before the AVX-512
// kernel existed.
TEST(KdeDensityGoldenTest, MatchesRecordedCrcUnderEveryKernel) {
  ExpectCrcsUnderEveryKernel(ExactDensityPaths, 395709521u, 2555926769u);
}

// The ln-density table path, on the same fits and queries. Its nodes are
// exact sums, so its bits do not depend on the kernel either.
TEST(KdeTableGoldenTest, MatchesRecordedCrcUnderEveryKernel) {
  ExpectCrcsUnderEveryKernel(TableDensityPaths, 2777366201u, 2452309723u);
}

}  // namespace
}  // namespace fixy::stats
