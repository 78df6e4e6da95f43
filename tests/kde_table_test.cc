// The KDE's ln-density table (DESIGN.md §11): its stated error bounds on
// every learned KDE of every preset — the table against the exact windowed
// sum, and the exact sum against a full-sum reference — and the edges its
// build guards: gaps between sample clusters, the near-mode band, grids
// too fine for the coordinates' doubles, the node budget, concurrent first
// use, and copies. Then the mode the build takes from the table's nodes:
// the full scan's bits on every preset KDE and on fits built to stress
// the bound, and the table-less fits' own search.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "core/engine.h"
#include "core/learner.h"
#include "scenario/materialize.h"
#include "scenario/presets.h"
#include "stats/kde.h"
#include "testing/reference_kde.h"

namespace fixy {
namespace {

using stats::GaussianKde;

// The bounds DESIGN.md §11 states, on ln of the floored normalized score
// p (tau, c) and on ln of the inverting AOF's floored 1 - p (tau_inv).
constexpr double kTau = GaussianKde::kTableTolerance;
constexpr double kTauInv = 2e-5;
constexpr double kCutoff = 2e-6;

double LnScore(const GaussianKde& kde, double density) {
  return std::log(kde.NormalizedScoreFromDensity(density));
}

double LnInverted(const GaussianKde& kde, double density) {
  return std::log(std::max(1.0 - kde.NormalizedScoreFromDensity(density),
                           stats::kScoreFloor));
}

std::vector<double> NormalSample(double mean, double sd, int n,
                                 uint64_t seed) {
  Rng rng(seed);
  std::vector<double> xs;
  for (int i = 0; i < n; ++i) xs.push_back(rng.Normal(mean, sd));
  return xs;
}

// The largest error of each kind over one KDE's queries.
struct Worst {
  double table = 0.0;      // |d ln p|, table vs exact
  double inverted = 0.0;   // |d ln(1 - p)|, table vs exact
  double cutoff = 0.0;     // |d ln p|, exact vs reference
};

Worst Measure(const GaussianKde& kde, const std::vector<double>& queries) {
  Worst worst;
  for (const double x : queries) {
    const double table = kde.Density(x);
    const double exact = kde.ExactDensity(x);
    const double reference =
        testing::ReferenceKdeDensity(kde.samples(), kde.bandwidth(), x);
    worst.table = std::max(
        worst.table, std::abs(LnScore(kde, table) - LnScore(kde, exact)));
    worst.inverted =
        std::max(worst.inverted,
                 std::abs(LnInverted(kde, table) - LnInverted(kde, exact)));
    worst.cutoff = std::max(
        worst.cutoff, std::abs(LnScore(kde, exact) - LnScore(kde, reference)));
  }
  return worst;
}

// `values` plus `count` uniform points over [first sample - 8h, last + 8h].
std::vector<double> WithSweep(std::vector<double> values,
                              const GaussianKde& kde, int count) {
  const double lo = kde.samples().front() - 8.0 * kde.bandwidth();
  const double hi = kde.samples().back() + 8.0 * kde.bandwidth();
  for (int i = 0; i < count; ++i) {
    values.push_back(lo + (hi - lo) * (i + 0.5) / count);
  }
  return values;
}

// Calls `check(name, kde, values)` for every KDE learned, cold, from
// `sim --preset P --scenes 4` (seed 42), with the feature values the
// learner collects for it from that dataset.
template <typename Check>
void ForEachLearnedKde(const std::string& preset_name, const Check& check) {
  const auto preset = scenario::PresetByName(preset_name);
  ASSERT_TRUE(preset.ok()) << preset.status();
  const auto generated = scenario::GenerateScenarioDataset(*preset, 4, 42);
  ASSERT_TRUE(generated.ok()) << generated.status();
  const Dataset& dataset = generated->dataset;
  Fixy fixy;
  ASSERT_TRUE(fixy.Learn(dataset).ok());

  std::vector<FeaturePtr> features;
  for (const FeatureDistribution& fd : fixy.learned_features()) {
    features.push_back(fd.feature_ptr());
  }
  const auto collected =
      DistributionLearner(fixy.options().learner).CollectValues(dataset,
                                                                features);
  ASSERT_TRUE(collected.ok()) << collected.status();

  const auto visit = [&](const std::string& name,
                         const stats::DistributionPtr& dist,
                         const std::vector<double>& values) {
    const auto* kde = dynamic_cast<const GaussianKde*>(dist.get());
    if (kde != nullptr) check(name, *kde, values);
  };
  for (size_t f = 0; f < features.size(); ++f) {
    const FeatureDistribution& fd = fixy.learned_features()[f];
    const auto& values = (*collected)[f];
    if (fd.global_distribution() != nullptr) {
      visit(fd.feature().name(), fd.global_distribution(), values.global);
    }
    for (const auto& [cls, dist] : fd.per_class_distributions()) {
      const auto it = values.per_class.find(cls);
      visit(fd.feature().name() + "/" + ObjectClassToString(cls), dist,
            it == values.per_class.end() ? std::vector<double>{}
                                         : it->second);
    }
  }
}

std::string PresetTestName(const ::testing::TestParamInfo<std::string>& info) {
  std::string name = info.param;
  std::replace(name.begin(), name.end(), '-', '_');
  return name;
}

class KdeTableTest : public ::testing::TestWithParam<std::string> {};

// Every KDE learned from `sim --preset P --scenes 4` (seed 42), queried at
// the feature values the learner collects from that dataset plus a
// 2,000-point sweep of its support.
TEST_P(KdeTableTest, WithinTauOfExactAndReference) {
  Worst worst;
  size_t kdes = 0;
  ForEachLearnedKde(GetParam(), [&](const std::string& name,
                                    const GaussianKde& kde,
                                    const std::vector<double>& values) {
    ++kdes;
    const Worst w = Measure(kde, WithSweep(values, kde, 2000));
    EXPECT_LE(w.table, kTau) << name;
    EXPECT_LE(w.inverted, kTauInv) << name;
    EXPECT_LE(w.cutoff, kCutoff) << name;
    worst.table = std::max(worst.table, w.table);
    worst.inverted = std::max(worst.inverted, w.inverted);
    worst.cutoff = std::max(worst.cutoff, w.cutoff);
  });
  EXPECT_GT(kdes, 0u);
  std::printf("%s: %zu KDEs, table %.3g, inverted %.3g, cutoff %.3g\n",
              GetParam().c_str(), kdes, worst.table, worst.inverted,
              worst.cutoff);
}

INSTANTIATE_TEST_SUITE_P(, KdeTableTest,
                         ::testing::ValuesIn(scenario::PresetNames()),
                         PresetTestName);

// An undersmoothed, hand-set bandwidth (about sigma / 33 over 500 samples)
// has cells the build-time check must hand to the exact sum.
TEST(KdeTableEdgeTest, UndersmoothedBandwidthStaysWithinTau) {
  const auto kde = GaussianKde::FitWithBandwidth(NormalSample(0, 1, 500, 3),
                                                 0.03);
  ASSERT_TRUE(kde.ok());
  std::vector<double> queries(kde->samples());
  const Worst w = Measure(*kde, WithSweep(queries, *kde, 20000));
  EXPECT_LE(w.table, kTau);
  EXPECT_LE(w.inverted, kTauInv);
}

// Two clusters 40h apart: the gap's middle is more than 8h from every
// sample, so it has no table and answers 0, the exact sum's bits; only
// the clusters are tabulated.
TEST(KdeTableEdgeTest, GapBetweenClustersAnswersExactly) {
  std::vector<double> samples = NormalSample(0.0, 0.1, 200, 4);
  for (const double s : NormalSample(0.0, 0.1, 200, 5)) {
    samples.push_back(s + 100.0);
  }
  const auto kde = GaussianKde::FitWithBandwidth(samples, 2.0);
  ASSERT_TRUE(kde.ok());
  const double lo = kde->samples()[199] + 8.0 * 2.0;
  const double hi = kde->samples()[200] - 8.0 * 2.0;
  ASSERT_LT(lo + 1.0, hi - 1.0);
  for (double x = lo + 0.2; x < hi - 0.2; x += 0.01) {
    EXPECT_EQ(std::bit_cast<uint64_t>(kde->Density(x)),
              std::bit_cast<uint64_t>(kde->ExactDensity(x)))
        << "x=" << x;
  }
  // Each cluster's grid spans about its samples plus 8h and two steps on
  // each side, at 32 nodes per h: far fewer nodes than the whole range.
  const double per_cluster_span = 1.5 + 16.0 * 2.0;
  EXPECT_LT(kde->TableNodeCount(),
            static_cast<size_t>(2 * per_cluster_span / (2.0 / 32) + 64));
}

// A query whose interpolated score is within eta of the mode answers with
// the exact sum's bits: at the arg-max sample the score is exactly 1.
TEST(KdeTableEdgeTest, NearModeQueriesAnswerExactly) {
  const auto kde = GaussianKde::Fit(NormalSample(2.0, 1.5, 3000, 6));
  ASSERT_TRUE(kde.ok());
  const double mode = kde->ModeDensity();
  size_t in_band = 0;
  for (const double s : kde->samples()) {
    const double exact = kde->ExactDensity(s);
    if (exact < (1.0 - 0.5 * GaussianKde::kModeBand) * mode) continue;
    ++in_band;
    EXPECT_EQ(std::bit_cast<uint64_t>(kde->Density(s)),
              std::bit_cast<uint64_t>(exact))
        << "x=" << s;
    if (exact == mode) {
      EXPECT_EQ(kde->NormalizedScore(s), 1.0);
    }
  }
  EXPECT_GT(in_band, 0u);
}

// Samples near 1e9 with h = 1e-5: a grid step of h/32 is within a few ULPs
// of the coordinates, so the table is not built and every query is exact.
TEST(KdeTableEdgeTest, FarMagnitudeSamplesStayWithinTau) {
  std::vector<double> samples;
  for (const double s : NormalSample(0.0, 5e-5, 400, 7)) {
    samples.push_back(1e9 + s);
  }
  const auto kde = GaussianKde::FitWithBandwidth(samples, 1e-5);
  ASSERT_TRUE(kde.ok());
  const Worst w = Measure(*kde, WithSweep(kde->samples(), *kde, 4000));
  EXPECT_LE(w.table, kTau);
  EXPECT_LE(w.inverted, kTauInv);
  EXPECT_EQ(kde->TableNodeCount(), 0u);
}

// The node count never exceeds kTableBaseNodes + kTableNodesPerSample * n:
// an outlier 1e6 h away is its own small cluster, and a hand-set h = 1e-6
// over a unit spread would need ~512 nodes per sample, so it is all exact.
TEST(KdeTableEdgeTest, NodeCountStaysWithinBudget) {
  const auto budget = [](size_t n) {
    return GaussianKde::kTableBaseNodes + GaussianKde::kTableNodesPerSample * n;
  };
  std::vector<double> samples = NormalSample(0.0, 1.0, 1000, 8);
  const auto plain = GaussianKde::Fit(samples);
  ASSERT_TRUE(plain.ok());
  samples.push_back(1e6 * plain->bandwidth());
  const auto outlier = GaussianKde::FitWithBandwidth(samples,
                                                     plain->bandwidth());
  ASSERT_TRUE(outlier.ok());
  EXPECT_GT(outlier->TableNodeCount(), 0u);
  EXPECT_LE(outlier->TableNodeCount(), budget(samples.size()));
  EXPECT_LE(outlier->TableNodeCount(), plain->TableNodeCount() + 600);

  const auto tiny = GaussianKde::FitWithBandwidth(NormalSample(0, 1, 500, 9),
                                                  1e-6);
  ASSERT_TRUE(tiny.ok());
  EXPECT_EQ(tiny->TableNodeCount(), 0u);
  for (const double x : {-1.0, 0.0, tiny->samples()[250], 0.5}) {
    EXPECT_EQ(std::bit_cast<uint64_t>(tiny->Density(x)),
              std::bit_cast<uint64_t>(tiny->ExactDensity(x)));
  }
}

// Eight threads using a cold KDE at once build one table between them and
// read the same bits a warm KDE gives.
TEST(KdeTableEdgeTest, ConcurrentFirstUseGivesIdenticalBits) {
  const std::vector<double> samples = NormalSample(1.0, 2.0, 5000, 10);
  std::vector<double> queries;
  Rng rng(11);
  for (int i = 0; i < 2000; ++i) queries.push_back(rng.Uniform(-8.0, 10.0));
  const auto warm = GaussianKde::Fit(samples);
  ASSERT_TRUE(warm.ok());
  std::vector<double> expected(queries.size());
  warm->DensityBatch(queries, expected);

  const auto cold = GaussianKde::Fit(samples);
  ASSERT_TRUE(cold.ok());
  std::vector<std::vector<double>> results(8);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < results.size(); ++t) {
    threads.emplace_back([&, t] {
      for (const double q : queries) results[t].push_back(cold->Density(q));
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const std::vector<double>& result : results) {
    ASSERT_EQ(result.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(std::bit_cast<uint64_t>(result[i]),
                std::bit_cast<uint64_t>(expected[i]))
          << "query " << i;
    }
  }
}

// A copy answers with the original's bits, from the same table.
TEST(KdeTableEdgeTest, CopyGivesOriginalBits) {
  const auto original = GaussianKde::Fit(NormalSample(0.0, 1.0, 800, 12));
  ASSERT_TRUE(original.ok());
  const GaussianKde copy = *original;  // copied cold
  Rng rng(13);
  for (int i = 0; i < 500; ++i) {
    const double x = rng.Uniform(-5.0, 5.0);
    EXPECT_EQ(std::bit_cast<uint64_t>(copy.Density(x)),
              std::bit_cast<uint64_t>(original->Density(x)));
  }
  EXPECT_EQ(copy.ModeDensity(), original->ModeDensity());
  EXPECT_EQ(copy.TableNodeCount(), original->TableNodeCount());
}

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

// What ModeDensity must return: max over the samples of ExactDensity.
double FullScanMode(const GaussianKde& kde) {
  double best = 0.0;
  for (const double s : kde.samples()) {
    best = std::max(best, kde.ExactDensity(s));
  }
  return best;
}

// A cold fit's ModeDensity has the full scan's bits.
void ExpectFullScanMode(const Result<GaussianKde>& kde,
                        const std::string& label) {
  ASSERT_TRUE(kde.ok()) << label << ": " << kde.status();
  EXPECT_EQ(Bits(kde->ModeDensity()), Bits(FullScanMode(*kde))) << label;
}

class KdeModeTest : public ::testing::TestWithParam<std::string> {};

// Every KDE learned from `sim --preset P --scenes 4` (seed 42): the mode
// has the full scan's bits, and is within c (in ln) of the full-sum
// reference's maximum over the samples.
TEST_P(KdeModeTest, FullScanBitsAndWithinCutoffOfReference) {
  size_t kdes = 0;
  ForEachLearnedKde(GetParam(), [&](const std::string& name,
                                    const GaussianKde& kde,
                                    const std::vector<double>&) {
    ++kdes;
    const double mode = kde.ModeDensity();
    EXPECT_EQ(Bits(mode), Bits(FullScanMode(kde))) << name;
    double reference = 0.0;
    for (const double s : kde.samples()) {
      reference = std::max(reference, testing::ReferenceKdeDensity(
                                          kde.samples(), kde.bandwidth(), s));
    }
    EXPECT_LE(std::abs(std::log(mode) - std::log(reference)), kCutoff)
        << name;
  });
  EXPECT_GT(kdes, 0u);
}

INSTANTIATE_TEST_SUITE_P(, KdeModeTest,
                         ::testing::ValuesIn(scenario::PresetNames()),
                         PresetTestName);

// Two mirrored copies of one sample set, 40 to 41 apart at h = 0.2: two
// clusters whose peaks are equal up to rounding, so a bound that misses
// the interpolation remainder drops the true arg-max in some of them.
TEST(KdeModeEdgeTest, MirroredPeaksGiveFullScanBits) {
  for (int fit = 0; fit < 100; ++fit) {
    const std::vector<double> base = NormalSample(0.0, 1.0, 400, 100 + fit);
    std::vector<double> samples = base;
    const double offset = 40.0 + fit / 100.0;
    for (const double s : base) samples.push_back(offset - s);
    ExpectFullScanMode(GaussianKde::FitWithBandwidth(samples, 0.2),
                       "mirrored fit " + std::to_string(fit));
  }
}

// Scott's-rule fits from 1,000 to 4,096 samples, on both sides of the
// 2,048 where a table-less KDE's search switches from the full scan to
// annulus bounds: normal, uniform (a flat top with many near-ties) and a
// two-peak mixture.
TEST(KdeModeEdgeTest, CountsAroundTwoThousandFortyEightGiveFullScanBits) {
  for (const int n : {1000, 2047, 2048, 2049, 4096}) {
    const std::string label = std::to_string(n) + " samples";
    ExpectFullScanMode(GaussianKde::Fit(NormalSample(0.0, 1.0, n, 200 + n)),
                       "normal, " + label);
    Rng rng(300 + n);
    std::vector<double> uniform;
    for (int i = 0; i < n; ++i) uniform.push_back(rng.Uniform(-2.0, 3.0));
    ExpectFullScanMode(GaussianKde::Fit(uniform), "uniform, " + label);
    std::vector<double> mixture = NormalSample(-3.0, 0.5, n / 2, 400 + n);
    for (const double s : NormalSample(2.0, 0.5, n - n / 2, 500 + n)) {
      mixture.push_back(s);
    }
    ExpectFullScanMode(GaussianKde::Fit(mixture), "mixture, " + label);
  }
}

// Values rounded to a coarse grid, so each repeats many times, and a fit
// whose samples are all equal (the fallback bandwidth).
TEST(KdeModeEdgeTest, RepeatedValuesGiveFullScanBits) {
  for (int fit = 0; fit < 10; ++fit) {
    std::vector<double> rounded;
    for (const double s : NormalSample(5.0, 2.0, 3000, 600 + fit)) {
      rounded.push_back(std::round(s * 4.0) / 4.0);
    }
    ExpectFullScanMode(GaussianKde::Fit(rounded),
                       "rounded fit " + std::to_string(fit));
  }
  ExpectFullScanMode(GaussianKde::Fit(std::vector<double>(500, 3.25)),
                     "all equal");
}

// Clusters split by gaps just over 16h, with near-equal peaks: the bound
// of each sample comes from its own cluster's nodes.
TEST(KdeModeEdgeTest, ClustersSplitByTheGapGiveFullScanBits) {
  constexpr double kH = 0.1;
  for (int fit = 0; fit < 20; ++fit) {
    std::vector<double> samples;
    double start = 0.0;
    for (int c = 0; c < 4; ++c) {
      const std::vector<double> cluster =
          NormalSample(0.0, 0.05, 300, 700 + 4 * fit + c);
      const auto [lo, hi] = std::minmax_element(cluster.begin(), cluster.end());
      for (const double s : cluster) samples.push_back(start + (s - *lo));
      start += (*hi - *lo) + 16.0 * kH * (1.0 + 1e-3 * (c + 1));
    }
    const auto kde = GaussianKde::FitWithBandwidth(samples, kH);
    ExpectFullScanMode(kde, "clustered fit " + std::to_string(fit));
    ASSERT_TRUE(kde.ok());
    // Four clusters: each has its own grid of at least 16h of nodes.
    EXPECT_GE(kde->TableNodeCount(), 4u * 16u * 32u);
  }
}

// Distributions without a table keep the annulus-bound search (and, at or
// below 2,048 samples, the full scan): over the node budget, and samples
// near 1e9 whose grid the doubles cannot resolve.
TEST(KdeModeEdgeTest, TablelessFitsGiveFullScanBits) {
  for (const int n : {500, 3000}) {
    const std::string label = std::to_string(n) + " samples";
    const auto tiny =
        GaussianKde::FitWithBandwidth(NormalSample(0.0, 1.0, n, 800 + n), 1e-6);
    ExpectFullScanMode(tiny, "over budget, " + label);
    ASSERT_TRUE(tiny.ok());
    EXPECT_EQ(tiny->TableNodeCount(), 0u);

    std::vector<double> far;
    for (const double s : NormalSample(0.0, 5e-5, n, 900 + n)) {
      far.push_back(1e9 + s);
    }
    const auto distant = GaussianKde::FitWithBandwidth(far, 1e-5);
    ExpectFullScanMode(distant, "far magnitude, " + label);
    ASSERT_TRUE(distant.ok());
    EXPECT_EQ(distant->TableNodeCount(), 0u);
  }
}

}  // namespace
}  // namespace fixy
