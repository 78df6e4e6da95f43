// Tests for src/stats: KDE, histogram, Gaussian, discrete distributions,
// summaries, and the Distribution interface contracts.
#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"
#include "stats/discrete.h"
#include "stats/distribution.h"
#include "stats/gaussian.h"
#include "stats/histogram.h"
#include "stats/kde.h"
#include "stats/lambda_distribution.h"
#include "stats/summary.h"

namespace fixy::stats {
namespace {

std::vector<double> NormalSample(double mean, double sd, int n,
                                 uint64_t seed) {
  Rng rng(seed);
  std::vector<double> xs;
  xs.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) xs.push_back(rng.Normal(mean, sd));
  return xs;
}

// -------------------------------------------------------------- Summary

TEST(SummaryTest, MeanVarianceStddev) {
  const std::vector<double> xs = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(Mean(xs), 3.0);
  EXPECT_DOUBLE_EQ(Variance(xs), 2.5);
  EXPECT_DOUBLE_EQ(Stddev(xs), std::sqrt(2.5));
}

TEST(SummaryTest, EmptyAndSingleton) {
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
  EXPECT_DOUBLE_EQ(Variance({}), 0.0);
  EXPECT_DOUBLE_EQ(Variance({7.0}), 0.0);
}

TEST(SummaryTest, QuantileInterpolation) {
  const std::vector<double> sorted = {0, 10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(SortedQuantile(sorted, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(SortedQuantile(sorted, 1.0), 40.0);
  EXPECT_DOUBLE_EQ(SortedQuantile(sorted, 0.5), 20.0);
  EXPECT_DOUBLE_EQ(SortedQuantile(sorted, 0.125), 5.0);
}

TEST(SummaryTest, QuantileClampsOutOfRange) {
  const std::vector<double> sorted = {1, 2, 3};
  EXPECT_DOUBLE_EQ(SortedQuantile(sorted, -0.5), 1.0);
  EXPECT_DOUBLE_EQ(SortedQuantile(sorted, 1.5), 3.0);
}

TEST(SummaryTest, UnsortedQuantileSortsInternally) {
  EXPECT_DOUBLE_EQ(Quantile({3, 1, 2}, 0.5), 2.0);
}

TEST(SummaryTest, SummarizeFields) {
  const Summary s = Summarize({4, 1, 3, 2});
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_DOUBLE_EQ(s.median, 2.5);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
}

TEST(EmpiricalCdfTest, StepFunction) {
  const EmpiricalCdf cdf({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(cdf(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf(1.0), 0.25);
  EXPECT_DOUBLE_EQ(cdf(2.5), 0.5);
  EXPECT_DOUBLE_EQ(cdf(100.0), 1.0);
}

// ------------------------------------------------------------------ KDE

TEST(KdeTest, RejectsEmptyAndNonFinite) {
  EXPECT_FALSE(GaussianKde::Fit({}).ok());
  EXPECT_FALSE(GaussianKde::Fit({1.0, NAN}).ok());
  EXPECT_FALSE(GaussianKde::Fit({INFINITY}).ok());
}

TEST(KdeTest, RejectsBadBandwidth) {
  EXPECT_FALSE(GaussianKde::FitWithBandwidth({1, 2, 3}, 0.0).ok());
  EXPECT_FALSE(GaussianKde::FitWithBandwidth({1, 2, 3}, -1.0).ok());
}

// Regression: bandwidths that pass a naive `> 0` check but whose
// reciprocal or normalization overflows to inf (denormals, ~1e-320) or
// that are not numbers at all must be rejected with a Status, not abort
// the process — they are reachable from a hand-edited model file.
TEST(KdeTest, RejectsNonFiniteAndDenormalBandwidth) {
  EXPECT_FALSE(GaussianKde::FitWithBandwidth({1, 2, 3}, NAN).ok());
  EXPECT_FALSE(GaussianKde::FitWithBandwidth({1, 2, 3}, INFINITY).ok());
  EXPECT_FALSE(GaussianKde::FitWithBandwidth({1, 2, 3}, 1e-320).ok());
  EXPECT_FALSE(GaussianKde::FitWithBandwidth({1, 2, 3}, 1e-300).ok());
  // The smallest accepted bandwidth still yields a finite density.
  const auto kde = GaussianKde::FitWithBandwidth({1, 2, 3}, 1e-6);
  ASSERT_TRUE(kde.ok());
  EXPECT_TRUE(std::isfinite(kde->Density(2.0)));
}

TEST(KdeTest, SingleSampleIsPeakedAtValue) {
  const auto kde = GaussianKde::Fit({5.0});
  ASSERT_TRUE(kde.ok());
  EXPECT_GT(kde->Density(5.0), kde->Density(5.5));
  EXPECT_NEAR(kde->NormalizedScore(5.0), 1.0, 1e-9);
}

TEST(KdeTest, DensityPeaksNearMode) {
  const auto kde = GaussianKde::Fit(NormalSample(10.0, 1.0, 2000, 1));
  ASSERT_TRUE(kde.ok());
  EXPECT_GT(kde->Density(10.0), kde->Density(13.0));
  EXPECT_GT(kde->Density(10.0), kde->Density(7.0));
}

TEST(KdeTest, DensityApproximatesTrueNormal) {
  const auto kde = GaussianKde::Fit(NormalSample(0.0, 1.0, 5000, 2));
  ASSERT_TRUE(kde.ok());
  const double peak = 0.3989422804014327;
  EXPECT_NEAR(kde->Density(0.0), peak, 0.04);
  EXPECT_NEAR(kde->Density(1.0), peak * std::exp(-0.5), 0.04);
}

TEST(KdeTest, IntegratesToApproximatelyOne) {
  const auto kde = GaussianKde::Fit(NormalSample(3.0, 2.0, 1000, 3));
  ASSERT_TRUE(kde.ok());
  double integral = 0.0;
  const double dx = 0.05;
  for (double x = -10.0; x <= 16.0; x += dx) {
    integral += kde->Density(x) * dx;
  }
  EXPECT_NEAR(integral, 1.0, 0.02);
}

TEST(KdeTest, NormalizedScoreInUnitInterval) {
  const auto kde = GaussianKde::Fit(NormalSample(0.0, 1.0, 500, 4));
  ASSERT_TRUE(kde.ok());
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    const double s = kde->NormalizedScore(rng.Uniform(-20, 20));
    EXPECT_GE(s, kScoreFloor);
    EXPECT_LE(s, 1.0);
  }
}

TEST(KdeTest, FarTailHitsScoreFloor) {
  const auto kde = GaussianKde::Fit(NormalSample(0.0, 1.0, 500, 6));
  ASSERT_TRUE(kde.ok());
  EXPECT_DOUBLE_EQ(kde->NormalizedScore(1e6), kScoreFloor);
}

TEST(KdeTest, DegenerateSampleGetsFallbackBandwidth) {
  const auto kde = GaussianKde::Fit({2.0, 2.0, 2.0, 2.0});
  ASSERT_TRUE(kde.ok());
  EXPECT_GT(kde->bandwidth(), 0.0);
  EXPECT_GT(kde->Density(2.0), 0.0);
  EXPECT_NEAR(kde->NormalizedScore(2.0), 1.0, 1e-9);
}

TEST(KdeTest, SilvermanRuleAlsoWorks) {
  const auto kde = GaussianKde::Fit(NormalSample(0, 1, 500, 7),
                                    BandwidthRule::kSilverman);
  ASSERT_TRUE(kde.ok());
  EXPECT_GT(kde->bandwidth(), 0.0);
  EXPECT_GT(kde->Density(0.0), kde->Density(3.0));
}

TEST(KdeTest, BimodalSampleHasTwoPeaks) {
  std::vector<double> xs = NormalSample(-5.0, 0.5, 1000, 8);
  const std::vector<double> right = NormalSample(5.0, 0.5, 1000, 9);
  xs.insert(xs.end(), right.begin(), right.end());
  const auto kde = GaussianKde::Fit(std::move(xs));
  ASSERT_TRUE(kde.ok());
  EXPECT_GT(kde->Density(-5.0), kde->Density(0.0) * 5.0);
  EXPECT_GT(kde->Density(5.0), kde->Density(0.0) * 5.0);
}

TEST(KdeTest, TruncatedEvaluationMatchesFullSum) {
  // Density from the sorted/cutoff implementation must match a naive sum.
  const std::vector<double> xs = NormalSample(0.0, 1.0, 300, 10);
  const auto kde = GaussianKde::FitWithBandwidth(xs, 0.4);
  ASSERT_TRUE(kde.ok());
  for (double x : {-2.0, -0.5, 0.0, 1.0, 3.0}) {
    double naive = 0.0;
    for (double s : xs) {
      const double u = (x - s) / 0.4;
      naive += std::exp(-0.5 * u * u);
    }
    naive *= 0.3989422804014327 / (0.4 * static_cast<double>(xs.size()));
    EXPECT_NEAR(kde->Density(x), naive, 1e-12);
  }
}

TEST(KdeTest, DensityBatchMatchesScalarDensity) {
  // The batch sliding-window path must produce bit-identical densities to
  // per-point evaluation, for sorted and unsorted query orders.
  const auto kde = GaussianKde::Fit(NormalSample(0.0, 1.0, 500, 12));
  ASSERT_TRUE(kde.ok());
  const std::vector<double> sorted_queries = {-3.0, -1.0, 0.0, 0.5, 2.5};
  const std::vector<double> unsorted_queries = {2.5, -3.0, 0.5, -1.0, 0.0};
  for (const std::vector<double>& queries :
       {sorted_queries, unsorted_queries}) {
    std::vector<double> batch(queries.size());
    kde->DensityBatch(queries, batch);
    for (size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(batch[i], kde->Density(queries[i])) << "query " << i;
    }
  }
}

TEST(KdeTest, DensityBatchHandlesDuplicatesAndTails) {
  const auto kde = GaussianKde::Fit(NormalSample(5.0, 2.0, 200, 13));
  ASSERT_TRUE(kde.ok());
  // Duplicates, far tails (empty kernel windows), and interior points.
  const std::vector<double> queries = {5.0, 5.0, -1e6, 1e6, 4.9, 5.0};
  std::vector<double> batch(queries.size());
  kde->DensityBatch(queries, batch);
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(batch[i], kde->Density(queries[i])) << "query " << i;
  }
  EXPECT_EQ(batch[2], 0.0);
  EXPECT_EQ(batch[3], 0.0);
}

// ------------------------------------------------------------ Histogram

TEST(HistogramTest, RejectsInvalidInput) {
  EXPECT_FALSE(HistogramDensity::Fit({}).ok());
  EXPECT_FALSE(HistogramDensity::Fit({1.0}, 0).ok());
  EXPECT_FALSE(HistogramDensity::Fit({NAN}).ok());
}

TEST(HistogramTest, UniformDataGivesFlatDensity) {
  Rng rng(11);
  std::vector<double> xs;
  for (int i = 0; i < 20000; ++i) xs.push_back(rng.Uniform(0.0, 10.0));
  const auto hist = HistogramDensity::Fit(xs, 10);
  ASSERT_TRUE(hist.ok());
  // Uniform density over [0, 10] is 0.1.
  for (double x : {0.5, 3.3, 7.7, 9.5}) {
    EXPECT_NEAR(hist->Density(x), 0.1, 0.01);
  }
}

TEST(HistogramTest, OutOfRangeIsZero) {
  const auto hist = HistogramDensity::Fit({1, 2, 3}, 4);
  ASSERT_TRUE(hist.ok());
  EXPECT_DOUBLE_EQ(hist->Density(-5.0), 0.0);
  EXPECT_DOUBLE_EQ(hist->Density(100.0), 0.0);
}

TEST(HistogramTest, DegenerateSampleWidened) {
  const auto hist = HistogramDensity::Fit({3.0, 3.0, 3.0}, 4);
  ASSERT_TRUE(hist.ok());
  EXPECT_GT(hist->Density(3.0), 0.0);
}

TEST(HistogramTest, ModeDensityIsMaxBin) {
  const auto hist = HistogramDensity::Fit({1, 1, 1, 1, 5}, 4);
  ASSERT_TRUE(hist.ok());
  EXPECT_NEAR(hist->NormalizedScore(1.0), 1.0, 1e-9);
  EXPECT_LT(hist->NormalizedScore(5.0), 1.0);
}

TEST(HistogramTest, BinCountsSumToSampleCount) {
  Rng rng(13);
  std::vector<double> xs;
  for (int i = 0; i < 500; ++i) xs.push_back(rng.Normal(0, 2));
  const auto hist = HistogramDensity::Fit(xs, 16);
  ASSERT_TRUE(hist.ok());
  size_t total = 0;
  for (int b = 0; b < hist->num_bins(); ++b) total += hist->bin_count(b);
  EXPECT_EQ(total, xs.size());
}

// ------------------------------------------------------------- Gaussian

TEST(GaussianTest, CreateValidation) {
  EXPECT_TRUE(Gaussian::Create(0.0, 1.0).ok());
  EXPECT_FALSE(Gaussian::Create(0.0, 0.0).ok());
  EXPECT_FALSE(Gaussian::Create(0.0, -1.0).ok());
  EXPECT_FALSE(Gaussian::Create(NAN, 1.0).ok());
}

TEST(GaussianTest, DensityGoldenValues) {
  const auto g = Gaussian::Create(0.0, 1.0);
  ASSERT_TRUE(g.ok());
  EXPECT_NEAR(g->Density(0.0), 0.3989422804014327, 1e-12);
  EXPECT_NEAR(g->Density(1.0), 0.24197072451914337, 1e-12);
  EXPECT_NEAR(g->ModeDensity(), 0.3989422804014327, 1e-12);
}

TEST(GaussianTest, FitRecoversParameters) {
  const auto g = Gaussian::Fit(NormalSample(5.0, 2.0, 50000, 14));
  ASSERT_TRUE(g.ok());
  EXPECT_NEAR(g->mean(), 5.0, 0.05);
  EXPECT_NEAR(g->stddev(), 2.0, 0.05);
}

TEST(GaussianTest, FitDegenerateSample) {
  const auto g = Gaussian::Fit({4.0, 4.0, 4.0});
  ASSERT_TRUE(g.ok());
  EXPECT_GT(g->stddev(), 0.0);
}

TEST(GaussianTest, NormalizedScoreAtMeanIsOne) {
  const auto g = Gaussian::Create(3.0, 0.5);
  ASSERT_TRUE(g.ok());
  EXPECT_NEAR(g->NormalizedScore(3.0), 1.0, 1e-12);
  EXPECT_NEAR(g->NormalizedScore(3.5), std::exp(-0.5), 1e-12);
}

// ------------------------------------------------------------- Discrete

TEST(BernoulliTest, CreateValidation) {
  EXPECT_TRUE(Bernoulli::Create(0.3).ok());
  EXPECT_FALSE(Bernoulli::Create(-0.1).ok());
  EXPECT_FALSE(Bernoulli::Create(1.1).ok());
}

TEST(BernoulliTest, MassFunction) {
  const auto b = Bernoulli::Create(0.3);
  ASSERT_TRUE(b.ok());
  EXPECT_DOUBLE_EQ(b->Density(1.0), 0.3);
  EXPECT_DOUBLE_EQ(b->Density(0.0), 0.7);
  EXPECT_DOUBLE_EQ(b->Density(2.0), 0.0);
  EXPECT_DOUBLE_EQ(b->ModeDensity(), 0.7);
}

TEST(BernoulliTest, FitWithSmoothing) {
  // 3 ones of 4 samples with add-one smoothing: (3+1)/(4+2) = 2/3.
  const auto b = Bernoulli::Fit({1, 1, 1, 0});
  ASSERT_TRUE(b.ok());
  EXPECT_NEAR(b->p_one(), 2.0 / 3.0, 1e-12);
}

TEST(BernoulliTest, FitAllOnesStaysBelowOne) {
  const auto b = Bernoulli::Fit({1, 1, 1, 1});
  ASSERT_TRUE(b.ok());
  EXPECT_LT(b->p_one(), 1.0);
  EXPECT_GT(b->Density(0.0), 0.0);
}

TEST(BernoulliTest, FitRejectsEmpty) { EXPECT_FALSE(Bernoulli::Fit({}).ok()); }

TEST(CategoricalTest, FitCountsAndSmoothes) {
  const auto c = Categorical::Fit({1, 1, 2, 3, 3, 3});
  ASSERT_TRUE(c.ok());
  // Add-one over support {1,2,3}: total = 6 + 3 = 9.
  EXPECT_NEAR(c->Mass(1), 3.0 / 9.0, 1e-12);
  EXPECT_NEAR(c->Mass(2), 2.0 / 9.0, 1e-12);
  EXPECT_NEAR(c->Mass(3), 4.0 / 9.0, 1e-12);
  EXPECT_DOUBLE_EQ(c->Mass(7), 0.0);
}

TEST(CategoricalTest, DensityRoundsInput) {
  const auto c = Categorical::Fit({2, 2, 5});
  ASSERT_TRUE(c.ok());
  EXPECT_DOUBLE_EQ(c->Density(2.3), c->Mass(2));
  EXPECT_DOUBLE_EQ(c->Density(4.6), c->Mass(5));
}

TEST(CategoricalTest, ModeDensityIsMaxMass) {
  const auto c = Categorical::Fit({4, 4, 4, 9});
  ASSERT_TRUE(c.ok());
  EXPECT_NEAR(c->ModeDensity(), c->Mass(4), 1e-12);
  EXPECT_NEAR(c->NormalizedScore(4.0), 1.0, 1e-12);
}

TEST(CategoricalTest, RejectsEmptyAndNonFinite) {
  EXPECT_FALSE(Categorical::Fit({}).ok());
  EXPECT_FALSE(Categorical::Fit({1.0, NAN}).ok());
}

// --------------------------------------------------------------- Lambda

TEST(LambdaDistributionTest, WrapsFunction) {
  const LambdaDistribution d("exp", [](double x) { return std::exp(-x); });
  EXPECT_DOUBLE_EQ(d.Density(0.0), 1.0);
  EXPECT_NEAR(d.Density(1.0), std::exp(-1.0), 1e-12);
  EXPECT_DOUBLE_EQ(d.ModeDensity(), 1.0);
}

TEST(LambdaDistributionTest, ClampsToUnitInterval) {
  const LambdaDistribution d("wild", [](double x) { return x; });
  EXPECT_DOUBLE_EQ(d.Density(5.0), 1.0);
  EXPECT_DOUBLE_EQ(d.Density(-5.0), 0.0);
}

TEST(DistributionInterfaceTest, LogDensityIsFloored) {
  const LambdaDistribution d("zero", [](double) { return 0.0; });
  EXPECT_TRUE(std::isfinite(d.LogDensity(0.0)));
  EXPECT_DOUBLE_EQ(d.LogDensity(0.0), std::log(kScoreFloor));
}

// Property sweep: for every estimator, NormalizedScore stays in
// [floor, 1] across a wide input range.
struct EstimatorCase {
  std::string name;
  std::shared_ptr<const Distribution> dist;
};

// Prints a case by name, so the parameter (and the test name CTest
// derives from it) is the same on every run; the default printer would
// show the shared_ptr's heap address.
void PrintTo(const EstimatorCase& c, std::ostream* os) { *os << c.name; }

class DistributionContractTest
    : public ::testing::TestWithParam<EstimatorCase> {};

TEST_P(DistributionContractTest, NormalizedScoreBounds) {
  const auto& dist = GetParam().dist;
  Rng rng(55);
  for (int i = 0; i < 500; ++i) {
    const double x = rng.Uniform(-100.0, 100.0);
    const double s = dist->NormalizedScore(x);
    EXPECT_GE(s, kScoreFloor);
    EXPECT_LE(s, 1.0);
    EXPECT_GE(dist->Density(x), 0.0);
  }
}

std::vector<EstimatorCase> AllDistributions() {
  std::vector<EstimatorCase> all;
  all.push_back({"kde", std::make_shared<GaussianKde>(GaussianKde::Fit(
                            NormalSample(0, 2, 300, 21)).value())});
  all.push_back({"histogram",
                 std::make_shared<HistogramDensity>(
                     HistogramDensity::Fit(NormalSample(0, 2, 300, 22), 16)
                         .value())});
  all.push_back(
      {"gaussian", std::make_shared<Gaussian>(Gaussian::Create(0, 2).value())});
  all.push_back({"bernoulli",
                 std::make_shared<Bernoulli>(Bernoulli::Create(0.4).value())});
  all.push_back({"categorical", std::make_shared<Categorical>(
                                    Categorical::Fit({1, 2, 2, 3, 3, 3})
                                        .value())});
  all.push_back({"lambda_exp", std::make_shared<LambdaDistribution>(
                                   "exp", [](double x) {
                                     return std::exp(-std::abs(x));
                                   })});
  return all;
}

INSTANTIATE_TEST_SUITE_P(AllEstimators, DistributionContractTest,
                         ::testing::ValuesIn(AllDistributions()));

}  // namespace
}  // namespace fixy::stats
