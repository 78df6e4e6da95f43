// Gaussian kernel density estimation — the paper's default feature
// distribution estimator ("By default, Fixy uses a kernel density estimator
// (KDE) to learn feature distributions", Section 5.2).
#ifndef FIXY_STATS_KDE_H_
#define FIXY_STATS_KDE_H_

#include <atomic>
#include <span>
#include <vector>

#include "common/result.h"
#include "stats/distribution.h"

namespace fixy::stats {

/// Rule for choosing the kernel bandwidth from the sample.
enum class BandwidthRule {
  /// Scott's rule: h = sigma * n^(-1/5).
  kScott,
  /// Silverman's rule of thumb:
  /// h = 0.9 * min(sigma, IQR/1.34) * n^(-1/5).
  kSilverman,
};

/// A univariate Gaussian kernel density estimator.
class GaussianKde final : public Distribution {
 public:
  /// Fits a KDE to `samples`. Errors:
  ///  - InvalidArgument if `samples` is empty or contains non-finite values;
  ///  - InvalidArgument if the selected bandwidth or the normalization
  ///    1/(sqrt(2*pi) * h * n) is not finite and positive (a spread that
  ///    overflows, e.g. samples near +-1e300).
  /// Degenerate samples (zero spread) get a small positive fallback
  /// bandwidth so the density stays well defined.
  static Result<GaussianKde> Fit(std::vector<double> samples,
                                 BandwidthRule rule = BandwidthRule::kScott);

  /// Fits with an explicit bandwidth. Errors (InvalidArgument) if the
  /// bandwidth is below 1e-6 or not finite, if its normalization
  /// 1/(sqrt(2*pi) * h * n) is not finite and positive, or if samples are
  /// empty / non-finite.
  static Result<GaussianKde> FitWithBandwidth(std::vector<double> samples,
                                              double bandwidth);

  double Density(double x) const override;
  /// Batch evaluation: identical results to calling Density per element,
  /// but the queries are visited in ascending order, so each window search
  /// starts from the previous window instead of the whole sample — the
  /// path factor scoring and the mode scan use.
  void DensityBatch(std::span<const double> xs,
                    std::span<double> out) const override;
  /// Exact mode density (the maximum of Density over the samples),
  /// computed lazily on first use and cached. Fitting a KDE is therefore
  /// cheap — a sort and a bandwidth — and only distributions that actually
  /// score pay for the mode search. Thread-safe: concurrent first calls
  /// race benignly (ExactModeDensity is deterministic, so every racer
  /// stores the same bits).
  double ModeDensity() const override;
  bool CostlyDensity() const override { return true; }
  std::string ToString() const override;

  double bandwidth() const { return bandwidth_; }
  size_t sample_count() const { return samples_.size(); }
  /// Fitted samples, sorted ascending (exposed for serialization).
  const std::vector<double>& samples() const { return samples_; }

  /// The cached mode density is copied/moved along with the samples, so a
  /// distribution that already paid for the mode search never re-runs it.
  GaussianKde(const GaussianKde& other);
  GaussianKde(GaussianKde&& other) noexcept;
  GaussianKde& operator=(const GaussianKde& other);
  GaussianKde& operator=(GaussianKde&& other) noexcept;

 private:
  GaussianKde(std::vector<double> samples, double bandwidth);

  /// Density without the stats.kde_evals count — Density and DensityBatch
  /// each record their own (batched) count exactly once per query.
  double DensityUncounted(double x) const;

  /// Kernel-window sum at `x`. `lo`/`hi` are the window bounds carried
  /// across queries in ascending order (both 0 for a lone query); each is
  /// re-found by binary search from where it was. The sum itself runs on
  /// the dispatched SIMD kernel (stats/simd.h).
  double WindowedSum(double x, size_t* lo, size_t* hi) const;

  /// max over samples of the density at that sample — the same value a
  /// full DensityBatch(samples_) scan produces, found by bounding each
  /// sample's density from above with annulus counts and evaluating
  /// exactly only the candidates whose bound beats the best exact density
  /// seen so far. Cuts the mode search on large KDEs from O(n * window)
  /// kernel evaluations to O(n) bounds plus a handful of exact ones.
  double ExactModeDensity() const;

  std::vector<double> samples_;  // sorted ascending
  double bandwidth_ = 0.0;
  /// Hot-path constants, fixed at construction: 1/h and the shared factor
  /// 1/(sqrt(2*pi) * h * n) applied to every kernel sum.
  double inv_bandwidth_ = 0.0;
  double norm_ = 0.0;
  /// Lazily-computed ModeDensity() cache; negative means "not computed
  /// yet" (a real mode density is at least one kernel's peak, so it is
  /// always positive). Atomic because scoring is multi-threaded and the
  /// first callers may race; they all store identical bits.
  mutable std::atomic<double> mode_density_{-1.0};
};

}  // namespace fixy::stats

#endif  // FIXY_STATS_KDE_H_
