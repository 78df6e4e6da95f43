// Histogram density estimation: an alternative to KDE for feature
// distributions (the paper lets users override the default estimator;
// the ablation bench compares the two).
#ifndef FIXY_STATS_HISTOGRAM_H_
#define FIXY_STATS_HISTOGRAM_H_

#include <vector>

#include "common/result.h"
#include "stats/distribution.h"
#include "stats/sufficient.h"

namespace fixy::stats {

/// A fixed-width-bin histogram density over [min, max]. Values outside the
/// fitted range have zero density (before the score floor).
class HistogramDensity final : public Distribution {
 public:
  /// Fits to `values` with `num_bins` equal-width bins spanning their
  /// range (widened slightly when the range is degenerate). Reads each
  /// distinct value once, so the work and memory follow the distinct
  /// values, not the count they claim. Errors: InvalidArgument for no
  /// values, a non-finite one, num_bins < 1, or a range whose bin width
  /// is not finite and positive (values near +-1e308).
  static Result<HistogramDensity> Fit(const ValueCounts& values,
                                      int num_bins = 32);

  double Density(double x) const override;
  double ModeDensity() const override { return mode_density_; }
  std::string ToString() const override;

  int num_bins() const { return static_cast<int>(counts_.size()); }
  double bin_width() const { return bin_width_; }
  /// Count of fitted samples in bin `i`.
  size_t bin_count(int i) const { return counts_[static_cast<size_t>(i)]; }
  /// Left edge of bin 0.
  double lower_bound() const { return lo_; }
  size_t total_count() const { return total_; }

 private:
  HistogramDensity(double lo, double bin_width, std::vector<size_t> counts,
                   size_t total);

  double lo_ = 0.0;
  double bin_width_ = 0.0;
  std::vector<size_t> counts_;
  size_t total_ = 0;
  double mode_density_ = 0.0;
};

}  // namespace fixy::stats

#endif  // FIXY_STATS_HISTOGRAM_H_
