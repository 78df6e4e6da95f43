#include "stats/histogram.h"

#include <algorithm>
#include <cmath>

#include "common/string_util.h"

namespace fixy::stats {

HistogramDensity::HistogramDensity(double lo, double bin_width,
                                   std::vector<size_t> counts, size_t total)
    : lo_(lo), bin_width_(bin_width), counts_(std::move(counts)),
      total_(total) {
  size_t max_count = 0;
  for (size_t c : counts_) max_count = std::max(max_count, c);
  mode_density_ = static_cast<double>(max_count) /
                  (static_cast<double>(total_) * bin_width_);
}

Result<HistogramDensity> HistogramDensity::Fit(const ValueCounts& values,
                                               int num_bins) {
  if (values.counts.empty()) {
    return Status::InvalidArgument("histogram requires at least one sample");
  }
  if (num_bins < 1) {
    return Status::InvalidArgument("histogram needs num_bins >= 1");
  }
  for (const auto& [value, count] : values.counts) {
    (void)count;
    if (!std::isfinite(value)) {
      return Status::InvalidArgument("histogram sample is not finite");
    }
  }
  // The map is sorted, so its ends bound the sample.
  double lo = values.counts.begin()->first;
  double hi = values.counts.rbegin()->first;
  if (hi - lo <= 0.0) {
    // All samples identical: widen to a small interval around the value.
    const double pad = std::max(1e-6, std::abs(lo) * 0.01);
    lo -= pad;
    hi += pad;
  }
  const double width = (hi - lo) / num_bins;
  if (!(width > 0.0) || !std::isfinite(width)) {
    return Status::InvalidArgument(
        "histogram bin width is not finite and positive");
  }
  std::vector<size_t> counts(static_cast<size_t>(num_bins), 0);
  size_t total = 0;
  for (const auto& [value, count] : values.counts) {
    int bin = static_cast<int>((value - lo) / width);
    bin = std::clamp(bin, 0, num_bins - 1);
    counts[static_cast<size_t>(bin)] += count;
    total += count;
  }
  return HistogramDensity(lo, width, std::move(counts), total);
}

double HistogramDensity::Density(double x) const {
  const double offset = (x - lo_) / bin_width_;
  // Negated bounds check so a NaN offset (non-finite query) returns zero
  // density instead of reaching the size_t cast, which is UB for NaN.
  if (!(offset >= 0.0) ||
      offset >= static_cast<double>(counts_.size()) + 1e-12) {
    return 0.0;
  }
  const size_t bin =
      std::min(static_cast<size_t>(offset), counts_.size() - 1);
  return static_cast<double>(counts_[bin]) /
         (static_cast<double>(total_) * bin_width_);
}

std::string HistogramDensity::ToString() const {
  return StrFormat("Histogram(bins=%zu, n=%zu)", counts_.size(), total_);
}

}  // namespace fixy::stats
