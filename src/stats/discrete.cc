#include "stats/discrete.h"

#include <algorithm>
#include <cmath>

#include "common/string_util.h"

namespace fixy::stats {

Categorical::Categorical(std::map<long, double> mass)
    : mass_(std::move(mass)) {
  for (const auto& [value, p] : mass_) {
    (void)value;
    mode_ = std::max(mode_, p);
  }
}

Result<Categorical> Categorical::Fit(const ValueCounts& values) {
  if (values.counts.empty()) {
    return Status::InvalidArgument("Categorical fit requires samples");
  }
  std::map<long, double> counts;
  uint64_t n = 0;
  for (const auto& [value, count] : values.counts) {
    if (!std::isfinite(value)) {
      return Status::InvalidArgument("Categorical sample is not finite");
    }
    // Sums of integer-valued doubles below 2^53 are exact, so these are
    // the bits one 1.0 per sample would add up to.
    counts[std::lround(value)] += static_cast<double>(count);
    n += count;
  }
  // Add-one smoothing over the observed support.
  const double total =
      static_cast<double>(n) + static_cast<double>(counts.size());
  for (auto& [value, count] : counts) {
    (void)value;
    count = (count + 1.0) / total;
  }
  return Categorical(std::move(counts));
}

double Categorical::Density(double x) const { return Mass(std::lround(x)); }

double Categorical::ModeDensity() const { return mode_; }

double Categorical::Mass(long v) const {
  const auto it = mass_.find(v);
  return it == mass_.end() ? 0.0 : it->second;
}

std::string Categorical::ToString() const {
  return StrFormat("Categorical(support=%zu)", mass_.size());
}

}  // namespace fixy::stats
