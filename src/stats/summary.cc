#include "stats/summary.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace fixy::stats {

double Mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

double Variance(const std::vector<double>& xs) {
  if (xs.size() < 2) return 0.0;
  const double mean = Mean(xs);
  double sum = 0.0;
  for (double x : xs) {
    const double d = x - mean;
    sum += d * d;
  }
  return sum / static_cast<double>(xs.size() - 1);
}

double Stddev(const std::vector<double>& xs) { return std::sqrt(Variance(xs)); }

double SortedQuantile(const std::vector<double>& sorted, double q) {
  FIXY_CHECK(!sorted.empty());
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

Summary Summarize(std::vector<double> xs) {
  Summary s;
  s.count = xs.size();
  if (xs.empty()) return s;
  s.mean = Mean(xs);
  s.stddev = Stddev(xs);
  std::sort(xs.begin(), xs.end());
  s.min = xs.front();
  s.max = xs.back();
  s.median = SortedQuantile(xs, 0.5);
  return s;
}

}  // namespace fixy::stats
