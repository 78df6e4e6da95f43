// Descriptive statistics used by the distribution fitters and the
// evaluation harness.
#ifndef FIXY_STATS_SUMMARY_H_
#define FIXY_STATS_SUMMARY_H_

#include <cstddef>
#include <vector>

namespace fixy::stats {

/// Arithmetic mean; 0 for an empty sample.
double Mean(const std::vector<double>& xs);

/// Unbiased sample variance (n-1 denominator); 0 for n < 2.
double Variance(const std::vector<double>& xs);

/// sqrt(Variance).
double Stddev(const std::vector<double>& xs);

/// Linear-interpolation quantile of a *sorted ascending* sample.
/// q is clamped to [0, 1]. Precondition: xs non-empty.
double SortedQuantile(const std::vector<double>& sorted, double q);

/// Summary of a sample in one pass-friendly struct.
struct Summary {
  size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
  double median = 0.0;
};

Summary Summarize(std::vector<double> xs);

}  // namespace fixy::stats

#endif  // FIXY_STATS_SUMMARY_H_
