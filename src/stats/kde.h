// Gaussian kernel density estimation — the paper's default feature
// distribution estimator ("By default, Fixy uses a kernel density estimator
// (KDE) to learn feature distributions", Section 5.2).
//
// Densities come from a table of ln f built on first use (DESIGN.md §11,
// "ln-density table"): a 4-point cubic on an h/32 grid over each cluster of
// samples, whose nodes are exact windowed sums. The exact sum
// (ExactDensity) builds the table, finds the mode, and answers every query
// the table cannot answer within kTableTolerance.
#ifndef FIXY_STATS_KDE_H_
#define FIXY_STATS_KDE_H_

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "common/result.h"
#include "stats/distribution.h"

namespace fixy::stats {

/// A univariate Gaussian kernel density estimator.
class GaussianKde final : public Distribution {
 public:
  /// Table grid steps per bandwidth h.
  static constexpr int kTableStepsPerBandwidth = 32;
  /// Neighbouring samples further apart than this many bandwidths start a
  /// new table cluster; the gap between clusters is not tabulated.
  static constexpr double kClusterGapBandwidths = 16.0;
  /// tau: the stated bound on a table answer's |error in ln f|. The build
  /// hands every cell whose estimated error exceeds tau / 2 to the exact
  /// sum.
  static constexpr double kTableTolerance = 2e-6;
  /// eta: a query whose interpolated normalized score exceeds 1 - eta is
  /// answered exactly, so ln(1 - p) (the inverting AOF) stays accurate.
  static constexpr double kModeBand = 1e-3;
  /// Node budget: a distribution whose table would need more than
  /// kTableBaseNodes + kTableNodesPerSample * n nodes answers every query
  /// exactly (a tiny hand-set bandwidth).
  static constexpr size_t kTableBaseNodes = 4096;
  static constexpr size_t kTableNodesPerSample = 64;

  /// Fits a KDE to `samples` with Scott's rule, h = sigma * n^(-1/5).
  /// Errors:
  ///  - InvalidArgument if `samples` is empty or contains non-finite values;
  ///  - InvalidArgument if the selected bandwidth or the normalization
  ///    1/(sqrt(2*pi) * h * n) is not finite and positive (a spread that
  ///    overflows, e.g. samples near +-1e300).
  /// Degenerate samples (zero spread) get a small positive fallback
  /// bandwidth so the density stays well defined.
  static Result<GaussianKde> Fit(std::vector<double> samples);

  /// Fits with an explicit bandwidth: the tests' way to pin one (no model
  /// file carries a bandwidth; a load re-fits with Scott's rule). Errors
  /// (InvalidArgument) if the bandwidth is below 1e-6 or not finite, if
  /// its normalization 1/(sqrt(2*pi) * h * n) is not finite and positive,
  /// or if samples are empty / non-finite.
  static Result<GaussianKde> FitWithBandwidth(std::vector<double> samples,
                                              double bandwidth);

  /// The density at `x` from the ln-density table, or from ExactDensity
  /// where the table cannot meet its tolerance. Counts stats.kde_evals,
  /// and stats.kde_exact when the exact sum answers. A pure function of
  /// (distribution, x).
  double Density(double x) const override;
  /// Density per element (`out` has the extent of `xs`), with the same
  /// bits and counts, fetching the table and counting once per batch.
  void DensityBatch(std::span<const double> xs, std::span<double> out) const;
  /// Exact mode density (the maximum of ExactDensity over the samples),
  /// found with the table, from its nodes, on first use. Fitting a KDE is
  /// therefore cheap — a sort and a bandwidth — and only distributions
  /// that actually score pay for the warm-up.
  double ModeDensity() const override;
  std::string ToString() const override;

  /// The kernel-window sum behind every density: the samples within 8
  /// bandwidths of `x`, on the dispatched SIMD kernel. Uncounted; 0 for a
  /// non-finite `x` or an empty window.
  double ExactDensity(double x) const;
  /// ExactDensity per element. The window cursors slide right from query
  /// to query and restart at a step back, as the table build's ascending
  /// grid uses them; the bits are ExactDensity's either way.
  void ExactDensityBatch(std::span<const double> xs,
                         std::span<double> out) const;
  /// Nodes in the ln-density table, building it if needed; 0 when every
  /// query is answered exactly (grid not representable, or over budget).
  size_t TableNodeCount() const;

  double bandwidth() const { return bandwidth_; }
  size_t sample_count() const { return samples_.size(); }
  /// Fitted samples, sorted ascending.
  const std::vector<double>& samples() const { return samples_; }

 private:
  struct Table;
  /// The lazily derived state — the table, which carries the mode — built
  /// once under one std::call_once and the stats.kde_warmup timer. It is a
  /// function of the samples and the bandwidth alone, so copies and moves
  /// share it and a copy never repeats a warm-up.
  struct Lazy;

  GaussianKde(std::vector<double> samples, double bandwidth);

  /// Kernel-window sum at `x`. `lo`/`hi` are the window bounds carried
  /// across ascending queries (both 0 for a lone query); each is re-found
  /// by binary search from where it was.
  double WindowedSum(double x, size_t* lo, size_t* hi) const;

  /// The mode of a distribution without a table: max over samples of
  /// ExactDensity at that sample, found by bounding each sample's density
  /// from above with annulus counts and evaluating exactly only the
  /// candidates whose bound beats the best exact density seen so far.
  double ExactModeDensity() const;
  /// The same maximum, bounded from the table's nodes while they still
  /// hold linear densities (DESIGN.md §11, "Warm-up", has the proof).
  double NodeModeDensity(const Table& table) const;

  /// The table, built on first use; readers take no lock.
  const Table& table() const;
  Table BuildTable() const;
  /// The density at finite `x`; sets *exact when the exact sum answered.
  double Lookup(const Table& table, double x, bool* exact) const;

  std::vector<double> samples_;  // sorted ascending
  double bandwidth_ = 0.0;
  /// Hot-path constants, fixed at construction: 1/h and the shared factor
  /// 1/(sqrt(2*pi) * h * n) applied to every kernel sum.
  double inv_bandwidth_ = 0.0;
  double norm_ = 0.0;
  std::shared_ptr<Lazy> lazy_;
};

}  // namespace fixy::stats

#endif  // FIXY_STATS_KDE_H_
