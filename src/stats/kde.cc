#include "stats/kde.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <mutex>

#include "common/logging.h"
#include "common/macros.h"
#include "common/string_util.h"
#include "obs/metrics.h"
#include "stats/simd.h"
#include "stats/summary.h"

namespace fixy::stats {

namespace {

constexpr double kInvSqrt2Pi = 0.3989422804014327;

// Bandwidth below which the KDE would be numerically useless.
constexpr double kMinBandwidth = 1e-6;

// Kernels further than this many bandwidths from a query are not summed.
constexpr double kCutoffBandwidths = 8.0;

Status ValidateSamples(const std::vector<double>& samples) {
  if (samples.empty()) {
    return Status::InvalidArgument("KDE requires at least one sample");
  }
  for (double s : samples) {
    if (!std::isfinite(s)) {
      return Status::InvalidArgument("KDE sample is not finite");
    }
  }
  return Status::Ok();
}

// Scott's rule, h = sigma * n^(-1/5).
double SelectBandwidth(const std::vector<double>& sorted) {
  const double n = static_cast<double>(sorted.size());
  double bw = Stddev(sorted) * std::pow(n, -0.2);
  if (bw < kMinBandwidth) {
    // Degenerate sample (all values equal or nearly so): fall back to a
    // bandwidth proportional to the magnitude of the data, so the density
    // is a narrow bump at the repeated value.
    const double scale = std::abs(sorted.front()) + std::abs(sorted.back());
    bw = std::max(kMinBandwidth, 0.01 * scale);
  }
  return bw;
}

// The constructor's invariants as a Status: `bandwidth` and the kernel
// normalization 1/(sqrt(2*pi) * h * n) must both be finite and positive.
// Reachable from data (a sample whose spread overflows) and from a
// hand-edited model file, so it must not be a CHECK.
Status ValidateBandwidth(double bandwidth, size_t sample_count) {
  const double norm =
      kInvSqrt2Pi / (bandwidth * static_cast<double>(sample_count));
  if (!(std::isfinite(bandwidth) && bandwidth > 0.0 && std::isfinite(norm) &&
        norm > 0.0)) {
    return Status::InvalidArgument(StrFormat(
        "KDE bandwidth %g over %zu samples has no finite normalization",
        bandwidth, sample_count));
  }
  return Status::Ok();
}

// The spacing of doubles at the larger of a cluster's end points: the
// rounding unit of its node positions and of a query's offset into it.
double EndPointUlp(double lo, double hi) {
  const double magnitude = std::max(std::abs(lo), std::abs(hi));
  return std::nextafter(magnitude, INFINITY) - magnitude;
}

// The 4-point Lagrange cubic through y[0..3] (nodes i - 1 .. i + 2) at t in
// [0, 1] of cell i. Its weights' magnitudes sum to 1 + t (1 - t) <= 5/4.
double Cubic(const double* y, double t) {
  const double tp = t + 1.0;
  const double tm = t - 1.0;
  const double tmm = t - 2.0;
  return (-t * tm * tmm * y[0] + 3.0 * tp * tm * tmm * y[1] -
          3.0 * tp * t * tmm * y[2] + tp * t * tm * y[3]) /
         6.0;
}

}  // namespace

// The ln-density table (DESIGN.md §11). Each cluster's nodes sit at
// lo + j * step, j in [0, nodes); cell i is [node i, node i + 1] and is
// interpolated from nodes i - 1 .. i + 2 unless `exact[first + i]` is set.
struct GaussianKde::Table {
  struct Cluster {
    double lo = 0.0;    // first node
    double hi = 0.0;    // last node
    size_t first = 0;   // index of the first node in ln_f / exact
    size_t nodes = 0;
  };
  std::vector<Cluster> clusters;  // ascending lo
  std::vector<double> ln_f;       // ln of the exact density at each node
  std::vector<uint8_t> exact;     // per cell: the exact sum answers
  double inv_step = 0.0;
  /// (1 - eta) * mode: interpolated densities above it answer exactly.
  double band = 0.0;
  /// max over samples of ExactDensity; set with or without clusters.
  double mode = 0.0;
};

struct GaussianKde::Lazy {
  std::once_flag once;
  Table table;
  std::atomic<const Table*> published{nullptr};
};

GaussianKde::GaussianKde(std::vector<double> samples, double bandwidth)
    : samples_(std::move(samples)),
      bandwidth_(bandwidth),
      lazy_(std::make_shared<Lazy>()) {
  // Both factories validate before constructing, but the invariants are
  // load-bearing (empty samples make norm_ infinite, a non-positive or
  // non-finite bandwidth poisons every density), so they are re-checked
  // here where they are relied on.
  FIXY_CHECK_MSG(!samples_.empty(), "GaussianKde constructed with no samples");
  FIXY_CHECK_MSG(std::isfinite(bandwidth_) && bandwidth_ > 0.0,
                 "GaussianKde constructed with invalid bandwidth %f",
                 bandwidth_);
  std::sort(samples_.begin(), samples_.end());
  inv_bandwidth_ = 1.0 / bandwidth_;
  norm_ = kInvSqrt2Pi /
          (bandwidth_ * static_cast<double>(samples_.size()));
  FIXY_CHECK_MSG(std::isfinite(norm_) && norm_ > 0.0,
                 "GaussianKde normalization is not finite");
}

double GaussianKde::ModeDensity() const {
  // For a Gaussian KDE the mode is near one of the sample points; the
  // maximum of the density over the samples gives an accurate
  // normalization constant. It comes with the table, on first use, so a
  // fold or a save/load round trip never pays for it.
  return table().mode;
}

double GaussianKde::ExactModeDensity() const {
  const size_t n = samples_.size();
  // The mode of a distribution without a table (or whose densities could
  // leave the normal range, see NodeModeDensity). Small fits: the full
  // sliding-window scan is already cheap, and the bound arrays would cost
  // more than they save.
  if (n <= 2048) {
    size_t lo = 0;
    size_t hi = 0;
    double best = 0.0;
    for (double x : samples_) {
      best = std::max(best, WindowedSum(x, &lo, &hi) * norm_);
    }
    return best;
  }
  // Large fits: a full scan is O(n * window) kernel evaluations — for a
  // reservoir-capacity KDE that dominates the entire fit. Instead, bound
  // each sample's density from above by counting neighbors in annuli of
  // width h = bandwidth/8 out to the 8-bandwidth kernel cutoff: a
  // neighbor at distance d in annulus k (k*h < d <= (k+1)*h) contributes
  // at most exp(-(k*h)^2 / (2*bw^2)) of a kernel. Each annulus count is a
  // monotone two-pointer sweep, so all bounds cost O(K * n). Only samples
  // whose bound beats the best exact density seen so far are evaluated
  // exactly; the true argmax can never be pruned (its bound is >= its
  // density, which is >= every other density), so the result equals the
  // full scan's, bit for bit.
  constexpr int kAnnuli = 64;  // kAnnuli * h == the 8-bandwidth cutoff
  const double h = bandwidth_ / 8.0;
  std::vector<double> bound(n, 0.0);
  std::vector<uint32_t> prev_window(n, 0);
  for (int k = 1; k <= kAnnuli; ++k) {
    const double radius = k * h;
    const double edge = (k - 1) * h * inv_bandwidth_;
    const double weight = std::exp(-0.5 * edge * edge);
    size_t lo = 0;
    size_t hi = 0;
    for (size_t i = 0; i < n; ++i) {
      while (lo < n && samples_[lo] < samples_[i] - radius) ++lo;
      if (hi < lo) hi = lo;
      while (hi < n && samples_[hi] <= samples_[i] + radius) ++hi;
      const uint32_t window = static_cast<uint32_t>(hi - lo);
      bound[i] += weight * static_cast<double>(window - prev_window[i]);
      prev_window[i] = window;
    }
  }
  std::vector<uint32_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = static_cast<uint32_t>(i);
  std::sort(order.begin(), order.end(), [&bound](uint32_t a, uint32_t b) {
    return bound[a] > bound[b];
  });
  double best = 0.0;
  for (const uint32_t idx : order) {
    if (bound[idx] * norm_ <= best) break;  // the rest are bounded lower
    best = std::max(best, ExactDensity(samples_[idx]));
  }
  return best;
}

Result<GaussianKde> GaussianKde::Fit(std::vector<double> samples) {
  FIXY_RETURN_IF_ERROR(ValidateSamples(samples));
  std::sort(samples.begin(), samples.end());
  const double bw = SelectBandwidth(samples);
  FIXY_RETURN_IF_ERROR(ValidateBandwidth(bw, samples.size()));
  return GaussianKde(std::move(samples), bw);
}

Result<GaussianKde> GaussianKde::FitWithBandwidth(std::vector<double> samples,
                                                  double bandwidth) {
  FIXY_RETURN_IF_ERROR(ValidateSamples(samples));
  if (!(bandwidth >= kMinBandwidth) || !std::isfinite(bandwidth)) {
    // The lower bound also rejects denormal bandwidths whose reciprocal
    // (or normalization constant) would overflow to infinity.
    return Status::InvalidArgument(StrFormat(
        "KDE bandwidth must be a finite value >= %g", kMinBandwidth));
  }
  FIXY_RETURN_IF_ERROR(ValidateBandwidth(bandwidth, samples.size()));
  return GaussianKde(std::move(samples), bandwidth);
}

const GaussianKde::Table& GaussianKde::table() const {
  const Table* table = lazy_->published.load(std::memory_order_acquire);
  if (table != nullptr) return *table;
  std::call_once(lazy_->once, [this] {
    const obs::ScopedStageTimer timer("stats.kde_warmup");
    lazy_->table = BuildTable();
    lazy_->published.store(&lazy_->table, std::memory_order_release);
  });
  return lazy_->table;
}

GaussianKde::Table GaussianKde::BuildTable() const {
  Table table;
  const double step = bandwidth_ / kTableStepsPerBandwidth;
  const double cutoff = kCutoffBandwidths * bandwidth_;
  table.inv_step = 1.0 / step;
  // No table (over budget, or a grid the coordinates cannot resolve): every
  // query is exact, and the mode comes from the annulus-bound search.
  const auto tableless = [this] {
    Table none;
    none.mode = ExactModeDensity();
    return none;
  };

  // Clusters: split wherever neighbours are more than 16h apart. Each is
  // tabulated over [first - 8h - 2 step, last + 8h + 2 step]; the two-step
  // margin keeps every query outside all clusters more than 8h from every
  // sample, so its exact window is empty and its density is 0.
  const double gap = kClusterGapBandwidths * bandwidth_;
  const double budget = static_cast<double>(
      kTableBaseNodes + kTableNodesPerSample * samples_.size());
  double total_nodes = 0.0;
  size_t begin = 0;
  for (size_t i = 1; i <= samples_.size(); ++i) {
    if (i < samples_.size() && samples_[i] - samples_[i - 1] <= gap) continue;
    const double lo = samples_[begin] - cutoff - 2.0 * step;
    const double span = (samples_[i - 1] - samples_[begin]) + 2.0 * cutoff +
                        4.0 * step;
    const double cells = std::ceil(span * table.inv_step);
    total_nodes += cells + 1.0;
    if (!(total_nodes <= budget)) return tableless();
    Table::Cluster cluster;
    cluster.lo = lo;
    cluster.nodes = static_cast<size_t>(cells) + 1;
    cluster.hi = lo + cells * step;
    // Representability: node positions and query offsets must resolve the
    // grid to 2^-20 of a step, or the interpolation coordinate is noise.
    if (!(EndPointUlp(cluster.lo, cluster.hi) <= std::ldexp(step, -20))) {
      return tableless();
    }
    table.clusters.push_back(cluster);
    begin = i;
  }

  // Nodes: exact sums over each cluster's ascending grid, in logs.
  std::vector<double> xs;
  xs.reserve(static_cast<size_t>(total_nodes));
  for (Table::Cluster& cluster : table.clusters) {
    cluster.first = xs.size();
    for (size_t j = 0; j < cluster.nodes; ++j) {
      xs.push_back(cluster.lo + static_cast<double>(j) * step);
    }
  }
  table.ln_f.resize(xs.size());
  ExactDensityBatch(xs, table.ln_f);
  // The mode from the linear node densities, then the band, then logs.
  table.mode = NodeModeDensity(table);
  table.band = (1.0 - kModeBand) * table.mode;
  for (double& y : table.ln_f) y = std::log(y);  // 0 -> -inf

  // Cells: exact where the stencil leaves the cluster or meets a zero
  // density, and where the build-time check fails. The check interpolates
  // each odd node from the even nodes (an h/16 grid); cubic interpolation
  // error scales with the fourth power of the spacing, so the miss / 16
  // estimates the h/32 grid's error in the two cells that meet there. It
  // flags estimates above tau / 2: the estimate reads one point per pair
  // of cells, and the factor of two is its margin.
  table.exact.assign(xs.size(), 1);
  for (const Table::Cluster& cluster : table.clusters) {
    const double* y = table.ln_f.data() + cluster.first;
    const auto finite = [y](size_t a, size_t b) {
      for (size_t j = a; j <= b; ++j) {
        if (!std::isfinite(y[j])) return false;
      }
      return true;
    };
    for (size_t i = 1; i + 2 < cluster.nodes; ++i) {
      const size_t odd = i % 2 == 1 ? i : i + 1;
      if (odd < 3 || odd + 3 >= cluster.nodes) continue;
      if (!finite(i - 1, i + 2) || !finite(odd - 3, odd + 3)) continue;
      const double coarse =
          (9.0 * (y[odd - 1] + y[odd + 1]) - (y[odd - 3] + y[odd + 3])) / 16.0;
      const double estimate = std::abs(y[odd] - coarse) / 16.0;
      if (!(estimate <= 0.5 * kTableTolerance)) continue;
      table.exact[cluster.first + i] = 0;
    }
  }
  return table;
}

double GaussianKde::NodeModeDensity(const Table& table) const {
  // The proof assumes normal doubles with hundreds of bits of exponent to
  // spare; no fitted KDE comes near this.
  if (!(norm_ >= 0x1p-500)) return ExactModeDensity();
  const double h = bandwidth_;
  const std::vector<double>& y = table.ln_f;  // linear densities still
  const double y_max = *std::max_element(y.begin(), y.end());
  // R: the cubic's remainder at step h/32, from |f''''| <= 3/(sqrt(2 pi) h^5)
  // and max |(t+1) t (t-1) (t-2)| = 9/16 on [0, 1].
  constexpr double kRatio = 1.0 / kTableStepsPerBandwidth;
  const double remainder = (9.0 / 16.0) *
                           (kRatio * kRatio * kRatio * kRatio / 24.0) * 3.0 *
                           kInvSqrt2Pi / h;
  // T: the most the 8h cutoff removes from a node's full sum.
  const double cutoff_mass = std::exp(-32.0) * kInvSqrt2Pi / h;
  // rho: the rounding margin of the window sums and of the cubic.
  const double rho =
      (static_cast<double>(samples_.size()) + 64.0) * 0x1p-48;
  // h * max |f'|, for G: what rounded node positions and sample offsets
  // (a few ulps of the cluster's end points each) can move a density.
  const double slope = kInvSqrt2Pi * std::exp(-0.5) / h;

  std::vector<double> bound(samples_.size());
  size_t k = 0;
  for (const Table::Cluster& cluster : table.clusters) {
    const double position =
        16.0 * (EndPointUlp(cluster.lo, cluster.hi) / h) * slope;
    // Every sample sits at least 8h + 2 steps inside its cluster, so its
    // stencil (Lookup's cubic, on densities instead of logs) is inside too.
    for (; k < samples_.size() && samples_[k] <= cluster.hi; ++k) {
      const double u = (samples_[k] - cluster.lo) * table.inv_step;
      const size_t i = static_cast<size_t>(u);
      const double t = u - static_cast<double>(i);
      const double p = Cubic(y.data() + cluster.first + i - 1, t);
      const double lambda = 1.0 + t * (1.0 - t);
      bound[k] = p + remainder + lambda * (cutoff_mass + rho * y_max) +
                 rho * (std::abs(p) + remainder) + position;
    }
  }

  // The largest bound first, then every sample whose bound beats the best
  // exact density so far. A skipped sample has ExactDensity <= bound <=
  // best, so the result is the full scan's, bit for bit. A repeated value
  // has its predecessor's bound and density.
  const size_t top = static_cast<size_t>(
      std::max_element(bound.begin(), bound.end()) - bound.begin());
  double best = ExactDensity(samples_[top]);
  for (k = 0; k < samples_.size(); ++k) {
    if (k == top || !(bound[k] > best)) continue;
    if (k > 0 && samples_[k] == samples_[k - 1]) continue;
    best = std::max(best, ExactDensity(samples_[k]));
  }
  return best;
}

double GaussianKde::Lookup(const Table& table, double x, bool* exact) const {
  *exact = false;
  if (table.clusters.empty()) {
    *exact = true;
    return ExactDensity(x);
  }
  // The last cluster starting at or below x; outside it, x is more than
  // 8h from every sample.
  const auto next = std::upper_bound(
      table.clusters.begin(), table.clusters.end(), x,
      [](double v, const Table::Cluster& c) { return v < c.lo; });
  if (next == table.clusters.begin()) return 0.0;
  const Table::Cluster& cluster = *(next - 1);
  if (x > cluster.hi) return 0.0;
  const double u = (x - cluster.lo) * table.inv_step;
  const size_t i = std::min(static_cast<size_t>(u), cluster.nodes - 2);
  const size_t cell = cluster.first + i;
  if (table.exact[cell] != 0) {
    *exact = true;
    return ExactDensity(x);
  }
  const double t = u - static_cast<double>(i);
  const double density = std::exp(Cubic(table.ln_f.data() + cell - 1, t));
  if (density > table.band) {
    *exact = true;
    return ExactDensity(x);
  }
  return density;
}

double GaussianKde::Density(double x) const {
  obs::Count("stats.kde_evals");
  bool exact = false;
  const double density =
      std::isfinite(x) ? Lookup(table(), x, &exact) : 0.0;
  if (exact) obs::Count("stats.kde_exact");
  return density;
}

void GaussianKde::DensityBatch(std::span<const double> xs,
                               std::span<double> out) const {
  FIXY_CHECK(xs.size() == out.size());
  obs::Count("stats.kde_evals", xs.size());
  const Table& lookup_table = table();
  uint64_t exact_count = 0;
  for (size_t i = 0; i < xs.size(); ++i) {
    bool exact = false;
    out[i] = std::isfinite(xs[i]) ? Lookup(lookup_table, xs[i], &exact) : 0.0;
    exact_count += exact ? 1 : 0;
  }
  if (exact_count > 0) obs::Count("stats.kde_exact", exact_count);
}

size_t GaussianKde::TableNodeCount() const { return table().ln_f.size(); }

double GaussianKde::ExactDensity(double x) const {
  // Non-finite queries have zero density by convention; letting them into
  // the window search would break the comparator's ordering requirements.
  if (!std::isfinite(x)) return 0.0;
  size_t lo = 0;
  size_t hi = 0;
  return WindowedSum(x, &lo, &hi) * norm_;
}

void GaussianKde::ExactDensityBatch(std::span<const double> xs,
                                    std::span<double> out) const {
  FIXY_CHECK(xs.size() == out.size());
  size_t lo = 0;
  size_t hi = 0;
  double previous = -INFINITY;
  for (size_t i = 0; i < xs.size(); ++i) {
    const double x = xs[i];
    if (!std::isfinite(x)) {
      out[i] = 0.0;
      continue;
    }
    if (x < previous) lo = hi = 0;  // a step back restarts the cursors
    previous = x;
    out[i] = WindowedSum(x, &lo, &hi) * norm_;
  }
}

double GaussianKde::WindowedSum(double x, size_t* lo, size_t* hi) const {
  // Samples are sorted, so kernels further than 8 bandwidths, each below
  // exp(-32) ~ 1.3e-14 of a kernel's peak, are skipped (at densities near
  // the score floor that moves ln p by up to ~1e-6, the bound c of
  // DESIGN.md §11): [*lo, *hi) becomes
  // [first sample >= x - 8h, first sample > x + 8h), each end found by
  // binary search from the cursor handed in (a sorted batch's windows only
  // move right). The dispatched kernel sums that contiguous window.
  const double cutoff = kCutoffBandwidths * bandwidth_;
  const auto begin = samples_.begin();
  *lo = static_cast<size_t>(
      std::lower_bound(begin + *lo, samples_.end(), x - cutoff) - begin);
  *hi = static_cast<size_t>(std::upper_bound(begin + std::max(*lo, *hi),
                                             samples_.end(), x + cutoff) -
                            begin);
  return simd::GaussianWindowSum(samples_.data() + *lo, *hi - *lo, x,
                                 inv_bandwidth_);
}

std::string GaussianKde::ToString() const {
  return StrFormat("KDE(n=%zu, bw=%s)", samples_.size(),
                   DoubleToString(bandwidth_, 4).c_str());
}

}  // namespace fixy::stats
