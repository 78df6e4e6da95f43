#include "stats/kde.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

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

double SelectBandwidth(const std::vector<double>& sorted, BandwidthRule rule) {
  const double n = static_cast<double>(sorted.size());
  const double sigma = Stddev(sorted);
  double spread = sigma;
  if (rule == BandwidthRule::kSilverman) {
    const double iqr =
        SortedQuantile(sorted, 0.75) - SortedQuantile(sorted, 0.25);
    if (iqr > 0.0) spread = std::min(sigma, iqr / 1.34);
    spread *= 0.9;
  }
  double bw = spread * std::pow(n, -0.2);
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

}  // namespace

GaussianKde::GaussianKde(std::vector<double> samples, double bandwidth)
    : samples_(std::move(samples)), bandwidth_(bandwidth) {
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
  // mode_density_ stays at its "not computed" sentinel: ModeDensity()
  // derives it on first use, so fitting stays cheap for distributions
  // that are folded or serialized but never scored.
}

GaussianKde::GaussianKde(const GaussianKde& other)
    : samples_(other.samples_),
      bandwidth_(other.bandwidth_),
      inv_bandwidth_(other.inv_bandwidth_),
      norm_(other.norm_),
      mode_density_(other.mode_density_.load(std::memory_order_relaxed)) {}

GaussianKde::GaussianKde(GaussianKde&& other) noexcept
    : samples_(std::move(other.samples_)),
      bandwidth_(other.bandwidth_),
      inv_bandwidth_(other.inv_bandwidth_),
      norm_(other.norm_),
      mode_density_(other.mode_density_.load(std::memory_order_relaxed)) {}

GaussianKde& GaussianKde::operator=(const GaussianKde& other) {
  samples_ = other.samples_;
  bandwidth_ = other.bandwidth_;
  inv_bandwidth_ = other.inv_bandwidth_;
  norm_ = other.norm_;
  mode_density_.store(other.mode_density_.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
  return *this;
}

GaussianKde& GaussianKde::operator=(GaussianKde&& other) noexcept {
  samples_ = std::move(other.samples_);
  bandwidth_ = other.bandwidth_;
  inv_bandwidth_ = other.inv_bandwidth_;
  norm_ = other.norm_;
  mode_density_.store(other.mode_density_.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
  return *this;
}

double GaussianKde::ModeDensity() const {
  // For a Gaussian KDE the mode is near one of the sample points; the
  // maximum of the density over the samples gives an accurate
  // normalization constant. It is derived on first use — a fold or a
  // save/load round trip never pays for it — and cached. Racing first
  // callers each compute the same deterministic value, so the relaxed
  // store is benign.
  const double cached = mode_density_.load(std::memory_order_relaxed);
  if (cached >= 0.0) return cached;
  const double computed = ExactModeDensity();
  mode_density_.store(computed, std::memory_order_relaxed);
  return computed;
}

double GaussianKde::ExactModeDensity() const {
  const size_t n = samples_.size();
  // Small fits: the full sliding-window scan is already cheap, and the
  // bound arrays would cost more than they save.
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
    best = std::max(best, DensityUncounted(samples_[idx]));
  }
  return best;
}

Result<GaussianKde> GaussianKde::Fit(std::vector<double> samples,
                                     BandwidthRule rule) {
  FIXY_RETURN_IF_ERROR(ValidateSamples(samples));
  std::sort(samples.begin(), samples.end());
  const double bw = SelectBandwidth(samples, rule);
  FIXY_RETURN_IF_ERROR(ValidateBandwidth(bw, samples.size()));
  return GaussianKde(std::move(samples), bw);
}

Result<GaussianKde> GaussianKde::FitWithBandwidth(std::vector<double> samples,
                                                  double bandwidth) {
  FIXY_RETURN_IF_ERROR(ValidateSamples(samples));
  if (!(bandwidth >= kMinBandwidth) || !std::isfinite(bandwidth)) {
    // The lower bound also rejects denormal bandwidths whose reciprocal
    // (or normalization constant) would overflow to infinity — reachable
    // from a hand-edited model file via model_io, so this must be a
    // Status, not a CHECK.
    return Status::InvalidArgument(StrFormat(
        "KDE bandwidth must be a finite value >= %g", kMinBandwidth));
  }
  FIXY_RETURN_IF_ERROR(ValidateBandwidth(bandwidth, samples.size()));
  return GaussianKde(std::move(samples), bandwidth);
}

double GaussianKde::Density(double x) const {
  obs::Count("stats.kde_evals");
  return DensityUncounted(x);
}

double GaussianKde::DensityUncounted(double x) const {
  // Non-finite queries have zero density by convention; letting them into
  // the window search would break the comparator's ordering requirements.
  if (!std::isfinite(x)) return 0.0;
  size_t lo = 0;
  size_t hi = 0;
  return WindowedSum(x, &lo, &hi) * norm_;
}

void GaussianKde::DensityBatch(std::span<const double> xs,
                               std::span<double> out) const {
  FIXY_CHECK(xs.size() == out.size());
  // One batched count per query — the same total the per-query path would
  // record (non-finite queries count too: Density() counts them).
  obs::Count("stats.kde_evals", xs.size());
  size_t lo = 0;
  size_t hi = 0;
  // is_sorted on a NaN-bearing range would violate strict weak ordering,
  // so the finiteness scan comes first.
  const bool all_finite = std::all_of(
      xs.begin(), xs.end(), [](double x) { return std::isfinite(x); });
  if (all_finite && std::is_sorted(xs.begin(), xs.end())) {
    for (size_t i = 0; i < xs.size(); ++i) {
      out[i] = WindowedSum(xs[i], &lo, &hi) * norm_;
    }
    return;
  }
  // Otherwise evaluate the finite queries in value order through an index
  // permutation so the window still slides monotonically, and give
  // non-finite queries zero density directly (the Density() convention).
  // The permutation scratch is reused across calls: feature scoring hits
  // this path once per (distribution, track), so a fresh allocation per
  // call was measurable heap churn.
  thread_local std::vector<size_t> order;
  order.clear();
  order.reserve(xs.size());
  for (size_t i = 0; i < xs.size(); ++i) {
    if (std::isfinite(xs[i])) {
      order.push_back(i);
    } else {
      out[i] = 0.0;
    }
  }
  std::sort(order.begin(), order.end(),
            [&xs](size_t a, size_t b) { return xs[a] < xs[b]; });
  for (size_t idx : order) {
    out[idx] = WindowedSum(xs[idx], &lo, &hi) * norm_;
  }
}

double GaussianKde::WindowedSum(double x, size_t* lo, size_t* hi) const {
  // Samples are sorted, so kernels further than 8 bandwidths contribute
  // less than 1e-14 of their mass and are skipped: [*lo, *hi) becomes
  // [first sample >= x - 8h, first sample > x + 8h), each end found by
  // binary search from the cursor handed in (a sorted batch's windows only
  // move right). The dispatched kernel sums that contiguous window.
  const double cutoff = 8.0 * bandwidth_;
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
