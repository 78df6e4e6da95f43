// Sufficient statistics for incremental distribution learning.
//
// The offline learner (core/learner.h) fits each feature distribution from
// a stream of scalar values. To make "one new scene arrived" cost one
// scene instead of a full refit, the learner keeps, per feature and class,
// the sufficient statistics of the stream — and re-materializes the
// distribution from them. They are also the whole saved model: a load
// re-fits every distribution from them (core/model_io.h). The three
// primitives here cover the estimator families:
//
//  - MomentStats: n, Σx, Σx² — everything a Gaussian fit needs.
//  - ValueCounts: an exact value→count multiset — the histogram and
//    categorical fits read it directly and are order-insensitive, so a
//    fold of new values yields the byte-identical distribution a full
//    refit would.
//  - ValueReservoir: a bounded uniform sample for KDE, with counter-based
//    randomness so it is resumable from its serialized state.
//
// All three fold one value at a time (Add); DESIGN.md §14 documents the
// fold guarantees.
#ifndef FIXY_STATS_SUFFICIENT_H_
#define FIXY_STATS_SUFFICIENT_H_

#include <cstdint>
#include <map>
#include <vector>

namespace fixy::stats {

/// Default ValueReservoir capacity: large enough that every dataset in the
/// paper's scale fits entirely (reservoir == full sample, KDE fit exact),
/// small enough to bound model size for unbounded streams.
inline constexpr uint64_t kDefaultReservoirCapacity = 65536;

/// Running first and second moments of a value stream.
struct MomentStats {
  uint64_t n = 0;
  double sum = 0.0;
  double sum_sq = 0.0;

  void Add(double x);

  bool operator==(const MomentStats&) const = default;
};

/// An exact multiset of observed values (value → occurrence count).
/// Order-free: streams with the same values in any order produce identical
/// counts, so estimators fit from them are byte-identical however the
/// values arrived. Memory is O(distinct values) — intended for the
/// discrete-ish features (track counts, buckets) the histogram and
/// categorical estimators serve.
struct ValueCounts {
  std::map<double, uint64_t> counts;
  /// The sum of `counts`.
  uint64_t total = 0;

  void Add(double x);

  bool operator==(const ValueCounts&) const = default;
};

/// Bounded uniform sample of an unbounded value stream: Algorithm R with
/// counter-based randomness. Item k (0-based) replaces slot
/// SplitMix64(seed ^ k) % (k + 1) when that index lands inside the
/// reservoir. All randomness derives from (seed, k), so the reservoir is
/// RESUMABLE: one restored from its serialized (items, seen, capacity,
/// seed) and fed the rest of a stream ends byte-identical to a reservoir
/// that saw the whole stream in one run. While seen <= capacity the
/// reservoir holds every value in arrival order, so a KDE fit over it is
/// exactly the full-sample fit.
struct ValueReservoir {
  std::vector<double> items;
  /// Total values ever offered (>= items.size()).
  uint64_t seen = 0;
  uint64_t capacity = kDefaultReservoirCapacity;
  uint64_t seed = 0;

  void Add(double x);

  bool operator==(const ValueReservoir&) const = default;
};

}  // namespace fixy::stats

#endif  // FIXY_STATS_SUFFICIENT_H_
