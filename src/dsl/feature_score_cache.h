// FeatureScoreCache: per-scene memoization of raw (pre-AOF) feature
// likelihoods. Multiple applications compile factor graphs over the same
// shared track set (ScenePass); their specs differ only in AOFs and manual
// factors, so the expensive part of compilation — computing feature values
// and evaluating learned KDEs — is identical across applications and is
// computed once here.
#ifndef FIXY_DSL_FEATURE_SCORE_CACHE_H_
#define FIXY_DSL_FEATURE_SCORE_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "data/track.h"
#include "dsl/feature_distribution.h"

namespace fixy {

/// The raw likelihoods of one FeatureDistribution over one track, one
/// entry per element in ForEachFeatureValue's order (which is the
/// factor-graph compilation order). Structure-of-arrays: `values[i]` is
/// the pre-AOF likelihood (ready for FeatureDistribution::ApplyAofAndFloor)
/// when `engaged[i]` is nonzero; engaged[i] == 0 marks "no factor"
/// (feature did not apply / no distribution for the class) and values[i]
/// is 0.
struct RawTrackScores {
  std::vector<double> values;
  std::vector<uint8_t> engaged;

  size_t size() const { return values.size(); }
  bool empty() const { return values.empty(); }

  void Clear() {
    values.clear();
    engaged.clear();
  }

  void PushEngaged(double value) {
    values.push_back(value);
    engaged.push_back(1);
  }

  void PushMissing() {
    values.push_back(0.0);
    engaged.push_back(0);
  }

  void Push(std::optional<double> value) {
    if (value.has_value()) {
      PushEngaged(*value);
    } else {
      PushMissing();
    }
  }

  /// Optional view of one entry (the pre-SoA interface, kept for tests
  /// and non-hot callers).
  std::optional<double> at(size_t i) const {
    if (engaged[i] == 0) return std::nullopt;
    return values[i];
  }
};

/// Computes `fd`'s raw likelihoods over `track` into `*out` (overwritten):
/// FeatureDistribution::RawScore of each value ForEachFeatureValue yields.
void ComputeRawTrackScores(const FeatureDistribution& fd, const Track& track,
                           double frame_rate_hz, RawTrackScores* out);

/// Memoizes ComputeRawTrackScores keyed on the identity of the feature and
/// its distributions plus the caller's track index. WithAof() copies share
/// feature and distribution pointers, so specs that re-target one learned
/// feature with different AOFs hit the same entries.
///
/// Not thread-safe: intended to live inside a per-scene, per-worker
/// ScenePass. Callers must present a stable track set — `track_index` must
/// always denote the same track across calls.
class FeatureScoreCache {
 public:
  explicit FeatureScoreCache(double frame_rate_hz)
      : frame_rate_hz_(frame_rate_hz) {}

  /// The raw scores of `fd` over `track`, computing them on first use.
  const RawTrackScores& Get(const FeatureDistribution& fd, const Track& track,
                            size_t track_index);

 private:
  // Feature ptr + global-distribution ptr + first per-class-distribution
  // ptr identify the learned (feature, distributions) pair; AOFs are
  // deliberately excluded.
  struct Key {
    const void* feature;
    const void* global_dist;
    const void* first_per_class;
    size_t track_index;

    bool operator==(const Key&) const = default;
  };

  struct KeyHash {
    size_t operator()(const Key& key) const {
      // FNV-1a over the key words; pointer identity is all that matters.
      uint64_t h = 1469598103934665603ull;
      const auto mix = [&h](uint64_t word) {
        h ^= word;
        h *= 1099511628211ull;
      };
      mix(reinterpret_cast<uintptr_t>(key.feature));
      mix(reinterpret_cast<uintptr_t>(key.global_dist));
      mix(reinterpret_cast<uintptr_t>(key.first_per_class));
      mix(key.track_index);
      return static_cast<size_t>(h);
    }
  };

  double frame_rate_hz_;
  std::unordered_map<Key, RawTrackScores, KeyHash> cache_;
};

}  // namespace fixy

#endif  // FIXY_DSL_FEATURE_SCORE_CACHE_H_
