#include "dsl/feature_score_cache.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>

#include "common/logging.h"

namespace fixy {

namespace {

// murmur3's 64-bit finalizer over the value bits and the owner ordinal,
// so neighbouring values spread over the table.
uint64_t MixKey(uint16_t owner, uint64_t bits) {
  uint64_t h = bits ^ (owner * 0x9e3779b97f4a7c15ull);
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 33;
  return h;
}

// `hash` mapped onto [0, capacity) by its high bits (Lemire's reduction),
// so the capacity need not be a power of two.
size_t SlotOf(uint64_t hash, size_t capacity) {
  return static_cast<size_t>(
      (static_cast<unsigned __int128>(hash) * capacity) >> 64);
}

FeatureContext ContextForBundle(const ObservationBundle& bundle,
                                double frame_rate_hz) {
  FeatureContext ctx;
  ctx.ego_position = bundle.ego_position;
  ctx.frame_rate_hz = frame_rate_hz;
  return ctx;
}

}  // namespace

uint16_t DensityMemo::Owner(const stats::Distribution& dist) {
  for (size_t i = 0; i < dists_.size(); ++i) {
    if (dists_[i] == &dist) return static_cast<uint16_t>(i + 1);
  }
  FIXY_CHECK_MSG(dists_.size() < UINT16_MAX,
                 "density memo holds %zu distributions", dists_.size());
  dists_.push_back(&dist);
  return static_cast<uint16_t>(dists_.size());
}

void DensityMemo::Reserve(size_t extra) {
  // Load stays at most 3/4, so a probe sequence always ends at an empty
  // slot.
  size_t needed = size_ + extra;
  if (needed * 4 <= owners_.size() * 3) return;
  if (owners_.empty()) needed = std::max(needed, expected_queries_);
  const size_t capacity = std::max(needed * 4 / 3 + 1, owners_.size() * 2);
  const std::vector<uint16_t> old_owners =
      std::exchange(owners_, std::vector<uint16_t>(capacity, 0));
  const std::vector<Slot> old_slots =
      std::exchange(slots_, std::vector<Slot>(capacity));
  for (size_t i = 0; i < old_owners.size(); ++i) {
    if (old_owners[i] == 0) continue;
    size_t slot = SlotOf(MixKey(old_owners[i], old_slots[i].bits), capacity);
    while (owners_[slot] != 0) {
      if (++slot == capacity) slot = 0;
    }
    owners_[slot] = old_owners[i];
    slots_[slot] = old_slots[i];
  }
}

size_t DensityMemo::FindOrInsert(uint16_t owner, double x, bool* inserted) {
  const uint64_t bits = std::bit_cast<uint64_t>(x);
  const size_t capacity = owners_.size();
  size_t slot = SlotOf(MixKey(owner, bits), capacity);
  while (owners_[slot] != 0) {
    if (owners_[slot] == owner && slots_[slot].bits == bits) {
      *inserted = false;
      return slot;
    }
    if (++slot == capacity) slot = 0;
  }
  owners_[slot] = owner;
  slots_[slot].bits = bits;
  ++size_;
  *inserted = true;
  return slot;
}

double DensityMemo::Density(const stats::Distribution& dist, double x) {
  Reserve(1);
  bool inserted = false;
  Slot& slot = slots_[FindOrInsert(Owner(dist), x, &inserted)];
  if (inserted) slot.density = dist.Density(x);
  return slot.density;
}

void DensityMemo::DensityBatch(const stats::Distribution& dist,
                               std::span<const double> xs,
                               std::span<double> out) {
  Reserve(xs.size());
  const uint16_t owner = Owner(dist);
  // Scratch reused across calls, like the raw-score batches that feed it.
  thread_local std::vector<size_t> positions;
  thread_local std::vector<double> misses;
  thread_local std::vector<size_t> miss_positions;
  thread_local std::vector<double> miss_densities;
  positions.clear();
  misses.clear();
  miss_positions.clear();
  for (const double x : xs) {
    bool inserted = false;
    positions.push_back(FindOrInsert(owner, x, &inserted));
    if (inserted) {
      misses.push_back(x);
      miss_positions.push_back(positions.back());
    }
  }
  miss_densities.resize(misses.size());
  dist.DensityBatch(misses, miss_densities);
  for (size_t m = 0; m < misses.size(); ++m) {
    slots_[miss_positions[m]].density = miss_densities[m];
  }
  for (size_t i = 0; i < xs.size(); ++i) out[i] = slots_[positions[i]].density;
}

void ComputeRawTrackScores(const FeatureDistribution& fd, const Track& track,
                           double frame_rate_hz, RawTrackScores* out,
                           DensityMemo* memo) {
  out->Clear();
  const auto& bundles = track.bundles();
  switch (fd.feature().kind()) {
    case FeatureKind::kObservation:
      fd.RawScoreTrackObservations(track, frame_rate_hz, out, memo);
      break;
    case FeatureKind::kBundle:
      out->values.reserve(bundles.size());
      out->engaged.reserve(bundles.size());
      for (const ObservationBundle& b : bundles) {
        out->Push(
            fd.RawScoreBundle(b, ContextForBundle(b, frame_rate_hz), memo));
      }
      break;
    case FeatureKind::kTransition:
      for (size_t b = 0; b + 1 < bundles.size(); ++b) {
        out->Push(fd.RawScoreTransition(
            bundles[b], bundles[b + 1],
            ContextForBundle(bundles[b], frame_rate_hz), memo));
      }
      break;
    case FeatureKind::kTrack:
      if (!bundles.empty()) {
        out->Push(fd.RawScoreTrack(
            track, ContextForBundle(bundles.front(), frame_rate_hz), memo));
      }
      break;
  }
}

const RawTrackScores& FeatureScoreCache::Get(const FeatureDistribution& fd,
                                             const Track& track,
                                             size_t track_index) {
  const void* first_per_class = nullptr;
  if (!fd.per_class_distributions().empty()) {
    first_per_class = fd.per_class_distributions().begin()->second.get();
  }
  const Key key{&fd.feature(), fd.global_distribution().get(), first_per_class,
                track_index};
  auto it = cache_.find(key);
  if (it == cache_.end()) {
    it = cache_.emplace(key, RawTrackScores{}).first;
    ComputeRawTrackScores(fd, track, frame_rate_hz_, &it->second, memo_);
  }
  return it->second;
}

}  // namespace fixy
