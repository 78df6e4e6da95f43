#include "data/track.h"

#include <algorithm>
#include <array>

#include "common/string_util.h"

namespace fixy {

namespace {

using ClassCounts = std::array<size_t, kNumObjectClasses>;

void CountClasses(const ObservationBundle& bundle, ClassCounts& counts) {
  for (const Observation& obs : bundle.observations) {
    ++counts[static_cast<size_t>(obs.object_class)];
  }
}

// The most counted class, ties to the lower enum value; nullopt when
// nothing was counted.
std::optional<ObjectClass> MostCounted(const ClassCounts& counts) {
  const auto best = std::max_element(counts.begin(), counts.end());
  if (*best == 0) return std::nullopt;
  return static_cast<ObjectClass>(best - counts.begin());
}

}  // namespace

bool ObservationBundle::HasSource(ObservationSource source) const {
  return FindBySource(source) != nullptr;
}

const Observation* ObservationBundle::FindBySource(
    ObservationSource source) const {
  for (const Observation& obs : observations) {
    if (obs.source == source) return &obs;
  }
  return nullptr;
}

geom::Vec3 ObservationBundle::MeanCenter() const {
  geom::Vec3 sum;
  if (observations.empty()) return sum;
  for (const Observation& obs : observations) {
    sum = sum + obs.box.center;
  }
  return sum / static_cast<double>(observations.size());
}

std::optional<ObjectClass> ObservationBundle::MajorityClass() const {
  ClassCounts counts{};
  CountClasses(*this, counts);
  return MostCounted(counts);
}

size_t Track::TotalObservations() const {
  size_t total = 0;
  for (const ObservationBundle& b : bundles_) total += b.observations.size();
  return total;
}

bool Track::HasSource(ObservationSource source) const {
  for (const ObservationBundle& b : bundles_) {
    if (b.HasSource(source)) return true;
  }
  return false;
}

std::optional<ObjectClass> Track::MajorityClass() const {
  ClassCounts counts{};
  for (const ObservationBundle& b : bundles_) CountClasses(b, counts);
  return MostCounted(counts);
}

int Track::FirstFrame() const {
  return bundles_.empty() ? 0 : bundles_.front().frame_index;
}

int Track::LastFrame() const {
  return bundles_.empty() ? 0 : bundles_.back().frame_index;
}

double Track::DurationSeconds() const {
  if (bundles_.size() < 2) return 0.0;
  return bundles_.back().timestamp - bundles_.front().timestamp;
}

std::optional<double> Track::MeanModelConfidence() const {
  double sum = 0.0;
  size_t count = 0;
  for (const ObservationBundle& b : bundles_) {
    for (const Observation& obs : b.observations) {
      if (obs.source == ObservationSource::kModel) {
        sum += obs.confidence;
        ++count;
      }
    }
  }
  if (count == 0) return std::nullopt;
  return sum / static_cast<double>(count);
}

std::string Track::ToString() const {
  const auto cls = MajorityClass();
  return StrFormat("track %llu [%d..%d] %zu bundles %zu obs class=%s",
                   static_cast<unsigned long long>(id_), FirstFrame(),
                   LastFrame(), bundles_.size(), TotalObservations(),
                   cls.has_value() ? ObjectClassToString(*cls) : "none");
}

}  // namespace fixy
