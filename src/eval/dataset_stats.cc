#include "eval/dataset_stats.h"

#include "common/macros.h"
#include "common/string_util.h"
#include "dsl/track_builder.h"

namespace fixy::eval {

Result<DatasetStats> ComputeDatasetStats(const Dataset& dataset) {
  DatasetStats result;
  result.scenes = dataset.scenes.size();

  std::array<std::vector<double>, kNumObjectClasses> volumes;
  std::array<std::vector<double>, kNumObjectClasses> speeds;

  const TrackBuilder builder;
  for (const Scene& scene : dataset.scenes) {
    FIXY_RETURN_IF_ERROR(scene.Validate());
    result.frames += scene.frame_count();
    result.total_duration_seconds += scene.DurationSeconds();
    for (const Frame& frame : scene.frames()) {
      for (const Observation& obs : frame.observations) {
        ++result.by_source[static_cast<size_t>(obs.source)];
        if (obs.source == ObservationSource::kHuman) {
          volumes[static_cast<size_t>(obs.object_class)].push_back(
              obs.box.Volume());
        }
      }
    }
    // Speed estimates from assembled human tracks.
    FIXY_ASSIGN_OR_RETURN(
        TrackSet tracks,
        builder.Build(FilterToSource(scene, ObservationSource::kHuman)));
    for (const Track& track : tracks.tracks) {
      const auto cls = track.MajorityClass();
      if (!cls.has_value()) continue;
      const auto& bundles = track.bundles();
      for (size_t b = 0; b + 1 < bundles.size(); ++b) {
        const double dt = bundles[b + 1].timestamp - bundles[b].timestamp;
        if (dt <= 0.0) continue;
        const double speed =
            (bundles[b + 1].MeanCenter().Xy() - bundles[b].MeanCenter().Xy())
                .Norm() /
            dt;
        speeds[static_cast<size_t>(*cls)].push_back(speed);
      }
    }
  }

  for (int c = 0; c < kNumObjectClasses; ++c) {
    ClassStats& cs = result.human_by_class[static_cast<size_t>(c)];
    cs.observations = volumes[static_cast<size_t>(c)].size();
    cs.volume = stats::Summarize(std::move(volumes[static_cast<size_t>(c)]));
    cs.speed = stats::Summarize(std::move(speeds[static_cast<size_t>(c)]));
  }
  return result;
}

std::string FormatDatasetStats(const DatasetStats& stats) {
  std::string out = StrFormat(
      "%zu scenes, %zu frames, %.1f s total\nobservations: human=%zu "
      "model=%zu auditor=%zu\n",
      stats.scenes, stats.frames, stats.total_duration_seconds,
      stats.by_source[0], stats.by_source[1], stats.by_source[2]);
  out += "human labels by class (volume m^3, speed m/s):\n";
  for (int c = 0; c < kNumObjectClasses; ++c) {
    const ClassStats& cs = stats.human_by_class[static_cast<size_t>(c)];
    out += StrFormat(
        "  %-11s n=%-6zu volume median %6.2f [%5.2f..%6.2f]  speed median "
        "%5.2f max %5.2f\n",
        ObjectClassToString(static_cast<ObjectClass>(c)), cs.observations,
        cs.volume.median, cs.volume.min, cs.volume.max, cs.speed.median,
        cs.speed.max);
  }
  return out;
}

}  // namespace fixy::eval
