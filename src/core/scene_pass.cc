#include "core/scene_pass.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>

#include "common/logging.h"
#include "common/macros.h"
#include "core/ranker.h"
#include "graph/factor_graph.h"
#include "obs/metrics.h"

namespace fixy {

namespace {

// Mirrors MakeTrackProposal's class assignment so the pruning buckets line
// up with the classes TopKPerClass will see. -1 flags an out-of-enum class
// (possible with raw imported data); such tracks are never pruned — the
// final TopKPerClass drops their proposals either way.
int ClassIndexForTrack(const Track& track) {
  const int index =
      static_cast<int>(track.MajorityClass().value_or(ObjectClass::kCar));
  if (index < 0 || index >= kNumObjectClasses) return -1;
  return index;
}

// The cheap per-track score upper bound (DESIGN.md §11). Every factor
// score is post-AOF in (0, 1], so each factor contributes ln(score) <= 0:
//
//   - "cheap" feature distributions (no costly density — the manual
//     severity/filter factors) are evaluated exactly through the shared
//     cache: their engaged factors contribute the exact sum S <= 0 over
//     C_cheap factors;
//   - costly distributions (KDEs) are bounded by their best case, a
//     normalized score of 1 (density equal to the cached mode density),
//     i.e. ln <= 0 per factor, with at most C_costly factors — the
//     element count of the feature's kind.
//
// A normalized track score is mean(ln) over engaged factors; with S <= 0
// the mean is maximized when every costly factor exists and scores 1:
//   score <= S / (C_cheap + C_costly).
// Unnormalized, score <= S. A small relative inflation absorbs the
// summation-order difference between this accumulation and the graph's.
// Returns nullopt when the track can have no factors at all (it then
// cannot produce a proposal and is prunable outright).
std::optional<double> TrackScoreUpperBound(const LoaSpec& spec,
                                           const Track& track,
                                           size_t track_index,
                                           double frame_rate_hz,
                                           FeatureScoreCache* cache,
                                           bool normalize) {
  double cheap_sum = 0.0;
  size_t cheap_count = 0;
  size_t costly_count = 0;
  thread_local RawTrackScores local;
  for (const FeatureDistribution& fd : spec.feature_distributions) {
    bool costly = fd.global_distribution() != nullptr &&
                  fd.global_distribution()->CostlyDensity();
    for (const auto& [cls, dist] : fd.per_class_distributions()) {
      (void)cls;
      if (dist != nullptr && dist->CostlyDensity()) costly = true;
    }
    if (costly) {
      switch (fd.feature().kind()) {
        case FeatureKind::kObservation:
          costly_count += track.TotalObservations();
          break;
        case FeatureKind::kBundle:
          costly_count += track.bundles().size();
          break;
        case FeatureKind::kTransition:
          costly_count +=
              track.bundles().empty() ? 0 : track.bundles().size() - 1;
          break;
        case FeatureKind::kTrack:
          costly_count += track.bundles().empty() ? 0 : 1;
          break;
      }
      continue;
    }
    const RawTrackScores* raw = &local;
    if (cache != nullptr) {
      raw = &cache->Get(fd, track, track_index);
    } else {
      ComputeRawTrackScores(fd, track, frame_rate_hz, &local);
    }
    for (size_t i = 0; i < raw->size(); ++i) {
      if (raw->engaged[i] == 0) continue;
      cheap_sum += std::log(fd.ApplyAofAndFloor(raw->values[i]));
      ++cheap_count;
    }
  }
  const size_t max_factors = cheap_count + costly_count;
  if (max_factors == 0) return std::nullopt;
  double bound = normalize
                     ? cheap_sum / static_cast<double>(max_factors)
                     : cheap_sum;
  bound += 1e-9 * (1.0 + std::abs(bound));
  return bound;
}

Result<std::vector<ErrorProposal>> CompileAndExtract(
    const AppSpec& app, const LoaSpec& spec, const Scene& scene,
    ScenePass& pass, const ApplicationOptions& options,
    const std::vector<uint8_t>* track_mask, size_t* factor_count) {
  const TrackSet& tracks = pass.tracks(app.view);
  Result<FactorGraph> graph = Status::Internal("uncompiled");
  {
    const obs::ScopedStageTimer compile_timer("rank." + app.name + ".compile");
    graph = FactorGraph::Compile(tracks, spec, scene.frame_rate_hz(),
                                 pass.cache(app.view), track_mask);
  }
  FIXY_RETURN_IF_ERROR(graph.status());
  *factor_count = graph->factors().size();
  const AppContext ctx{*graph, scene, options};
  return app.extract(ctx);
}

// Per-class k-th best proposal score (descending), or nullopt when the
// class has fewer than k proposals — then nothing of that class may be
// pruned yet.
std::array<std::optional<double>, kNumObjectClasses> PerClassThresholds(
    const std::vector<ErrorProposal>& proposals, size_t k) {
  std::array<std::vector<double>, kNumObjectClasses> scores;
  for (const ErrorProposal& proposal : proposals) {
    const int index = static_cast<int>(proposal.object_class);
    if (index < 0 || index >= kNumObjectClasses) continue;
    scores[index].push_back(proposal.score);
  }
  std::array<std::optional<double>, kNumObjectClasses> thresholds;
  for (int c = 0; c < kNumObjectClasses; ++c) {
    if (scores[c].size() < k) continue;
    std::nth_element(scores[c].begin(), scores[c].begin() + (k - 1),
                     scores[c].end(), std::greater<double>());
    thresholds[c] = scores[c][k - 1];
  }
  return thresholds;
}

// The pruned path of RunApplicationOnPass (options.top_k_per_class > 0 and
// the application opted in). Two rounds, both sound:
//   1. compile only the per-class top-k candidates by upper bound (plus
//      nothing else — non-candidate tracks produce no proposals by the
//      prunable_tracks contract), establishing each class's k-th best
//      exact score;
//   2. re-compile adding every remaining candidate whose bound reaches its
//      class threshold. A candidate skipped in round 2 has
//      ub < theta_c <= final k-th best exact score, so its exact score
//      cannot enter the class's top k.
// The raw-score cache makes round 2 incremental: round-1 tracks' feature
// evaluations are already cached.
Result<std::vector<ErrorProposal>> RunPruned(const AppSpec& app,
                                             const LoaSpec& spec,
                                             const Scene& scene,
                                             ScenePass& pass,
                                             const ApplicationOptions& options) {
  const TrackSet& tracks = pass.tracks(app.view);
  const size_t num_tracks = tracks.tracks.size();
  const size_t k = static_cast<size_t>(options.top_k_per_class);
  const bool normalize =
      app.prune_normalize != nullptr ? app.prune_normalize(options) : true;

  std::vector<uint8_t> mask(num_tracks, 0);
  std::vector<double> bounds(num_tracks,
                             -std::numeric_limits<double>::infinity());
  std::array<std::vector<size_t>, kNumObjectClasses> buckets;
  std::vector<size_t> pending;
  size_t pruned = 0;
  for (size_t t = 0; t < num_tracks; ++t) {
    const Track& track = tracks.tracks[t];
    if (!app.prunable_tracks(track, options)) {
      // Not a candidate: by contract extract emits no proposal for it, so
      // its factors are never read and need not be compiled.
      continue;
    }
    const int cls = ClassIndexForTrack(track);
    if (cls < 0) {
      // Out-of-enum class: never pruned (see ClassIndexForTrack).
      mask[t] = 1;
      continue;
    }
    const std::optional<double> bound = TrackScoreUpperBound(
        spec, track, t, scene.frame_rate_hz(), pass.cache(app.view),
        normalize);
    if (!bound.has_value()) {
      // No factor can exist: the unpruned run would score it nullopt.
      ++pruned;
      continue;
    }
    bounds[t] = *bound;
    buckets[cls].push_back(t);
  }
  for (auto& bucket : buckets) {
    std::sort(bucket.begin(), bucket.end(), [&bounds](size_t a, size_t b) {
      if (bounds[a] != bounds[b]) return bounds[a] > bounds[b];
      return a < b;
    });
    for (size_t i = 0; i < bucket.size(); ++i) {
      if (i < k) {
        mask[bucket[i]] = 1;
      } else {
        pending.push_back(bucket[i]);
      }
    }
  }

  size_t factor_count = 0;
  FIXY_ASSIGN_OR_RETURN(std::vector<ErrorProposal> proposals,
                        CompileAndExtract(app, spec, scene, pass, options,
                                          &mask, &factor_count));

  if (!pending.empty()) {
    const auto thresholds = PerClassThresholds(proposals, k);
    bool grew = false;
    for (size_t t : pending) {
      const int cls = ClassIndexForTrack(tracks.tracks[t]);
      if (thresholds[cls].has_value() && bounds[t] < *thresholds[cls]) {
        ++pruned;
        continue;
      }
      mask[t] = 1;
      grew = true;
    }
    if (grew) {
      FIXY_ASSIGN_OR_RETURN(proposals,
                            CompileAndExtract(app, spec, scene, pass, options,
                                              &mask, &factor_count));
    }
  }

  obs::Count("rank." + app.name + ".factors", factor_count);
  obs::Count("rank." + app.name + ".pruned_tracks", pruned);
  RankProposals(&proposals);
  obs::Count("rank." + app.name + ".proposals", proposals.size());
  return proposals;
}

}  // namespace

ScenePass::ScenePass(AssociationViews views, double frame_rate_hz)
    : views_(std::move(views)) {
  if (views_.full.has_value()) full_cache_.emplace(frame_rate_hz);
  if (views_.model_only.has_value()) model_cache_.emplace(frame_rate_hz);
}

Result<ScenePass> ScenePass::Run(const Scene& scene,
                                 const TrackBuilderOptions& options,
                                 bool need_full, bool need_model_only) {
  const obs::ScopedStageTimer timer("rank.track_build");
  obs::Count("rank.track_builds");
  const TrackBuilder builder(options);
  FIXY_ASSIGN_OR_RETURN(AssociationViews views,
                        builder.BuildViews(scene, need_full, need_model_only));
  return ScenePass(std::move(views), scene.frame_rate_hz());
}

FeatureScoreCache* ScenePass::cache(SceneView view) {
  switch (view) {
    case SceneView::kFull:
      return full_cache_.has_value() ? &*full_cache_ : nullptr;
    case SceneView::kModelOnly:
      return model_cache_.has_value() ? &*model_cache_ : nullptr;
  }
  return nullptr;
}

Result<std::vector<ErrorProposal>> RunApplicationOnPass(
    const AppSpec& app, const LoaSpec& spec, const Scene& scene,
    ScenePass& pass, const ApplicationOptions& options) {
  FIXY_CHECK_MSG(app.extract != nullptr,
                 "application '%s' has no extract strategy",
                 app.name.c_str());
  if (options.top_k_per_class > 0 && app.prunable_tracks != nullptr &&
      !pass.tracks(app.view).tracks.empty()) {
    return RunPruned(app, spec, scene, pass, options);
  }
  size_t factor_count = 0;
  FIXY_ASSIGN_OR_RETURN(std::vector<ErrorProposal> proposals,
                        CompileAndExtract(app, spec, scene, pass, options,
                                          /*track_mask=*/nullptr,
                                          &factor_count));
  obs::Count("rank." + app.name + ".factors", factor_count);
  RankProposals(&proposals);
  obs::Count("rank." + app.name + ".proposals", proposals.size());
  return proposals;
}

}  // namespace fixy
