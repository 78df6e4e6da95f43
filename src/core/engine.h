// Fixy: the system facade. Offline, Learn() fits feature distributions
// from existing labels (the organizational resource); online, Find() and
// the ranking calls rank potential errors in new scenes (Section 3's
// workflow).
//
// Quickstart:
//
//   Fixy fixy;
//   FIXY_RETURN_IF_ERROR(fixy.Learn(training_dataset));
//   FIXY_ASSIGN_OR_RETURN(auto errors, fixy.Find(scene, "missing-tracks"));
//   for (const ErrorProposal& e : TopK(errors, 10)) { ... audit ... }
//
// Applications are named only by their registry name: the engine ranks
// everything in its ApplicationRegistry (the three paper applications,
// "missing-tracks", "missing-obs" and "model-errors", plus any AppSpecs
// registered through FixyOptions::extra_applications), and RankDataset
// ranks several applications from one pass over the dataset — one decode
// and one association per scene.
#ifndef FIXY_CORE_ENGINE_H_
#define FIXY_CORE_ENGINE_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "core/app_registry.h"
#include "core/applications.h"
#include "core/learner.h"
#include "core/proposal.h"
#include "data/scene.h"
#include "data/scene_source.h"
#include "obs/metrics.h"

namespace fixy {

/// Configuration of the full pipeline.
struct FixyOptions {
  LearnerOptions learner;
  ApplicationOptions application;

  /// Additional user-defined features to learn distributions for, beyond
  /// the standard volume and velocity (see examples/custom_features.cpp).
  std::vector<FeaturePtr> extra_features;

  /// Additional user-defined applications, registered alongside the three
  /// paper applications. A registered application ranks end-to-end —
  /// engine, batch and streaming APIs, CLI `--apps`, and per-app metrics —
  /// without modifying src/core. Registration errors (duplicate or invalid
  /// names, missing strategies) surface from the first ranking call.
  std::vector<AppSpec> extra_applications;
};

/// Configuration of dataset-scale batch ranking.
struct BatchOptions {
  /// Rank worker threads to fan scenes out across, capped at the scene
  /// count (an empty dataset starts none). 0 (the default) uses hardware
  /// concurrency; a pool above kMaxThreads (common/thread_pool.h) aborts
  /// before starting a thread. Scenes always rank on pool threads, never
  /// on the calling thread; the output is identical at every count.
  int num_threads = 0;

  /// When true, RankDataset fails with the first failing scene's Status
  /// (in dataset order, regardless of thread count; within a scene, in
  /// requested-application order). When false (the default), failing
  /// scenes are quarantined: their outcome carries the error, every other
  /// scene ranks normally, and the call succeeds.
  bool fail_fast = false;

  /// When true, the batch records a PipelineMetrics snapshot: per-scene
  /// trace spans, stage timers (track build, per-application factor-graph
  /// compile), and counters (per-application proposals, KDE evaluations,
  /// quarantines). Counter values are deterministic — byte identical at
  /// every thread count — because each scene records into its own
  /// collector and the snapshots merge in dataset order. When false (the
  /// default) the batch records nothing, at any thread count.
  bool collect_metrics = false;
};

/// Outcome of ranking one scene within a batch.
struct SceneOutcome {
  std::string scene_name;
  /// Ok when the scene ranked; otherwise why it was quarantined.
  Status status;
  /// Ranked most-suspicious-first; empty when the scene failed.
  std::vector<ErrorProposal> proposals;
  /// Wall time spent ranking this scene, excluding its decode. In a
  /// multi-application run the scene is ranked once for all applications
  /// (shared association), so every application's outcome carries the
  /// same shared wall time. Only populated when
  /// BatchOptions::collect_metrics is on.
  double wall_ms = 0.0;

  bool ok() const { return status.ok(); }
};

/// Per-scene outcomes of a RankDataset call, in dataset order (element i
/// corresponds to dataset.scenes[i]). A failing scene never perturbs the
/// other scenes' proposals: each scene is scored independently against the
/// shared immutable spec, so outcome i is byte-identical to what an
/// all-clean batch would produce for that scene.
struct BatchReport {
  std::vector<SceneOutcome> outcomes;

  /// Summary counters (kept consistent with `outcomes` by RankDataset).
  size_t scenes_ok = 0;
  size_t scenes_failed = 0;
  /// Failing scenes that were quarantined instead of poisoning the batch;
  /// equal to scenes_failed when fail_fast is off, 0 when it is on (a
  /// failure then fails the whole call instead).
  size_t scenes_quarantined = 0;

  bool all_ok() const { return scenes_failed == 0; }
};

/// The result of ranking several applications from one pass over a
/// dataset: one BatchReport per requested application (in request order),
/// each byte-identical to what a solo run of that application would have
/// produced — same proposals, same outcome order, at any thread count.
struct MultiAppReport {
  /// Resolved application names, parallel to `reports`.
  std::vector<std::string> apps;
  std::vector<BatchReport> reports;

  /// The whole run's stage timers, counters and gauges: shared ones
  /// (rank.track_build, rank.track_builds, batch.*) plus each
  /// application's rank.<name>.* keys. Empty unless
  /// BatchOptions::collect_metrics was set. Counter values are identical
  /// at every thread count; timer values measure this particular run. The
  /// pass is shared, so there is no per-application snapshot.
  obs::PipelineMetrics metrics;

  bool all_ok() const {
    for (const BatchReport& report : reports) {
      if (!report.all_ok()) return false;
    }
    return true;
  }
};

/// Recomputes every per-app report's scenes_ok / scenes_failed /
/// scenes_quarantined from its outcomes (failed == quarantined, the
/// keep-going convention).
void RecomputeReportSummary(MultiAppReport& report);

/// The Fixy engine.
class Fixy {
 public:
  explicit Fixy(FixyOptions options = {});

  /// Offline phase: learns the volume and velocity distributions (plus any
  /// extra features) from `training`'s human labels, and the track-count
  /// distribution used by the model-error application. This is one fold
  /// of `training` into empty statistics, so each training scene is
  /// associated once for all features; the engine keeps the statistics so
  /// LearnIncremental can fold new scenes in later.
  Status Learn(const Dataset& training);

  /// Folds the scenes of `delta` into the retained sufficient statistics
  /// and re-fits the distributions whose statistics changed — the
  /// amortized cost is proportional to `delta`, not to everything learned
  /// so far. For
  /// the exact estimators (gaussian moments, histogram/categorical
  /// counts) the result is identical to a full refit over the extended
  /// dataset; for KDE it is identical while the per-class sample streams
  /// fit in the reservoir (LearnerOptions::kde_reservoir_capacity) and
  /// divergence is bounded past it (DESIGN.md §14). On error the learned
  /// state is unchanged. Errors: FailedPrecondition before Learn() or
  /// LoadModel(); otherwise the learner's errors.
  Status LearnIncremental(const Dataset& delta);

  bool is_learned() const { return !learned_with_count_.empty(); }

  /// Online phase (each requires Learn() first; FailedPrecondition
  /// otherwise). Outputs are ranked most-suspicious-first.
  ///
  /// Ranks one registered application (by name, e.g. "missing-tracks")
  /// over one scene. InvalidArgument for an unknown name — the message
  /// lists the registered names.
  Result<std::vector<ErrorProposal>> Find(const Scene& scene,
                                          const std::string& app) const;

  /// Ranks every requested application over ONE scene from a single
  /// association pass (the same shared ScenePass the batch path uses), on
  /// the calling thread. The returned per-app reports each hold exactly
  /// one outcome and are byte-identical to a one-scene RankDataset — this
  /// is the daemon's single-scene request path, where the pool fans out
  /// across requests rather than within one. Same failure semantics as
  /// the quarantining batch default: a failing scene yields an ok report
  /// whose outcomes carry the error. Errors: InvalidArgument for an empty
  /// request or unknown/duplicated application name; FailedPrecondition
  /// before Learn().
  Result<MultiAppReport> RankScene(const Scene& scene,
                                   const std::vector<std::string>& apps) const;

  /// Dataset-scale multi-application batch ranking: runs every requested
  /// application over every scene of `dataset` from ONE pass — scenes fan
  /// out across the rank workers, and each worker runs association once
  /// per scene (ScenePass) and then compiles/scores each application
  /// against the shared track views and feature-score cache. Per-app
  /// reports are byte-identical to solo runs of each application, at every
  /// thread count (scenes are scored independently against shared
  /// immutable specs; nothing in the online phase draws randomness). This
  /// is RankDatasetStreaming over a DatasetSceneSource.
  ///
  /// Failure semantics: by default a failing (scene, application) pair is
  /// quarantined — its outcome carries the error Status, all other
  /// outcomes are unaffected, and the call returns an ok MultiAppReport.
  /// With BatchOptions::fail_fast the call instead returns the first
  /// failing scene's Status, in dataset order (then request order within
  /// the scene). An empty dataset yields an ok report with empty
  /// per-app outcomes. Errors: InvalidArgument for an empty request, an
  /// unknown or duplicated application name.
  Result<MultiAppReport> RankDataset(const Dataset& dataset,
                                     const std::vector<std::string>& apps,
                                     const BatchOptions& batch = {}) const;

  /// RankDataset over scenes decoded on demand from `source`: each rank
  /// worker claims the next scene index, decodes that scene and ranks it,
  /// so at most BatchOptions::num_threads decoded scenes are alive at once
  /// — each scene still decoded once and associated once for all
  /// applications. Outcomes land in pre-assigned dataset-order slots, so
  /// the report (outcomes, proposals, and every metrics counter) is
  /// byte-identical at any thread count. A scene whose *decode* fails is
  /// quarantined for every application exactly like a scene whose ranking
  /// fails (or, with fail_fast, fails the call with the first dataset-order
  /// error).
  Result<MultiAppReport> RankDatasetStreaming(
      const SceneSource& source, const std::vector<std::string>& apps,
      const BatchOptions& batch = {}) const;

  /// The application registry this engine ranks against: the three paper
  /// applications plus FixyOptions::extra_applications.
  const ApplicationRegistry& applications() const { return registry_; }

  /// The learned feature distributions (volume, velocity, extras) — for
  /// inspection, tests, and the Figure 2 bench.
  const std::vector<FeatureDistribution>& learned_features() const {
    return learned_base_;
  }

  /// Persists the learned model (every feature's sufficient statistics)
  /// to `path` so the online phase can run in a different process.
  /// Requires Learn().
  Status SaveModel(const std::string& path) const;

  /// Restores a model saved with SaveModel, resolving feature names
  /// through the standard registry plus this engine's extra_features,
  /// and re-fits every distribution from the file's statistics (one fold
  /// of no scenes, so the loaded model is the saved one, bit for bit).
  /// The file must hold exactly the features this engine learns, each
  /// once, in any order; they are stored in learn order (volume,
  /// velocity, extras, count), so a reload re-saves the canonical file
  /// and folds pair each feature with its own statistics. Replaces any
  /// previously learned state, but only on success: on error the engine
  /// is unchanged. Errors: the file's I/O and parse errors; NotFound for
  /// an unregistered feature name; InvalidArgument for a missing,
  /// duplicated or unlearned feature, an entry without statistics (a
  /// file saved before incremental learning) or malformed ones, and the
  /// fit's errors.
  Status LoadModel(const std::string& path);

  const FixyOptions& options() const { return options_; }

 private:
  /// The applications and association views one ranking call runs.
  struct RunPlan {
    /// Indices into registry_.apps() / specs_, in request order.
    std::vector<size_t> app_indices;
    bool need_full = false;
    bool need_model = false;
  };

  Status CheckLearned() const;

  /// Every learned feature, in learn order: volume, velocity, extras and
  /// the track count last. learned_with_count_ and stats_ are parallel
  /// to it.
  std::vector<FeaturePtr> FeaturesToLearn() const;

  /// Folds `data` into `state` over FeaturesToLearn() and, on success,
  /// commits the result: the shared tail of Learn and LearnIncremental.
  Status FoldAndCommit(const Dataset& data, LearnedFeatureSet state);

  /// Makes `model` (in learn order; stats parallel) the learned state and
  /// rebuilds the specs.
  void Commit(LearnedFeatureSet model);

  /// Learned-state + registry checks and name resolution shared by every
  /// ranking entry point.
  Result<RunPlan> PlanRun(const std::vector<std::string>& names) const;

  /// Rebuilds the cached per-application specs from the learned state.
  /// Called once after Learn()/LoadModel(); the ranking hot path then
  /// reuses the immutable specs instead of re-wrapping every
  /// FeatureDistribution (and re-allocating its shared_ptr features) per
  /// call.
  void RebuildSpecs();

  /// A report with one BatchReport per planned application (request
  /// order), each holding `scene_count` empty outcomes.
  MultiAppReport EmptyReport(const RunPlan& plan, size_t scene_count) const;

  /// Runs one ScenePass over `scene` and every planned application against
  /// it, writing outcome `slot` of each report (reports are parallel to
  /// plan.app_indices). A pass failure fails every application's outcome.
  void RankSceneApps(const RunPlan& plan, const Scene& scene,
                     std::vector<BatchReport>& reports, size_t slot) const;

  FixyOptions options_;
  /// The paper applications + options_.extra_applications.
  ApplicationRegistry registry_;
  /// First error from registering extra_applications (surfaced by the
  /// first ranking call; construction itself cannot fail).
  Status registry_status_;
  /// Volume + velocity + extras, for the label-error applications.
  std::vector<FeatureDistribution> learned_base_;
  /// learned_base_ + learned track-count, for the model-error application
  /// (Section 8.4 adds "a track feature over the total number of
  /// observations").
  std::vector<FeatureDistribution> learned_with_count_;
  /// Sufficient statistics parallel to learned_with_count_.
  std::vector<FeatureStats> stats_;
  /// Cached specs, parallel to registry_.apps(), built by RebuildSpecs().
  /// Immutable between Learn()/LoadModel() calls and safe to share across
  /// the batch path's worker threads.
  std::vector<LoaSpec> specs_;
};

}  // namespace fixy

#endif  // FIXY_CORE_ENGINE_H_
