#include "core/engine.h"

#include <algorithm>
#include <atomic>
#include <future>
#include <map>
#include <memory>
#include <utility>

#include "common/macros.h"
#include "common/thread_pool.h"
#include "core/features_std.h"
#include "core/model_io.h"
#include "core/scene_pass.h"

namespace fixy {

void RecomputeReportSummary(MultiAppReport& report) {
  for (BatchReport& batch : report.reports) {
    batch.scenes_ok = 0;
    batch.scenes_failed = 0;
    batch.scenes_quarantined = 0;
    for (const SceneOutcome& outcome : batch.outcomes) {
      if (outcome.ok()) {
        ++batch.scenes_ok;
      } else {
        ++batch.scenes_failed;
        ++batch.scenes_quarantined;
      }
    }
  }
}

Fixy::Fixy(FixyOptions options)
    : options_(std::move(options)),
      registry_(ApplicationRegistry::Standard()) {
  for (const AppSpec& app : options_.extra_applications) {
    const Status status = registry_.Register(app);
    if (!status.ok() && registry_status_.ok()) registry_status_ = status;
  }
}

std::vector<FeaturePtr> Fixy::FeaturesToLearn() const {
  // Standard learned features (Table 2): class-conditional volume and
  // velocity, plus any user-provided extras, then the track count.
  std::vector<FeaturePtr> features;
  features.push_back(std::make_shared<VolumeFeature>());
  features.push_back(std::make_shared<VelocityFeature>());
  for (const FeaturePtr& extra : options_.extra_features) {
    features.push_back(extra);
  }
  features.push_back(std::make_shared<CountFeature>());
  return features;
}

Status Fixy::Learn(const Dataset& training) {
  const obs::ScopedStageTimer learn_timer("learn.total");
  const DistributionLearner learner(options_.learner);
  LearnedFeatureSet empty;
  for (const FeaturePtr& feature : FeaturesToLearn()) {
    empty.stats.push_back(
        learner.EmptyStats(*feature, options_.learner.estimator));
  }
  // Track counts are discrete, so the count distribution the model-error
  // application uses is a categorical whatever the main estimator.
  empty.stats.back().estimator = EstimatorKind::kCategorical;
  return FoldAndCommit(training, std::move(empty));
}

Status Fixy::LearnIncremental(const Dataset& delta) {
  const obs::ScopedStageTimer learn_timer("learn.total");
  FIXY_RETURN_IF_ERROR(CheckLearned());
  return FoldAndCommit(delta, LearnedFeatureSet{learned_with_count_, stats_});
}

Status Fixy::FoldAndCommit(const Dataset& data, LearnedFeatureSet state) {
  const DistributionLearner learner(options_.learner);
  FIXY_RETURN_IF_ERROR(learner.Fold(data, FeaturesToLearn(), state));
  Commit(std::move(state));
  return Status::Ok();
}

void Fixy::Commit(LearnedFeatureSet model) {
  learned_with_count_ = std::move(model.distributions);
  stats_ = std::move(model.stats);
  // The label-error applications use the manual count *filter* instead
  // of the learned count distribution, which is last.
  learned_base_.assign(learned_with_count_.begin(),
                       learned_with_count_.end() - 1);
  RebuildSpecs();
}

Status Fixy::SaveModel(const std::string& path) const {
  FIXY_RETURN_IF_ERROR(CheckLearned());
  return SaveLearnedModel(learned_with_count_, stats_, path);
}

Status Fixy::LoadModel(const std::string& path) {
  FeatureRegistry registry = FeatureRegistry::Standard();
  for (const FeaturePtr& extra : options_.extra_features) {
    registry.Register(extra);
  }
  FIXY_ASSIGN_OR_RETURN(LoadedModel model,
                        LoadLearnedModelWithStats(path, registry));
  // Put the file's entries in learn order, checking that each learned
  // feature appears exactly once, before anything in the engine changes.
  std::map<std::string, size_t> entry_of;
  for (size_t i = 0; i < model.distributions.size(); ++i) {
    const std::string& name = model.distributions[i].feature().name();
    if (!entry_of.emplace(name, i).second) {
      return Status::InvalidArgument("model file lists feature '" + name +
                                     "' twice");
    }
  }
  LearnedFeatureSet ordered;
  for (const FeaturePtr& feature : FeaturesToLearn()) {
    const auto it = entry_of.find(feature->name());
    if (it == entry_of.end()) {
      return Status::InvalidArgument("model file is missing the learned '" +
                                     feature->name() + "' distribution");
    }
    ordered.distributions.push_back(std::move(model.distributions[it->second]));
    ordered.stats.push_back(std::move(model.stats[it->second]));
    entry_of.erase(it);
  }
  if (!entry_of.empty()) {
    return Status::InvalidArgument("model file has feature '" +
                                   entry_of.begin()->first +
                                   "', which this engine does not learn");
  }
  Commit(std::move(ordered));
  return Status::Ok();
}

void Fixy::RebuildSpecs() {
  const obs::ScopedStageTimer timer("learn.rebuild_specs");
  const LearnedState learned{learned_base_, learned_with_count_};
  specs_.clear();
  specs_.reserve(registry_.apps().size());
  for (const AppSpec& app : registry_.apps()) {
    specs_.push_back(app.build_spec(learned, options_.application));
  }
}

Status Fixy::CheckLearned() const {
  if (!is_learned()) {
    return Status::FailedPrecondition(
        "Fixy::Learn() must succeed before ranking errors");
  }
  return Status::Ok();
}

Result<Fixy::RunPlan> Fixy::PlanRun(
    const std::vector<std::string>& names) const {
  FIXY_RETURN_IF_ERROR(CheckLearned());
  FIXY_RETURN_IF_ERROR(registry_status_);
  RunPlan plan;
  FIXY_ASSIGN_OR_RETURN(plan.app_indices, registry_.Resolve(names));
  for (const size_t idx : plan.app_indices) {
    const SceneView view = registry_.apps()[idx].view;
    plan.need_full = plan.need_full || view == SceneView::kFull;
    plan.need_model = plan.need_model || view == SceneView::kModelOnly;
  }
  return plan;
}

Result<std::vector<ErrorProposal>> Fixy::Find(const Scene& scene,
                                              const std::string& app) const {
  FIXY_ASSIGN_OR_RETURN(RunPlan plan, PlanRun({app}));
  const size_t idx = plan.app_indices.front();
  FIXY_ASSIGN_OR_RETURN(
      ScenePass pass,
      ScenePass::Run(scene, options_.application.track_builder,
                     plan.need_full, plan.need_model));
  return RunApplicationOnPass(registry_.apps()[idx], specs_[idx], scene, pass,
                              options_.application);
}

void Fixy::RankSceneApps(const RunPlan& plan, const Scene& scene,
                         std::vector<BatchReport>& reports,
                         size_t slot) const {
  // One association pass (and one lazily shared feature-score cache per
  // view) serves every application ranking this scene. A pass failure —
  // e.g. a scene that fails validation — fails every application's
  // outcome with the same Status.
  Result<ScenePass> pass =
      ScenePass::Run(scene, options_.application.track_builder,
                     plan.need_full, plan.need_model);
  for (size_t a = 0; a < plan.app_indices.size(); ++a) {
    SceneOutcome& outcome = reports[a].outcomes[slot];
    outcome.scene_name = scene.name();
    if (!pass.ok()) {
      outcome.status = pass.status();
      continue;
    }
    const size_t idx = plan.app_indices[a];
    Result<std::vector<ErrorProposal>> proposals =
        RunApplicationOnPass(registry_.apps()[idx], specs_[idx], scene,
                             pass.value(), options_.application);
    if (proposals.ok()) {
      outcome.proposals = std::move(proposals).value();
    } else {
      outcome.status = proposals.status();
    }
  }
}

MultiAppReport Fixy::EmptyReport(const RunPlan& plan,
                                 size_t scene_count) const {
  MultiAppReport multi;
  multi.apps.reserve(plan.app_indices.size());
  for (const size_t idx : plan.app_indices) {
    multi.apps.push_back(registry_.apps()[idx].name);
  }
  multi.reports.resize(plan.app_indices.size());
  for (BatchReport& report : multi.reports) {
    report.outcomes.resize(scene_count);
  }
  return multi;
}

Result<MultiAppReport> Fixy::RankScene(
    const Scene& scene, const std::vector<std::string>& apps) const {
  FIXY_ASSIGN_OR_RETURN(RunPlan plan, PlanRun(apps));
  MultiAppReport multi = EmptyReport(plan, 1);
  RankSceneApps(plan, scene, multi.reports, 0);
  RecomputeReportSummary(multi);
  return multi;
}

Result<MultiAppReport> Fixy::RankDataset(
    const Dataset& dataset, const std::vector<std::string>& apps,
    const BatchOptions& batch) const {
  return RankDatasetStreaming(DatasetSceneSource(dataset), apps, batch);
}

Result<MultiAppReport> Fixy::RankDatasetStreaming(
    const SceneSource& source, const std::vector<std::string>& apps,
    const BatchOptions& batch) const {
  FIXY_ASSIGN_OR_RETURN(RunPlan plan, PlanRun(apps));
  const size_t scene_count = source.scene_count();
  MultiAppReport multi = EmptyReport(plan, scene_count);

  const bool collect = batch.collect_metrics;
  const obs::StageTimer total_timer;
  // One collector per scene, filled by the worker that decodes and ranks
  // it and merged back in dataset order: every counter total is
  // byte-identical at any thread count. With metrics off a null scope is
  // installed instead, so nothing leaks into an ambient collector either.
  std::vector<obs::PipelineMetrics> scene_metrics(collect ? scene_count : 0);

  // Each worker claims the next scene index, decodes that scene and ranks
  // it, so a worker holds one decoded scene at a time. Outcomes land in
  // pre-assigned dataset-order slots, so claim order, which varies with
  // scheduling, cannot reorder the report. All of a scene's applications
  // run on one worker, in request order, so per-app counters are
  // deterministic too. A decode failure is quarantined like a ranking
  // failure.
  std::atomic<size_t> next_scene{0};
  auto rank_loop = [&] {
    for (size_t i = next_scene++; i < scene_count; i = next_scene++) {
      obs::MetricsCollector collector;
      const obs::MetricsScope scope(collect ? &collector : nullptr);
      const Result<Scene> scene = source.DecodeScene(i);
      // wall_ms and span.scene time the ranking alone, not the decode.
      const obs::StageTimer scene_timer;
      if (scene.ok()) {
        RankSceneApps(plan, scene.value(), multi.reports, i);
      } else {
        for (BatchReport& report : multi.reports) {
          report.outcomes[i].scene_name = source.scene_name(i);
          report.outcomes[i].status = scene.status();
        }
      }
      if (collect) {
        const uint64_t wall_ns = scene_timer.ElapsedNs();
        for (BatchReport& report : multi.reports) {
          report.outcomes[i].wall_ms = static_cast<double>(wall_ns) * 1e-6;
        }
        collector.Count("span.scene.calls");
        collector.AddTimeNs("span.scene", wall_ns);
        scene_metrics[i] = collector.Snapshot();
      }
    }
  };

  // No more workers than scenes; an empty dataset starts no pool at all
  // (ThreadPool(0) would mean hardware concurrency).
  const int threads = static_cast<int>(std::min(
      static_cast<size_t>(ThreadPool::ResolveThreadCount(batch.num_threads)),
      scene_count));
  if (threads > 0) {
    FIXY_ASSIGN_OR_RETURN(const std::unique_ptr<ThreadPool> pool,
                          ThreadPool::Create(threads));
    std::vector<std::future<void>> loops;
    for (int t = 0; t < threads; ++t) loops.push_back(pool->Submit(rank_loop));
    for (std::future<void>& loop : loops) loop.get();
  }

  // Summary pass, and the fail-fast contract: the first failure in dataset
  // order (then request order within a scene) wins, so error reporting is
  // as deterministic as the success path.
  size_t scenes_failed = 0;
  for (size_t i = 0; i < scene_count; ++i) {
    for (const BatchReport& report : multi.reports) {
      const SceneOutcome& outcome = report.outcomes[i];
      if (outcome.ok()) continue;
      if (batch.fail_fast) {
        // Name the scene so callers can tell which one sank the batch.
        return Status(outcome.status.code(),
                      "scene '" + outcome.scene_name +
                          "': " + outcome.status.message());
      }
      ++scenes_failed;
      break;
    }
  }
  RecomputeReportSummary(multi);

  if (collect) {
    obs::PipelineMetrics& metrics = multi.metrics;
    for (const obs::PipelineMetrics& scene : scene_metrics) {
      metrics.MergeFrom(scene);
    }
    // Scene-granularity batch counters: a scene counts as ok only when
    // every application ranked it (equals the per-app counters for a
    // single-application run).
    metrics.counters["batch.scenes"] += scene_count;
    metrics.counters["batch.scenes_ok"] += scene_count - scenes_failed;
    metrics.counters["batch.scenes_failed"] += scenes_failed;
    metrics.counters["batch.scenes_quarantined"] += scenes_failed;
    metrics.timers_ms["batch.total"] = total_timer.ElapsedMs();
    metrics.gauges["batch.threads"] = static_cast<double>(threads);
    double scene_ms_max = 0.0;
    for (const SceneOutcome& outcome : multi.reports.front().outcomes) {
      scene_ms_max = std::max(scene_ms_max, outcome.wall_ms);
    }
    metrics.gauges["batch.scene_ms_max"] = scene_ms_max;
  }
  return multi;
}

}  // namespace fixy
