#include "core/engine.h"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <future>
#include <iterator>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>

#include "common/macros.h"
#include "common/thread_pool.h"
#include "core/features_std.h"
#include "core/model_io.h"
#include "core/scene_pass.h"

namespace fixy {

const char* ApplicationName(Application app) {
  switch (app) {
    case Application::kMissingTracks:
      return "missing-tracks";
    case Application::kMissingObservations:
      return "missing-obs";
    case Application::kModelErrors:
      return "model-errors";
  }
  return "unknown";
}

Status AppendShardReport(MultiAppReport& into, MultiAppReport&& part) {
  if (into.apps.empty() && into.reports.empty()) {
    into.apps = std::move(part.apps);
    into.reports.resize(into.apps.size());
  } else if (into.apps != part.apps) {
    return Status::InvalidArgument(
        "cannot merge shard reports ranked with different applications");
  }
  if (part.reports.size() != into.reports.size()) {
    return Status::InvalidArgument(
        "shard report has a different per-app report count");
  }
  for (size_t a = 0; a < into.reports.size(); ++a) {
    std::vector<SceneOutcome>& dst = into.reports[a].outcomes;
    std::vector<SceneOutcome>& src = part.reports[a].outcomes;
    dst.insert(dst.end(), std::make_move_iterator(src.begin()),
               std::make_move_iterator(src.end()));
  }
  return Status::Ok();
}

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

std::vector<FeaturePtr> Fixy::BaseFeatures() const {
  // Standard learned features (Table 2): class-conditional volume and
  // velocity, plus any user-provided extras.
  std::vector<FeaturePtr> features;
  features.push_back(std::make_shared<VolumeFeature>());
  features.push_back(std::make_shared<VelocityFeature>());
  for (const FeaturePtr& extra : options_.extra_features) {
    features.push_back(extra);
  }
  return features;
}

Status Fixy::Learn(const Dataset& training) {
  const obs::ScopedStageTimer learn_timer("learn.total");
  const std::vector<FeaturePtr> features = BaseFeatures();
  const DistributionLearner learner(options_.learner);
  FIXY_ASSIGN_OR_RETURN(LearnedFeatureSet base_set,
                        learner.LearnWithStats(training, features));

  // Track-count distribution for the model-error application: counts are
  // discrete, so fit a categorical regardless of the main estimator.
  LearnerOptions count_options = options_.learner;
  count_options.estimator = EstimatorKind::kCategorical;
  const DistributionLearner count_learner(count_options);
  FIXY_ASSIGN_OR_RETURN(
      LearnedFeatureSet count_set,
      count_learner.LearnWithStats(training,
                                   {std::make_shared<CountFeature>()}));

  learned_base_ = std::move(base_set.distributions);
  stats_base_ = std::move(base_set.stats);
  stats_count_ = std::move(count_set.stats);
  learned_with_count_ = learned_base_;
  learned_with_count_.push_back(std::move(count_set.distributions.front()));
  has_stats_ = true;
  learned_flag_ = true;
  RebuildSpecs();
  return Status::Ok();
}

Status Fixy::LearnIncremental(const Dataset& delta) {
  const obs::ScopedStageTimer learn_timer("learn.total");
  FIXY_RETURN_IF_ERROR(CheckLearned());
  if (!has_stats_) {
    return Status::FailedPrecondition(
        "model carries no sufficient statistics to fold into (saved before "
        "incremental learning?) — run a full Learn() instead");
  }
  const std::vector<FeaturePtr> features = BaseFeatures();
  const DistributionLearner learner(options_.learner);
  LearnedFeatureSet base_state{learned_base_, stats_base_};
  FIXY_RETURN_IF_ERROR(learner.Fold(delta, features, base_state));

  LearnerOptions count_options = options_.learner;
  count_options.estimator = EstimatorKind::kCategorical;
  const DistributionLearner count_learner(count_options);
  LearnedFeatureSet count_state{{learned_with_count_.back()}, stats_count_};
  FIXY_RETURN_IF_ERROR(count_learner.Fold(
      delta, {std::make_shared<CountFeature>()}, count_state));

  // Both folds succeeded — commit.
  learned_base_ = std::move(base_state.distributions);
  stats_base_ = std::move(base_state.stats);
  stats_count_ = std::move(count_state.stats);
  learned_with_count_ = learned_base_;
  learned_with_count_.push_back(std::move(count_state.distributions.front()));
  RebuildSpecs();
  return Status::Ok();
}

Status Fixy::SaveModel(const std::string& path) const {
  FIXY_RETURN_IF_ERROR(CheckLearned());
  // learned_with_count_ = learned_base_ + the track-count distribution, so
  // serializing it captures the full learned state; the parallel stats
  // (when held) make the saved model foldable after a reload.
  std::vector<FeatureStats> stats;
  if (has_stats_) {
    stats = stats_base_;
    stats.insert(stats.end(), stats_count_.begin(), stats_count_.end());
  }
  return SaveLearnedModel(learned_with_count_, stats, path);
}

Status Fixy::LoadModel(const std::string& path) {
  FeatureRegistry registry = FeatureRegistry::Standard();
  for (const FeaturePtr& extra : options_.extra_features) {
    registry.Register(extra);
  }
  FIXY_ASSIGN_OR_RETURN(LoadedModel model,
                        LoadLearnedModelWithStats(path, registry));
  // Split the count distribution back out: the label-error applications
  // use the manual count *filter* instead of the learned distribution.
  // The stats (when present) are parallel to the distributions and split
  // the same way. learned_with_count_ is rebuilt count-last so the
  // learned state (and a subsequent SaveModel) is canonical whatever
  // order the file listed the features in.
  learned_base_.clear();
  stats_base_.clear();
  stats_count_.clear();
  const bool with_stats = model.has_stats();
  std::optional<FeatureDistribution> count_fd;
  for (size_t i = 0; i < model.distributions.size(); ++i) {
    FeatureDistribution& fd = model.distributions[i];
    if (fd.feature().kind() == FeatureKind::kTrack &&
        fd.feature().name() == "count") {
      count_fd = std::move(fd);
      if (with_stats) stats_count_.push_back(std::move(model.stats[i]));
    } else {
      learned_base_.push_back(std::move(fd));
      if (with_stats) stats_base_.push_back(std::move(model.stats[i]));
    }
  }
  if (!count_fd.has_value()) {
    learned_base_.clear();
    learned_with_count_.clear();
    stats_base_.clear();
    stats_count_.clear();
    has_stats_ = false;
    return Status::InvalidArgument(
        "model file is missing the learned 'count' distribution");
  }
  learned_with_count_ = learned_base_;
  learned_with_count_.push_back(std::move(*count_fd));
  has_stats_ = with_stats;
  learned_flag_ = true;
  RebuildSpecs();
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
  if (!learned_flag_) {
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

Result<std::vector<ErrorProposal>> Fixy::FindMissingTracks(
    const Scene& scene) const {
  return Find(scene, ApplicationName(Application::kMissingTracks));
}

Result<std::vector<ErrorProposal>> Fixy::FindMissingObservations(
    const Scene& scene) const {
  return Find(scene, ApplicationName(Application::kMissingObservations));
}

Result<std::vector<ErrorProposal>> Fixy::FindModelErrors(
    const Scene& scene) const {
  return Find(scene, ApplicationName(Application::kModelErrors));
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

Result<BatchReport> Fixy::RankDataset(const Dataset& dataset, Application app,
                                      const BatchOptions& batch) const {
  FIXY_ASSIGN_OR_RETURN(MultiAppReport multi,
                        RankDataset(dataset, {ApplicationName(app)}, batch));
  BatchReport report = std::move(multi.reports.front());
  report.metrics = std::move(multi.metrics);
  return report;
}

Result<MultiAppReport> Fixy::RankDatasetStreaming(
    const SceneSource& source, const std::vector<std::string>& apps,
    const BatchOptions& batch, const StreamOptions& stream) const {
  FIXY_ASSIGN_OR_RETURN(RunPlan plan, PlanRun(apps));
  const size_t scene_count = source.scene_count();
  MultiAppReport multi = EmptyReport(plan, scene_count);

  const bool collect = batch.collect_metrics;
  const obs::StageTimer total_timer;
  // Two collectors per scene, one filled by the loader that decodes it and
  // one by the worker that ranks it, merged back in dataset order: every
  // counter total is byte-identical at any decode/rank thread combination.
  // With metrics off a null scope is installed instead, so nothing leaks
  // into an ambient collector either.
  std::vector<obs::PipelineMetrics> decode_metrics(collect ? scene_count : 0);
  std::vector<obs::PipelineMetrics> rank_metrics(collect ? scene_count : 0);

  const int rank_threads = ThreadPool::ResolveThreadCount(batch.num_threads);
  const int decode_threads = std::max(1, stream.decode_threads);
  const size_t max_resident = stream.max_resident_scenes != 0
                                  ? stream.max_resident_scenes
                                  : static_cast<size_t>(rank_threads) * 2;

  // The decode -> rank hand-off, all under one mutex. Loaders claim scene
  // indices in dataset order; `resident` counts scenes a loader has
  // started decoding that no rank worker has claimed yet, and a loader
  // starts a scene only while resident < max_resident, so the ceiling is
  // exact. Rank workers claim decoded scenes in arrival order and exit
  // once every scene is claimed. A decode failure travels as the scene's
  // Result and is quarantined like a ranking failure.
  struct Decoded {
    size_t index;
    Result<Scene> scene;
  };
  std::mutex mu;
  std::condition_variable cv;  // any change to the state below
  std::deque<Decoded> decoded;
  size_t next_decode = 0;
  size_t claimed = 0;
  size_t resident = 0;
  size_t resident_peak = 0;

  auto decode_loop = [&] {
    for (;;) {
      size_t i;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] {
          return next_decode == scene_count || resident < max_resident;
        });
        if (next_decode == scene_count) return;
        i = next_decode++;
        resident_peak = std::max(resident_peak, ++resident);
      }
      obs::MetricsCollector collector;
      const obs::MetricsScope scope(collect ? &collector : nullptr);
      Result<Scene> scene = source.DecodeScene(i);
      if (collect) decode_metrics[i] = collector.Snapshot();
      {
        const std::lock_guard<std::mutex> lock(mu);
        decoded.push_back(Decoded{i, std::move(scene)});
      }
      cv.notify_all();
    }
  };

  // Outcomes land in pre-assigned dataset-order slots, so arrival order,
  // which varies with scheduling, cannot reorder the report. All of a
  // scene's applications run on one worker, in request order, so per-app
  // counters are deterministic too.
  auto rank_loop = [&] {
    for (;;) {
      const obs::StageTimer wait_timer;
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return !decoded.empty() || claimed == scene_count; });
      if (decoded.empty()) return;  // every scene is claimed
      const Decoded item = std::move(decoded.front());
      decoded.pop_front();
      ++claimed;
      --resident;
      lock.unlock();
      cv.notify_all();
      const uint64_t wait_ns = wait_timer.ElapsedNs();

      const size_t i = item.index;
      obs::MetricsCollector collector;
      const obs::MetricsScope scope(collect ? &collector : nullptr);
      const obs::StageTimer scene_timer;
      if (item.scene.ok()) {
        RankSceneApps(plan, item.scene.value(), multi.reports, i);
      } else {
        for (BatchReport& report : multi.reports) {
          report.outcomes[i].scene_name = source.scene_name(i);
          report.outcomes[i].status = item.scene.status();
        }
      }
      if (collect) {
        const uint64_t wall_ns = scene_timer.ElapsedNs();
        for (BatchReport& report : multi.reports) {
          report.outcomes[i].wall_ms = static_cast<double>(wall_ns) * 1e-6;
        }
        collector.Count("span.scene.calls");
        collector.AddTimeNs("span.scene", wall_ns);
        collector.AddTimeNs("io.fxb.queue_wait", wait_ns);
        rank_metrics[i] = collector.Snapshot();
      }
    }
  };

  {
    // Separate pools: a slow decode never occupies a rank thread.
    ThreadPool rank_pool(rank_threads);
    ThreadPool decode_pool(decode_threads);
    std::vector<std::future<void>> loops;
    for (int t = 0; t < rank_threads; ++t) {
      loops.push_back(rank_pool.Submit(rank_loop));
    }
    for (int t = 0; t < decode_threads; ++t) {
      loops.push_back(decode_pool.Submit(decode_loop));
    }
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
    for (size_t i = 0; i < scene_count; ++i) {
      metrics.MergeFrom(decode_metrics[i]);
      metrics.MergeFrom(rank_metrics[i]);
    }
    // Scene-granularity batch counters: a scene counts as ok only when
    // every application ranked it (equals the per-app counters for a
    // single-application run).
    metrics.counters["batch.scenes"] += scene_count;
    metrics.counters["batch.scenes_ok"] += scene_count - scenes_failed;
    metrics.counters["batch.scenes_failed"] += scenes_failed;
    metrics.counters["batch.scenes_quarantined"] += scenes_failed;
    metrics.timers_ms["batch.total"] = total_timer.ElapsedMs();
    metrics.gauges["batch.threads"] = static_cast<double>(rank_threads);
    metrics.gauges["stream.resident_scenes_peak"] =
        static_cast<double>(resident_peak);
    double scene_ms_max = 0.0;
    for (const SceneOutcome& outcome : multi.reports.front().outcomes) {
      scene_ms_max = std::max(scene_ms_max, outcome.wall_ms);
    }
    metrics.gauges["batch.scene_ms_max"] = scene_ms_max;
  }
  return multi;
}

Result<BatchReport> Fixy::RankDatasetStreaming(
    const SceneSource& source, Application app, const BatchOptions& batch,
    const StreamOptions& stream) const {
  FIXY_ASSIGN_OR_RETURN(
      MultiAppReport multi,
      RankDatasetStreaming(source, {ApplicationName(app)}, batch, stream));
  BatchReport report = std::move(multi.reports.front());
  report.metrics = std::move(multi.metrics);
  return report;
}

}  // namespace fixy
