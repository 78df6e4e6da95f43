#include "core/learner.h"

#include <algorithm>
#include <cmath>
#include <future>
#include <optional>

#include "common/macros.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "json/json.h"
#include "obs/metrics.h"
#include "stats/discrete.h"
#include "stats/gaussian.h"
#include "stats/histogram.h"
#include "stats/kde.h"

namespace fixy {

const char* EstimatorKindToString(EstimatorKind kind) {
  switch (kind) {
    case EstimatorKind::kKde:
      return "kde";
    case EstimatorKind::kHistogram:
      return "histogram";
    case EstimatorKind::kGaussian:
      return "gaussian";
    case EstimatorKind::kCategorical:
      return "categorical";
  }
  return "unknown";
}

Result<EstimatorKind> EstimatorKindFromString(const std::string& name) {
  if (name == "kde") return EstimatorKind::kKde;
  if (name == "histogram") return EstimatorKind::kHistogram;
  if (name == "gaussian") return EstimatorKind::kGaussian;
  if (name == "categorical") return EstimatorKind::kCategorical;
  return Status::InvalidArgument("unknown estimator kind: " + name);
}

DistributionLearner::DistributionLearner(LearnerOptions options)
    : options_(std::move(options)) {}

Result<std::vector<DistributionLearner::CollectedValues>>
DistributionLearner::CollectValues(
    const Dataset& training, const std::vector<FeaturePtr>& features) const {
  std::vector<CollectedValues> collected(features.size());
  const TrackBuilder builder(options_.track_builder);
  for (const Scene& scene : training.scenes) {
    const Scene filtered =
        options_.all_sources ? scene : FilterToSource(scene, options_.source);
    FIXY_ASSIGN_OR_RETURN(TrackSet tracks, builder.Build(filtered));
    for (size_t i = 0; i < features.size(); ++i) {
      const Feature& feature = *features[i];
      CollectedValues& values = collected[i];
      const bool per_class = feature.class_conditional();
      // Non-finite values are skipped (ForEachFeatureValue says why); a
      // class-conditional value with no class has no cell to train.
      const auto record = [&values, per_class](
                              std::optional<double> value,
                              std::optional<ObjectClass> cls) {
        if (!value.has_value() || !std::isfinite(*value)) return;
        if (!per_class) {
          values.global.push_back(*value);
        } else if (cls.has_value()) {
          values.per_class[*cls].push_back(*value);
        }
      };
      for (const Track& track : tracks.tracks) {
        ForEachFeatureValue(feature, track, scene.frame_rate_hz(), record);
      }
    }
  }
  return collected;
}

uint64_t SampleStats::n(EstimatorKind kind) const {
  switch (kind) {
    case EstimatorKind::kGaussian:
      return moments.n;
    case EstimatorKind::kHistogram:
    case EstimatorKind::kCategorical:
      return counts.total;
    case EstimatorKind::kKde:
      return reservoir.seen;
  }
  return 0;
}

void SampleStats::Add(double x, EstimatorKind kind) {
  switch (kind) {
    case EstimatorKind::kGaussian:
      moments.Add(x);
      break;
    case EstimatorKind::kHistogram:
    case EstimatorKind::kCategorical:
      counts.Add(x);
      break;
    case EstimatorKind::kKde:
      reservoir.Add(x);
      break;
  }
}

SampleStats DistributionLearner::NewSampleStats() const {
  SampleStats stats;
  stats.reservoir.capacity = options_.kde_reservoir_capacity;
  stats.reservoir.seed = options_.kde_reservoir_seed;
  return stats;
}

Result<stats::DistributionPtr> DistributionLearner::FitFromStats(
    const SampleStats& stats, EstimatorKind kind) const {
  switch (kind) {
    case EstimatorKind::kKde: {
      FIXY_ASSIGN_OR_RETURN(stats::GaussianKde kde,
                            stats::GaussianKde::Fit(stats.reservoir.items));
      return stats::DistributionPtr(
          std::make_shared<stats::GaussianKde>(std::move(kde)));
    }
    case EstimatorKind::kHistogram: {
      FIXY_ASSIGN_OR_RETURN(stats::HistogramDensity hist,
                            stats::HistogramDensity::Fit(stats.counts));
      return stats::DistributionPtr(
          std::make_shared<stats::HistogramDensity>(std::move(hist)));
    }
    case EstimatorKind::kGaussian: {
      FIXY_ASSIGN_OR_RETURN(
          stats::Gaussian gaussian,
          stats::Gaussian::FitFromMoments(stats.moments.n, stats.moments.sum,
                                          stats.moments.sum_sq));
      return stats::DistributionPtr(
          std::make_shared<stats::Gaussian>(std::move(gaussian)));
    }
    case EstimatorKind::kCategorical: {
      FIXY_ASSIGN_OR_RETURN(stats::Categorical categorical,
                            stats::Categorical::Fit(stats.counts));
      return stats::DistributionPtr(
          std::make_shared<stats::Categorical>(std::move(categorical)));
    }
  }
  return Status::Internal("unknown estimator kind");
}

FeatureStats DistributionLearner::EmptyStats(const Feature& feature,
                                             EstimatorKind estimator) const {
  FeatureStats stats;
  stats.estimator = estimator;
  stats.class_conditional = feature.class_conditional();
  if (!stats.class_conditional) stats.global = NewSampleStats();
  return stats;
}

Result<std::vector<FeatureDistribution>> DistributionLearner::Learn(
    const Dataset& training, const std::vector<FeaturePtr>& features) const {
  LearnedFeatureSet state;
  for (const FeaturePtr& feature : features) {
    if (feature == nullptr) {
      return Status::InvalidArgument("null feature passed to learner");
    }
    state.stats.push_back(EmptyStats(*feature, options_.estimator));
  }
  FIXY_RETURN_IF_ERROR(Fold(training, features, state));
  return std::move(state.distributions);
}

Status DistributionLearner::Fold(const Dataset& delta,
                                 const std::vector<FeaturePtr>& features,
                                 LearnedFeatureSet& state) const {
  const obs::ScopedStageTimer fit_timer("learn.fit");
  for (const auto& [option, value] :
       {std::pair{"kde_reservoir_seed", options_.kde_reservoir_seed},
        std::pair{"kde_reservoir_capacity", options_.kde_reservoir_capacity}}) {
    if (value > json::kMaxExactInteger) {
      return Status::InvalidArgument(StrFormat(
          "LearnerOptions::%s = %llu is above 2^53, so a saved model could "
          "not hold it exactly",
          option, static_cast<unsigned long long>(value)));
    }
  }
  const bool refit = !state.distributions.empty();
  if (features.size() != state.stats.size() ||
      (refit && features.size() != state.distributions.size())) {
    return Status::InvalidArgument(StrFormat(
        "cannot fold: %zu features but %zu stat sets and %zu distributions",
        features.size(), state.stats.size(), state.distributions.size()));
  }
  for (size_t i = 0; i < features.size(); ++i) {
    const FeaturePtr& feature = features[i];
    if (feature == nullptr) {
      return Status::InvalidArgument("null feature passed to learner");
    }
    if (state.stats[i].class_conditional != feature->class_conditional()) {
      return Status::InvalidArgument(StrFormat(
          "feature '%s': stats class-conditionality does not match",
          feature->name().c_str()));
    }
    if (refit && state.distributions[i].feature().name() != feature->name()) {
      return Status::InvalidArgument(StrFormat(
          "cannot fold: distribution %zu is feature '%s', not '%s'", i,
          state.distributions[i].feature().name().c_str(),
          feature->name().c_str()));
    }
  }

  FIXY_ASSIGN_OR_RETURN(std::vector<CollectedValues> collected,
                        CollectValues(delta, features));
  // Fold into a copy so a failed fit leaves `state` usable.
  std::vector<FeatureStats> folded = state.stats;
  for (size_t i = 0; i < features.size(); ++i) {
    const CollectedValues& values = collected[i];
    if (obs::Enabled()) {
      size_t samples = values.global.size();
      for (const auto& [cls, class_values] : values.per_class) {
        samples += class_values.size();
      }
      obs::Count("learn.samples." + features[i]->name(), samples);
    }
    FeatureStats& stats = folded[i];
    for (const auto& [cls, class_values] : values.per_class) {
      auto it = stats.per_class.find(cls);
      if (it == stats.per_class.end()) {
        it = stats.per_class.emplace(cls, NewSampleStats()).first;
      }
      for (double value : class_values) it->second.Add(value, stats.estimator);
    }
    for (double value : values.global) stats.global.Add(value, stats.estimator);
  }

  // One cell per distribution to fit: class-conditional features have one
  // per class at kMinTrainingSamples, the rest a single global cell. On a
  // refit, a cell whose statistics the fold left untouched keeps its
  // existing DistributionPtr; only the changed ones become fit jobs.
  struct Cell {
    size_t feature = 0;
    std::optional<ObjectClass> cls;
    const SampleStats* stats = nullptr;  // set only when a fit is needed
    stats::DistributionPtr dist;         // the reused or fitted distribution
  };
  std::vector<Cell> cells;
  size_t fits = 0;
  const auto add_cell = [&](size_t i, std::optional<ObjectClass> cls,
                            const SampleStats& now, const SampleStats* before,
                            stats::DistributionPtr prior) {
    Cell cell{i, cls, nullptr, nullptr};
    if (prior != nullptr && before != nullptr && *before == now) {
      cell.dist = std::move(prior);
    } else {
      cell.stats = &now;
      ++fits;
    }
    cells.push_back(std::move(cell));
  };
  for (size_t i = 0; i < features.size(); ++i) {
    const FeatureStats& now = folded[i];
    const FeatureStats& before = state.stats[i];
    if (now.class_conditional) {
      bool any = false;
      for (const auto& [cls, sample_stats] : now.per_class) {
        if (sample_stats.n(now.estimator) < kMinTrainingSamples) continue;
        any = true;
        const auto old_stats = before.per_class.find(cls);
        stats::DistributionPtr prior;
        if (refit) {
          const auto& dists = state.distributions[i].per_class_distributions();
          const auto old_dist = dists.find(cls);
          if (old_dist != dists.end()) prior = old_dist->second;
        }
        add_cell(i, cls, sample_stats,
                 old_stats == before.per_class.end() ? nullptr
                                                     : &old_stats->second,
                 std::move(prior));
      }
      if (!any) {
        return Status::InvalidArgument(
            StrFormat("feature '%s': no class reached %zu training samples",
                      features[i]->name().c_str(), kMinTrainingSamples));
      }
    } else {
      const uint64_t n = now.global.n(now.estimator);
      if (n < kMinTrainingSamples) {
        return Status::InvalidArgument(
            StrFormat("feature '%s': only %zu training samples (need %zu)",
                      features[i]->name().c_str(), static_cast<size_t>(n),
                      kMinTrainingSamples));
      }
      add_cell(i, std::nullopt, now.global, &before.global,
               refit ? state.distributions[i].global_distribution() : nullptr);
    }
  }

  // Fit every changed cell; each fit is independent (pure function of the
  // cell's stats), so they fan out across a pool. Results land in
  // cell-index slots and errors are reported in cell order, keeping the
  // outcome deterministic at any thread count.
  std::vector<Result<stats::DistributionPtr>> fitted(
      cells.size(), Status::Internal("fit not run"));
  const auto fit_cell = [&](size_t c) {
    fitted[c] =
        FitFromStats(*cells[c].stats, folded[cells[c].feature].estimator);
  };
  if (fits > 1) {
    FIXY_ASSIGN_OR_RETURN(
        const std::unique_ptr<ThreadPool> pool,
        ThreadPool::Create(static_cast<int>(std::min(
            fits,
            static_cast<size_t>(ThreadPool::ResolveThreadCount(0))))));
    std::vector<std::future<void>> pending;
    for (size_t c = 0; c < cells.size(); ++c) {
      if (cells[c].stats != nullptr) {
        pending.push_back(pool->Submit([&fit_cell, c] { fit_cell(c); }));
      }
    }
    for (std::future<void>& f : pending) f.get();
  } else {
    for (size_t c = 0; c < cells.size(); ++c) {
      if (cells[c].stats != nullptr) fit_cell(c);
    }
  }
  for (size_t c = 0; c < cells.size(); ++c) {
    if (cells[c].stats == nullptr) continue;
    if (!fitted[c].ok()) {
      return Status(fitted[c].status().code(),
                    StrFormat("feature '%s': %s",
                              features[cells[c].feature]->name().c_str(),
                              fitted[c].status().message().c_str()));
    }
    cells[c].dist = std::move(*fitted[c]);
  }

  // Assemble per-feature distributions in feature order.
  std::vector<FeatureDistribution> learned;
  learned.reserve(features.size());
  size_t c = 0;
  for (size_t i = 0; i < features.size(); ++i) {
    if (folded[i].class_conditional) {
      std::map<ObjectClass, stats::DistributionPtr> per_class;
      for (; c < cells.size() && cells[c].feature == i; ++c) {
        per_class[*cells[c].cls] = std::move(cells[c].dist);
      }
      learned.push_back(FeatureDistribution(features[i], std::move(per_class)));
    } else {
      learned.push_back(
          FeatureDistribution(features[i], std::move(cells[c++].dist)));
    }
  }
  state.stats = std::move(folded);
  state.distributions = std::move(learned);
  return Status::Ok();
}

}  // namespace fixy
