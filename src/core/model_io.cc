#include "core/model_io.h"

#include <algorithm>
#include <limits>

#include "common/file_util.h"
#include "common/macros.h"
#include "core/features_std.h"

namespace fixy {

FeatureRegistry FeatureRegistry::Standard() {
  FeatureRegistry registry;
  registry.Register(std::make_shared<VolumeFeature>());
  registry.Register(std::make_shared<VelocityFeature>());
  registry.Register(std::make_shared<CountFeature>());
  registry.Register(std::make_shared<DistanceFeature>());
  registry.Register(std::make_shared<ModelOnlyFeature>());
  registry.Register(std::make_shared<ClassAgreementFeature>());
  return registry;
}

void FeatureRegistry::Register(FeaturePtr feature) {
  FIXY_CHECK(feature != nullptr);
  features_[feature->name()] = std::move(feature);
}

Result<FeaturePtr> FeatureRegistry::Find(const std::string& name) const {
  const auto it = features_.find(name);
  if (it == features_.end()) {
    return Status::NotFound("feature not registered: " + name);
  }
  return it->second;
}

namespace {

constexpr const char* kModelMarker = "fixy-model";
constexpr int kModelVersion = 1;

// One value stream's statistics; which members appear follows the
// estimator kind, mirroring SampleStats::Add.
json::Value SampleStatsToJson(const SampleStats& stats, EstimatorKind kind) {
  json::Object obj;
  switch (kind) {
    case EstimatorKind::kGaussian:
      obj["n"] = stats.moments.n;
      obj["sum"] = stats.moments.sum;
      obj["sum_sq"] = stats.moments.sum_sq;
      break;
    case EstimatorKind::kHistogram:
    case EstimatorKind::kCategorical: {
      obj["total"] = stats.counts.total;
      json::Array values;
      json::Array counts;
      for (const auto& [value, count] : stats.counts.counts) {
        values.push_back(value);
        counts.push_back(count);
      }
      obj["values"] = std::move(values);
      obj["counts"] = std::move(counts);
      break;
    }
    case EstimatorKind::kKde: {
      obj["seen"] = stats.reservoir.seen;
      obj["capacity"] = stats.reservoir.capacity;
      obj["seed"] = stats.reservoir.seed;
      json::Array items;
      items.reserve(stats.reservoir.items.size());
      for (double item : stats.reservoir.items) items.push_back(item);
      obj["items"] = std::move(items);
      break;
    }
  }
  return json::Value(std::move(obj));
}

// A non-negative integer: a count, a capacity or a seed.
Result<uint64_t> ToCount(double number, const std::string& key) {
  FIXY_ASSIGN_OR_RETURN(const int64_t n, json::ToInt64(number, key));
  if (n < 0) return Status::InvalidArgument(key + " must be >= 0");
  return static_cast<uint64_t>(n);
}

Result<uint64_t> GetCount(const json::Value& value, const std::string& key) {
  FIXY_ASSIGN_OR_RETURN(const double number, value.GetDouble(key));
  return ToCount(number, key);
}

Result<SampleStats> SampleStatsFromJson(const json::Value& value,
                                        EstimatorKind kind) {
  if (!value.is_object()) {
    return Status::InvalidArgument("sample stats must be a JSON object");
  }
  SampleStats stats;
  switch (kind) {
    case EstimatorKind::kGaussian: {
      FIXY_ASSIGN_OR_RETURN(stats.moments.n, GetCount(value, "n"));
      FIXY_ASSIGN_OR_RETURN(stats.moments.sum, value.GetDouble("sum"));
      FIXY_ASSIGN_OR_RETURN(stats.moments.sum_sq, value.GetDouble("sum_sq"));
      break;
    }
    case EstimatorKind::kHistogram:
    case EstimatorKind::kCategorical: {
      FIXY_ASSIGN_OR_RETURN(stats.counts.total, GetCount(value, "total"));
      const json::Value* values = value.Find("values");
      const json::Value* counts = value.Find("counts");
      if (values == nullptr || !values->is_array() || counts == nullptr ||
          !counts->is_array() ||
          values->AsArray().size() != counts->AsArray().size()) {
        return Status::InvalidArgument(
            "value counts need parallel values/counts arrays");
      }
      uint64_t sum = 0;
      for (size_t i = 0; i < values->AsArray().size(); ++i) {
        const json::Value& v = values->AsArray()[i];
        const json::Value& c = counts->AsArray()[i];
        if (!v.is_number() || !c.is_number()) {
          return Status::InvalidArgument(
              "value counts entries must be numbers");
        }
        FIXY_ASSIGN_OR_RETURN(const uint64_t count,
                              ToCount(c.AsDouble(), "counts"));
        if (count < 1) {
          return Status::InvalidArgument("value counts need counts >= 1");
        }
        if (!stats.counts.counts.emplace(v.AsDouble(), count).second) {
          return Status::InvalidArgument("value counts has a duplicate value");
        }
        if (count > std::numeric_limits<uint64_t>::max() - sum) {
          return Status::InvalidArgument("value counts overflow their sum");
        }
        sum += count;
      }
      if (sum != stats.counts.total) {
        return Status::InvalidArgument(
            "value counts total does not match the counts");
      }
      break;
    }
    case EstimatorKind::kKde: {
      FIXY_ASSIGN_OR_RETURN(stats.reservoir.seen, GetCount(value, "seen"));
      FIXY_ASSIGN_OR_RETURN(stats.reservoir.capacity,
                            GetCount(value, "capacity"));
      FIXY_ASSIGN_OR_RETURN(stats.reservoir.seed, GetCount(value, "seed"));
      const json::Value* items = value.Find("items");
      if (items == nullptr || !items->is_array()) {
        return Status::InvalidArgument("reservoir missing items array");
      }
      // Resumability invariant: the reservoir holds min(seen, capacity)
      // items — anything else cannot have come from ValueReservoir::Add.
      if (items->AsArray().size() !=
          std::min(stats.reservoir.seen, stats.reservoir.capacity)) {
        return Status::InvalidArgument(
            "reservoir item count does not match seen/capacity");
      }
      stats.reservoir.items.reserve(items->AsArray().size());
      for (const json::Value& item : items->AsArray()) {
        if (!item.is_number()) {
          return Status::InvalidArgument("reservoir item must be a number");
        }
        stats.reservoir.items.push_back(item.AsDouble());
      }
      break;
    }
  }
  return stats;
}

json::Value FeatureStatsToJson(const FeatureStats& stats) {
  json::Object obj;
  obj["estimator"] = std::string(EstimatorKindToString(stats.estimator));
  obj["class_conditional"] = stats.class_conditional;
  if (stats.class_conditional) {
    json::Object per_class;
    for (const auto& [cls, sample_stats] : stats.per_class) {
      per_class[ObjectClassToString(cls)] =
          SampleStatsToJson(sample_stats, stats.estimator);
    }
    obj["per_class"] = std::move(per_class);
  } else {
    obj["global"] = SampleStatsToJson(stats.global, stats.estimator);
  }
  return json::Value(std::move(obj));
}

Result<FeatureStats> FeatureStatsFromJson(const json::Value& value) {
  if (!value.is_object()) {
    return Status::InvalidArgument("feature stats must be a JSON object");
  }
  FIXY_ASSIGN_OR_RETURN(std::string estimator, value.GetString("estimator"));
  FeatureStats stats;
  FIXY_ASSIGN_OR_RETURN(stats.estimator, EstimatorKindFromString(estimator));
  FIXY_ASSIGN_OR_RETURN(stats.class_conditional,
                        value.GetBool("class_conditional"));
  if (stats.class_conditional) {
    const json::Value* per_class = value.Find("per_class");
    if (per_class == nullptr || !per_class->is_object()) {
      return Status::InvalidArgument("feature stats missing per_class object");
    }
    for (const auto& [cls_name, entry] : per_class->AsObject()) {
      FIXY_ASSIGN_OR_RETURN(ObjectClass cls, ObjectClassFromString(cls_name));
      FIXY_ASSIGN_OR_RETURN(SampleStats sample_stats,
                            SampleStatsFromJson(entry, stats.estimator));
      stats.per_class[cls] = std::move(sample_stats);
    }
    if (stats.per_class.empty()) {
      return Status::InvalidArgument("per_class stats map is empty");
    }
  } else {
    const json::Value* global = value.Find("global");
    if (global == nullptr) {
      return Status::InvalidArgument("feature stats missing global object");
    }
    FIXY_ASSIGN_OR_RETURN(stats.global,
                          SampleStatsFromJson(*global, stats.estimator));
  }
  return stats;
}

}  // namespace

Result<json::Value> LearnedModelToJson(
    const std::vector<FeatureDistribution>& learned,
    const std::vector<FeatureStats>& stats) {
  if (stats.size() != learned.size()) {
    return Status::InvalidArgument(
        "model stats must be parallel to the distributions");
  }
  json::Array features;
  for (size_t i = 0; i < learned.size(); ++i) {
    json::Object entry;
    entry["feature"] = learned[i].feature().name();
    entry["stats"] = FeatureStatsToJson(stats[i]);
    features.push_back(std::move(entry));
  }
  json::Object doc;
  doc["format"] = kModelMarker;
  doc["version"] = kModelVersion;
  doc["features"] = std::move(features);
  return json::Value(std::move(doc));
}

Result<LoadedModel> LearnedModelWithStatsFromJson(
    const json::Value& value, const FeatureRegistry& registry) {
  if (!value.is_object()) {
    return Status::InvalidArgument("model document must be an object");
  }
  FIXY_ASSIGN_OR_RETURN(std::string format, value.GetString("format"));
  if (format != kModelMarker) {
    return Status::InvalidArgument("not a fixy-model document");
  }
  FIXY_ASSIGN_OR_RETURN(int64_t version, value.GetInt64("version"));
  if (version != kModelVersion) {
    return Status::InvalidArgument("unsupported fixy-model version");
  }
  const json::Value* entries = value.Find("features");
  if (entries == nullptr || !entries->is_array()) {
    return Status::InvalidArgument("model missing features array");
  }
  std::vector<FeaturePtr> features;
  LoadedModel model;
  for (const json::Value& entry : entries->AsArray()) {
    FIXY_ASSIGN_OR_RETURN(std::string name, entry.GetString("feature"));
    FIXY_ASSIGN_OR_RETURN(FeaturePtr feature, registry.Find(name));
    const json::Value* stats_json = entry.Find("stats");
    if (stats_json == nullptr) {
      return Status::InvalidArgument(
          "feature '" + name +
          "' carries no statistics (a model saved before incremental "
          "learning): re-run `fixy_cli learn` to write a current model");
    }
    Result<FeatureStats> stats = FeatureStatsFromJson(*stats_json);
    if (!stats.ok()) {
      return Status::InvalidArgument("feature '" + name + "' statistics: " +
                                     stats.status().message());
    }
    features.push_back(std::move(feature));
    model.stats.push_back(std::move(*stats));
  }
  // The statistics are the model: one fold of no scenes fits every cell
  // from them, the fit Learn and LearnIncremental run. With no scene to
  // collect from, the learner's options do not matter.
  FIXY_RETURN_IF_ERROR(DistributionLearner().Fold(Dataset{}, features, model));
  return model;
}

Status SaveLearnedModel(const std::vector<FeatureDistribution>& learned,
                        const std::vector<FeatureStats>& stats,
                        const std::string& path) {
  FIXY_ASSIGN_OR_RETURN(json::Value doc, LearnedModelToJson(learned, stats));
  return WriteFileAtomic(path, {json::Write(doc, /*pretty=*/true)});
}

Result<LoadedModel> LoadLearnedModelWithStats(const std::string& path,
                                              const FeatureRegistry& registry) {
  std::string text;
  FIXY_RETURN_IF_ERROR(ReadFileInto(path, &text));
  FIXY_ASSIGN_OR_RETURN(json::Value doc, json::Parse(text));
  return LearnedModelWithStatsFromJson(doc, registry);
}

}  // namespace fixy
