#include "core/model_io.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>

#include "common/file_util.h"
#include "common/macros.h"
#include "core/features_std.h"
#include "stats/discrete.h"
#include "stats/gaussian.h"
#include "stats/histogram.h"
#include "stats/kde.h"

namespace fixy {

namespace {

constexpr const char* kModelMarker = "fixy-model";
constexpr int kModelVersion = 1;

}  // namespace

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

Result<json::Value> DistributionToJson(const stats::Distribution& dist) {
  json::Object obj;
  if (const auto* kde = dynamic_cast<const stats::GaussianKde*>(&dist)) {
    obj["type"] = "kde";
    obj["bandwidth"] = kde->bandwidth();
    json::Array samples;
    samples.reserve(kde->samples().size());
    for (double s : kde->samples()) samples.push_back(s);
    obj["samples"] = std::move(samples);
    return json::Value(std::move(obj));
  }
  if (const auto* hist =
          dynamic_cast<const stats::HistogramDensity*>(&dist)) {
    obj["type"] = "histogram";
    obj["lo"] = hist->lower_bound();
    obj["bin_width"] = hist->bin_width();
    json::Array counts;
    for (int b = 0; b < hist->num_bins(); ++b) {
      counts.push_back(static_cast<uint64_t>(hist->bin_count(b)));
    }
    obj["counts"] = std::move(counts);
    return json::Value(std::move(obj));
  }
  if (const auto* gaussian = dynamic_cast<const stats::Gaussian*>(&dist)) {
    obj["type"] = "gaussian";
    obj["mean"] = gaussian->mean();
    obj["stddev"] = gaussian->stddev();
    return json::Value(std::move(obj));
  }
  if (const auto* bernoulli = dynamic_cast<const stats::Bernoulli*>(&dist)) {
    obj["type"] = "bernoulli";
    obj["p_one"] = bernoulli->p_one();
    return json::Value(std::move(obj));
  }
  if (const auto* categorical =
          dynamic_cast<const stats::Categorical*>(&dist)) {
    obj["type"] = "categorical";
    json::Object mass;
    for (const auto& [value, p] : categorical->mass()) {
      mass[std::to_string(value)] = p;
    }
    obj["mass"] = std::move(mass);
    return json::Value(std::move(obj));
  }
  return Status::Unimplemented("distribution type is not serializable: " +
                               dist.ToString());
}

Result<stats::DistributionPtr> DistributionFromJson(
    const json::Value& value) {
  if (!value.is_object()) {
    return Status::InvalidArgument("distribution must be a JSON object");
  }
  FIXY_ASSIGN_OR_RETURN(std::string type, value.GetString("type"));
  if (type == "kde") {
    FIXY_ASSIGN_OR_RETURN(double bandwidth, value.GetDouble("bandwidth"));
    const json::Value* samples = value.Find("samples");
    if (samples == nullptr || !samples->is_array()) {
      return Status::InvalidArgument("kde missing samples array");
    }
    std::vector<double> xs;
    xs.reserve(samples->AsArray().size());
    for (const json::Value& s : samples->AsArray()) {
      if (!s.is_number()) {
        return Status::InvalidArgument("kde sample must be a number");
      }
      xs.push_back(s.AsDouble());
    }
    FIXY_ASSIGN_OR_RETURN(
        stats::GaussianKde kde,
        stats::GaussianKde::FitWithBandwidth(std::move(xs), bandwidth));
    return stats::DistributionPtr(
        std::make_shared<stats::GaussianKde>(std::move(kde)));
  }
  if (type == "histogram") {
    FIXY_ASSIGN_OR_RETURN(double lo, value.GetDouble("lo"));
    FIXY_ASSIGN_OR_RETURN(double bin_width, value.GetDouble("bin_width"));
    const json::Value* counts = value.Find("counts");
    if (counts == nullptr || !counts->is_array()) {
      return Status::InvalidArgument("histogram missing counts array");
    }
    std::vector<size_t> bins;
    for (const json::Value& c : counts->AsArray()) {
      if (!c.is_number() || c.AsDouble() < 0) {
        return Status::InvalidArgument("histogram count must be >= 0");
      }
      bins.push_back(static_cast<size_t>(c.AsDouble()));
    }
    FIXY_ASSIGN_OR_RETURN(
        stats::HistogramDensity hist,
        stats::HistogramDensity::FromParts(lo, bin_width, std::move(bins)));
    return stats::DistributionPtr(
        std::make_shared<stats::HistogramDensity>(std::move(hist)));
  }
  if (type == "gaussian") {
    FIXY_ASSIGN_OR_RETURN(double mean, value.GetDouble("mean"));
    FIXY_ASSIGN_OR_RETURN(double stddev, value.GetDouble("stddev"));
    FIXY_ASSIGN_OR_RETURN(stats::Gaussian gaussian,
                          stats::Gaussian::Create(mean, stddev));
    return stats::DistributionPtr(
        std::make_shared<stats::Gaussian>(std::move(gaussian)));
  }
  if (type == "bernoulli") {
    FIXY_ASSIGN_OR_RETURN(double p_one, value.GetDouble("p_one"));
    FIXY_ASSIGN_OR_RETURN(stats::Bernoulli bernoulli,
                          stats::Bernoulli::Create(p_one));
    return stats::DistributionPtr(
        std::make_shared<stats::Bernoulli>(std::move(bernoulli)));
  }
  if (type == "categorical") {
    const json::Value* mass = value.Find("mass");
    if (mass == nullptr || !mass->is_object()) {
      return Status::InvalidArgument("categorical missing mass object");
    }
    std::map<long, double> pm;
    for (const auto& [key, p] : mass->AsObject()) {
      if (!p.is_number()) {
        return Status::InvalidArgument("categorical mass must be a number");
      }
      // An empty key would satisfy the end-pointer check below (strtol
      // consumes zero characters and end == begin == begin + size), so it
      // must be rejected explicitly; and strtol signals overflow only via
      // errno, silently clamping to LONG_MAX/LONG_MIN otherwise.
      if (key.empty()) {
        return Status::InvalidArgument("categorical key must not be empty");
      }
      char* end = nullptr;
      errno = 0;
      const long v = std::strtol(key.c_str(), &end, 10);
      if (end != key.c_str() + key.size()) {
        return Status::InvalidArgument("categorical key must be an integer: " +
                                       key);
      }
      if (errno == ERANGE) {
        return Status::InvalidArgument("categorical key out of range: " + key);
      }
      pm[v] = p.AsDouble();
    }
    FIXY_ASSIGN_OR_RETURN(stats::Categorical categorical,
                          stats::Categorical::FromMass(std::move(pm)));
    return stats::DistributionPtr(
        std::make_shared<stats::Categorical>(std::move(categorical)));
  }
  return Status::InvalidArgument("unknown distribution type: " + type);
}

namespace {

// One value stream's statistics; which members appear follows the
// estimator kind, mirroring SampleStats::Add.
Result<json::Value> SampleStatsToJson(const SampleStats& stats,
                                      EstimatorKind kind) {
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

Result<SampleStats> SampleStatsFromJson(const json::Value& value,
                                        EstimatorKind kind) {
  if (!value.is_object()) {
    return Status::InvalidArgument("sample stats must be a JSON object");
  }
  SampleStats stats;
  switch (kind) {
    case EstimatorKind::kGaussian: {
      FIXY_ASSIGN_OR_RETURN(int64_t n, value.GetInt64("n"));
      if (n < 0) return Status::InvalidArgument("moment stats n must be >= 0");
      FIXY_ASSIGN_OR_RETURN(stats.moments.sum, value.GetDouble("sum"));
      FIXY_ASSIGN_OR_RETURN(stats.moments.sum_sq, value.GetDouble("sum_sq"));
      stats.moments.n = static_cast<uint64_t>(n);
      break;
    }
    case EstimatorKind::kHistogram:
    case EstimatorKind::kCategorical: {
      FIXY_ASSIGN_OR_RETURN(int64_t total, value.GetInt64("total"));
      if (total < 0) {
        return Status::InvalidArgument("value counts total must be >= 0");
      }
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
        if (!v.is_number() || !c.is_number() || c.AsDouble() < 1) {
          return Status::InvalidArgument(
              "value counts entries must be numbers with counts >= 1");
        }
        const auto count = static_cast<uint64_t>(c.AsDouble());
        if (!stats.counts.counts.emplace(v.AsDouble(), count).second) {
          return Status::InvalidArgument("value counts has a duplicate value");
        }
        sum += count;
      }
      if (sum != static_cast<uint64_t>(total)) {
        return Status::InvalidArgument(
            "value counts total does not match the counts");
      }
      stats.counts.total = static_cast<uint64_t>(total);
      break;
    }
    case EstimatorKind::kKde: {
      FIXY_ASSIGN_OR_RETURN(int64_t seen, value.GetInt64("seen"));
      FIXY_ASSIGN_OR_RETURN(int64_t capacity, value.GetInt64("capacity"));
      FIXY_ASSIGN_OR_RETURN(int64_t seed, value.GetInt64("seed"));
      if (seen < 0 || capacity < 0 || seed < 0) {
        return Status::InvalidArgument("reservoir fields must be >= 0");
      }
      const json::Value* items = value.Find("items");
      if (items == nullptr || !items->is_array()) {
        return Status::InvalidArgument("reservoir missing items array");
      }
      stats.reservoir.seen = static_cast<uint64_t>(seen);
      stats.reservoir.capacity = static_cast<uint64_t>(capacity);
      stats.reservoir.seed = static_cast<uint64_t>(seed);
      stats.reservoir.items.reserve(items->AsArray().size());
      for (const json::Value& item : items->AsArray()) {
        if (!item.is_number()) {
          return Status::InvalidArgument("reservoir item must be a number");
        }
        stats.reservoir.items.push_back(item.AsDouble());
      }
      // Resumability invariant: the reservoir holds min(seen, capacity)
      // items — anything else cannot have come from ValueReservoir::Add.
      const uint64_t expected = std::min(stats.reservoir.seen,
                                         stats.reservoir.capacity);
      if (stats.reservoir.items.size() != expected) {
        return Status::InvalidArgument(
            "reservoir item count does not match seen/capacity");
      }
      break;
    }
  }
  return stats;
}

}  // namespace

Result<json::Value> FeatureStatsToJson(const FeatureStats& stats) {
  json::Object obj;
  obj["estimator"] = std::string(EstimatorKindToString(stats.estimator));
  obj["class_conditional"] = stats.class_conditional;
  if (stats.class_conditional) {
    json::Object per_class;
    for (const auto& [cls, sample_stats] : stats.per_class) {
      FIXY_ASSIGN_OR_RETURN(json::Value entry,
                            SampleStatsToJson(sample_stats, stats.estimator));
      per_class[ObjectClassToString(cls)] = std::move(entry);
    }
    obj["per_class"] = std::move(per_class);
  } else {
    FIXY_ASSIGN_OR_RETURN(json::Value global,
                          SampleStatsToJson(stats.global, stats.estimator));
    obj["global"] = std::move(global);
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

Result<json::Value> LearnedModelToJson(
    const std::vector<FeatureDistribution>& learned,
    const std::vector<FeatureStats>& stats) {
  if (!stats.empty() && stats.size() != learned.size()) {
    return Status::InvalidArgument(
        "model stats must be empty or parallel to the distributions");
  }
  json::Array features;
  for (size_t i = 0; i < learned.size(); ++i) {
    const FeatureDistribution& fd = learned[i];
    json::Object entry;
    entry["feature"] = fd.feature().name();
    if (fd.global_distribution() != nullptr) {
      FIXY_ASSIGN_OR_RETURN(json::Value dist,
                            DistributionToJson(*fd.global_distribution()));
      entry["distribution"] = std::move(dist);
    } else {
      json::Object per_class;
      for (const auto& [cls, dist] : fd.per_class_distributions()) {
        FIXY_ASSIGN_OR_RETURN(json::Value dist_json,
                              DistributionToJson(*dist));
        per_class[ObjectClassToString(cls)] = std::move(dist_json);
      }
      entry["per_class"] = std::move(per_class);
    }
    if (!stats.empty()) {
      FIXY_ASSIGN_OR_RETURN(json::Value stats_json,
                            FeatureStatsToJson(stats[i]));
      entry["stats"] = std::move(stats_json);
    }
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
  const json::Value* features = value.Find("features");
  if (features == nullptr || !features->is_array()) {
    return Status::InvalidArgument("model missing features array");
  }
  LoadedModel model;
  size_t entries_with_stats = 0;
  for (const json::Value& entry : features->AsArray()) {
    FIXY_ASSIGN_OR_RETURN(std::string name, entry.GetString("feature"));
    FIXY_ASSIGN_OR_RETURN(FeaturePtr feature, registry.Find(name));
    if (const json::Value* dist = entry.Find("distribution");
        dist != nullptr) {
      FIXY_ASSIGN_OR_RETURN(stats::DistributionPtr loaded,
                            DistributionFromJson(*dist));
      model.distributions.emplace_back(std::move(feature), std::move(loaded));
    } else if (const json::Value* per_class = entry.Find("per_class");
               per_class != nullptr && per_class->is_object()) {
      std::map<ObjectClass, stats::DistributionPtr> loaded;
      for (const auto& [cls_name, dist_json] : per_class->AsObject()) {
        FIXY_ASSIGN_OR_RETURN(ObjectClass cls,
                              ObjectClassFromString(cls_name));
        FIXY_ASSIGN_OR_RETURN(stats::DistributionPtr dist,
                              DistributionFromJson(dist_json));
        loaded[cls] = std::move(dist);
      }
      if (loaded.empty()) {
        return Status::InvalidArgument(
            "per_class distribution map is empty for feature: " + name);
      }
      model.distributions.emplace_back(std::move(feature), std::move(loaded));
    } else {
      return Status::InvalidArgument(
          "feature entry needs 'distribution' or 'per_class': " + name);
    }
    if (const json::Value* stats_json = entry.Find("stats");
        stats_json != nullptr) {
      FIXY_ASSIGN_OR_RETURN(FeatureStats stats,
                            FeatureStatsFromJson(*stats_json));
      model.stats.push_back(std::move(stats));
      ++entries_with_stats;
    }
  }
  // Stats are all-or-nothing: a partial set cannot be folded into, so it
  // loads as a plain (non-incremental) model would — except a mix, which
  // indicates a damaged file.
  if (entries_with_stats != 0 &&
      entries_with_stats != model.distributions.size()) {
    return Status::InvalidArgument(
        "model carries stats for only some features");
  }
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
