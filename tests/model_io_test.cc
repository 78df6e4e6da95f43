// Tests for src/core/model_io: learned-model persistence (a model file is
// its sufficient statistics, and a load re-fits every distribution from
// them), the feature registry, and failure injection on malformed model
// documents and statistics.
#include <gtest/gtest.h>

#include <bit>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/features_std.h"
#include "core/model_io.h"
#include "core/proposal_io.h"
#include "sim/generate.h"
#include "stats/discrete.h"
#include "stats/gaussian.h"
#include "stats/histogram.h"
#include "stats/kde.h"

namespace fixy {
namespace {

// ---------------------------------------------------------------- Registry

TEST(FeatureRegistryTest, StandardFeaturesResolve) {
  const FeatureRegistry registry = FeatureRegistry::Standard();
  for (const char* name : {"volume", "velocity", "count", "distance",
                           "model_only", "class_agreement"}) {
    const auto feature = registry.Find(name);
    ASSERT_TRUE(feature.ok()) << name;
    EXPECT_EQ((*feature)->name(), name);
  }
}

TEST(FeatureRegistryTest, UnknownFeatureIsNotFound) {
  const FeatureRegistry registry = FeatureRegistry::Standard();
  EXPECT_EQ(registry.Find("warp_factor").status().code(),
            StatusCode::kNotFound);
}

class CustomFeature final : public ObservationFeature {
 public:
  std::string name() const override { return "custom"; }
  std::optional<double> Compute(const Observation& obs,
                                const FeatureContext&) const override {
    return obs.box.height;
  }
};

TEST(FeatureRegistryTest, UserFeaturesRegister) {
  FeatureRegistry registry = FeatureRegistry::Standard();
  registry.Register(std::make_shared<CustomFeature>());
  EXPECT_TRUE(registry.Find("custom").ok());
}

// ---------------------------------------------------------------- Model IO

// The statistics of the i-th feature entry of a saved model.
json::Object& StatsOf(json::Array& features, size_t i) {
  return features.at(i).AsObject().at("stats").AsObject();
}

// The first class's statistics of a class-conditional entry.
json::Object& FirstClassOf(json::Array& features, size_t i) {
  return StatsOf(features, i)
      .at("per_class")
      .AsObject()
      .begin()
      ->second.AsObject();
}

// The track count's value counts: SaveModel lists the count last, and it
// is a categorical whatever the main estimator.
json::Object& CountsOf(json::Array& features) {
  return StatsOf(features, features.size() - 1).at("global").AsObject();
}

class ModelIoTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    training_ = new sim::GeneratedDataset(
        sim::GenerateDataset(sim::LyftLikeProfile(), "train", 3, 515));
  }
  static void TearDownTestSuite() {
    delete training_;
    training_ = nullptr;
  }

  static std::string TempPath(const char* name) {
    return (std::filesystem::temp_directory_path() / name).string();
  }

  static std::string ReadBytes(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  }

  // Writes the model at `from` to `to` with `edit` applied to its feature
  // entries (SaveModel lists volume, velocity, count).
  static void RewriteFeatures(const std::string& from, const std::string& to,
                              const std::function<void(json::Array&)>& edit) {
    auto doc = json::Parse(ReadBytes(from));
    ASSERT_TRUE(doc.ok()) << doc.status();
    edit(doc->AsObject()["features"].AsArray());
    std::ofstream out(to, std::ios::binary);
    out << json::Write(*doc, /*pretty=*/true);
  }

  static FixyOptions WithEstimator(EstimatorKind estimator) {
    FixyOptions options;
    options.learner.estimator = estimator;
    return options;
  }

  static sim::GeneratedDataset* training_;
};

sim::GeneratedDataset* ModelIoTest::training_ = nullptr;

TEST_F(ModelIoTest, EngineSaveLoadPreservesRanking) {
  Fixy original;
  ASSERT_TRUE(original.Learn(training_->dataset).ok());
  const std::string path = TempPath("fixy_model_roundtrip.json");
  ASSERT_TRUE(original.SaveModel(path).ok());

  Fixy restored;
  ASSERT_TRUE(restored.LoadModel(path).ok());
  EXPECT_TRUE(restored.is_learned());

  // Every application, the model-error one (which uses the learned count
  // distribution) included, writes the same worklist bytes.
  const auto scene = sim::GenerateScene(sim::LyftLikeProfile(), "val", 616);
  for (const std::string& app : original.applications().names()) {
    const auto a = original.Find(scene.scene, app);
    const auto b = restored.Find(scene.scene, app);
    ASSERT_TRUE(a.ok() && b.ok()) << app;
    EXPECT_FALSE(a->empty()) << app;
    EXPECT_EQ(json::Write(ProposalsToJson(*a)), json::Write(ProposalsToJson(*b)))
        << app;
  }
  std::filesystem::remove(path);
}

TEST_F(ModelIoTest, SaveLeavesAnOpenReaderTheWholeOldModel) {
  // watch --learn-labels rewrites --model after every fold while a rank
  // or a fixyd start may be reading it. A reader that opened the old
  // model must still read all of it, and no temporary file stays behind.
  Fixy fixy;
  ASSERT_TRUE(fixy.Learn(training_->dataset).ok());
  const std::string path = TempPath("fixy_model_atomic_save.json");
  ASSERT_TRUE(fixy.SaveModel(path).ok());
  const std::string old_bytes = ReadBytes(path);
  std::ifstream reader(path, std::ios::binary);
  ASSERT_TRUE(reader.is_open());

  Dataset delta;
  delta.scenes.push_back(
      sim::GenerateScene(sim::LyftLikeProfile(), "edit", 717).scene);
  ASSERT_TRUE(fixy.LearnIncremental(delta).ok());
  ASSERT_TRUE(fixy.SaveModel(path).ok());

  const std::string seen(std::istreambuf_iterator<char>(reader), {});
  EXPECT_TRUE(seen == old_bytes) << "the reader saw " << seen.size()
                                 << " bytes, not the old model's "
                                 << old_bytes.size();
  EXPECT_NE(ReadBytes(path), old_bytes);
  Fixy reloaded;
  EXPECT_TRUE(reloaded.LoadModel(path).ok());
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::filesystem::remove(path);
}

TEST_F(ModelIoTest, SaveRequiresLearnedEngine) {
  const Fixy fixy;
  EXPECT_EQ(fixy.SaveModel(TempPath("never.json")).code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(ModelIoTest, LoadMissingFileFails) {
  Fixy fixy;
  EXPECT_EQ(fixy.LoadModel("/nonexistent/model.json").code(),
            StatusCode::kIoError);
  EXPECT_FALSE(fixy.is_learned());
}

TEST_F(ModelIoTest, LoadRejectsModelWithoutCount) {
  // A model document without the count statistics is rejected by the
  // engine (the model-errors application needs the count distribution).
  Fixy original;
  ASSERT_TRUE(original.Learn(training_->dataset).ok());
  const std::string saved = TempPath("fixy_model_withcount.json");
  ASSERT_TRUE(original.SaveModel(saved).ok());
  auto loaded = LoadLearnedModelWithStats(saved, FeatureRegistry::Standard());
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_EQ(loaded->distributions.back().feature().name(), "count");
  loaded->distributions.pop_back();
  loaded->stats.pop_back();
  const auto doc = LearnedModelToJson(loaded->distributions, loaded->stats);
  ASSERT_TRUE(doc.ok()) << doc.status();
  const std::string path = TempPath("fixy_model_nocount.json");
  {
    std::ofstream out(path);
    out << json::Write(*doc);
  }
  Fixy restored;
  const Status status = restored.LoadModel(path);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status;
  EXPECT_NE(status.message().find("'count'"), std::string::npos) << status;
  std::filesystem::remove(saved);
  std::filesystem::remove(path);
}

TEST_F(ModelIoTest, LoadStoresFeaturesInLearnOrder) {
  // A file may list its features in any order. The engine keeps them in
  // the order it learns them, so a fold adds each feature's values to its
  // own statistics and a re-save writes the canonical file.
  Fixy original;
  ASSERT_TRUE(original.Learn(training_->dataset).ok());
  const std::string canonical = TempPath("fixy_model_canonical.json");
  const std::string swapped = TempPath("fixy_model_swapped.json");
  ASSERT_TRUE(original.SaveModel(canonical).ok());
  RewriteFeatures(canonical, swapped, [](json::Array& features) {
    ASSERT_EQ(features.at(0).GetString("feature").value(), "volume");
    ASSERT_EQ(features.at(1).GetString("feature").value(), "velocity");
    std::swap(features[0], features[1]);
  });

  Fixy from_canonical;
  Fixy from_swapped;
  ASSERT_TRUE(from_canonical.LoadModel(canonical).ok());
  ASSERT_TRUE(from_swapped.LoadModel(swapped).ok());
  const std::string resaved = TempPath("fixy_model_resaved.json");
  ASSERT_TRUE(from_swapped.SaveModel(resaved).ok());
  EXPECT_TRUE(ReadBytes(resaved) == ReadBytes(canonical));

  Dataset delta;
  delta.scenes.push_back(
      sim::GenerateScene(sim::LyftLikeProfile(), "delta", 717).scene);
  ASSERT_TRUE(from_canonical.LearnIncremental(delta).ok());
  ASSERT_TRUE(from_swapped.LearnIncremental(delta).ok());
  const std::string folded = TempPath("fixy_model_folded.json");
  ASSERT_TRUE(from_canonical.SaveModel(folded).ok());
  ASSERT_TRUE(from_swapped.SaveModel(resaved).ok());
  EXPECT_TRUE(ReadBytes(resaved) == ReadBytes(folded));
  for (const std::string& path : {canonical, swapped, resaved, folded}) {
    std::filesystem::remove(path);
  }
}

TEST_F(ModelIoTest, LoadRejectsDuplicateFeature) {
  Fixy original;
  ASSERT_TRUE(original.Learn(training_->dataset).ok());
  const std::string saved = TempPath("fixy_model_once.json");
  const std::string duplicated = TempPath("fixy_model_twice.json");
  ASSERT_TRUE(original.SaveModel(saved).ok());
  RewriteFeatures(saved, duplicated, [](json::Array& features) {
    const json::Value volume = features.at(0);
    features.insert(features.begin() + 1, volume);
  });

  Fixy restored;
  const Status status = restored.LoadModel(duplicated);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status;
  EXPECT_NE(status.message().find("volume"), std::string::npos) << status;
  EXPECT_FALSE(restored.is_learned());
  std::filesystem::remove(saved);
  std::filesystem::remove(duplicated);
}

TEST_F(ModelIoTest, FailedLoadKeepsLearnedState) {
  Fixy engine;
  ASSERT_TRUE(engine.Learn(training_->dataset).ok());
  const std::string before = TempPath("fixy_model_before.json");
  const std::string no_count = TempPath("fixy_model_no_count.json");
  const std::string after = TempPath("fixy_model_after.json");
  ASSERT_TRUE(engine.SaveModel(before).ok());
  RewriteFeatures(before, no_count, [](json::Array& features) {
    ASSERT_EQ(features.back().GetString("feature").value(), "count");
    features.pop_back();
  });

  EXPECT_EQ(engine.LoadModel(no_count).code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(engine.is_learned());
  EXPECT_EQ(engine.learned_features().size(), 2u);
  ASSERT_TRUE(engine.SaveModel(after).ok());
  EXPECT_TRUE(ReadBytes(after) == ReadBytes(before));
  for (const std::string& path : {before, no_count, after}) {
    std::filesystem::remove(path);
  }
}

// Regression: a KDE whose bandwidth has no finite normalization
// 1/(sqrt(2*pi) * h * n) used to abort the process in the KDE
// constructor. No file carries a bandwidth any more; the load computes
// Scott's rule from the reservoir, which overflows for items near
// +-1e300. Loading that is an InvalidArgument naming the feature, and the
// engine keeps the model it had.
TEST_F(ModelIoTest, LoadRejectsKdeBandwidthWithoutNormalization) {
  Fixy engine;
  ASSERT_TRUE(engine.Learn(training_->dataset).ok());
  const std::string before = TempPath("fixy_model_bw_before.json");
  const std::string huge = TempPath("fixy_model_bw_huge.json");
  const std::string after = TempPath("fixy_model_bw_after.json");
  ASSERT_TRUE(engine.SaveModel(before).ok());
  RewriteFeatures(before, huge, [](json::Array& features) {
    ASSERT_EQ(StatsOf(features, 0).at("estimator").AsString(), "kde");
    json::Array& items = FirstClassOf(features, 0).at("items").AsArray();
    ASSERT_GE(items.size(), 2u);
    items[0] = 1e300;
    items[1] = -1e300;
  });

  const Status status = engine.LoadModel(huge);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status;
  EXPECT_NE(status.message().find("'volume'"), std::string::npos) << status;
  EXPECT_TRUE(engine.is_learned());
  ASSERT_TRUE(engine.SaveModel(after).ok());
  EXPECT_TRUE(ReadBytes(after) == ReadBytes(before));
  for (const std::string& path : {before, huge, after}) {
    std::filesystem::remove(path);
  }
}

// Regression: one human box 1e100 m a side passes Scene::Validate and its
// volume (1e300) is finite, but the volume sample's standard deviation
// overflows, so the selected KDE bandwidth is infinite. Learn and
// LearnIncremental return InvalidArgument instead of aborting, and the
// failed fold leaves the engine's model as it was.
TEST_F(ModelIoTest, LearnRejectsSampleSpreadThatOverflows) {
  Dataset corrupt = training_->dataset;
  bool grown = false;
  for (Frame& frame : corrupt.scenes.front().frames()) {
    for (Observation& obs : frame.observations) {
      if (obs.source != ObservationSource::kHuman) continue;
      obs.box.length = obs.box.width = obs.box.height = 1e100;
      grown = true;
      break;
    }
    if (grown) break;
  }
  ASSERT_TRUE(grown);
  ASSERT_TRUE(corrupt.scenes.front().Validate().ok());
  Dataset delta;
  delta.scenes.push_back(corrupt.scenes.front());

  Fixy engine;
  ASSERT_TRUE(engine.Learn(training_->dataset).ok());
  const std::string before = TempPath("fixy_model_spread_before.json");
  const std::string after = TempPath("fixy_model_spread_after.json");
  ASSERT_TRUE(engine.SaveModel(before).ok());

  Status status = engine.Learn(corrupt);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status;
  ASSERT_TRUE(engine.SaveModel(after).ok());
  EXPECT_TRUE(ReadBytes(after) == ReadBytes(before));

  status = engine.LearnIncremental(delta);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status;
  ASSERT_TRUE(engine.SaveModel(after).ok());
  EXPECT_TRUE(ReadBytes(after) == ReadBytes(before));
  for (const std::string& path : {before, after}) {
    std::filesystem::remove(path);
  }
}

TEST_F(ModelIoTest, LoadRejectsUnknownFeature) {
  const auto doc = json::Parse(
      R"({"format":"fixy-model","version":1,"features":[
           {"feature":"warp","stats":{"estimator":"gaussian",
            "class_conditional":false,
            "global":{"n":5,"sum":5,"sum_sq":5}}}]})");
  ASSERT_TRUE(doc.ok());
  const auto loaded =
      LearnedModelWithStatsFromJson(*doc, FeatureRegistry::Standard());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST_F(ModelIoTest, LoadRejectsWrongFormat) {
  const auto doc = json::Parse(R"({"format":"other","version":1})");
  ASSERT_TRUE(doc.ok());
  EXPECT_FALSE(
      LearnedModelWithStatsFromJson(*doc, FeatureRegistry::Standard()).ok());
}

TEST_F(ModelIoTest, PerClassStructurePreserved) {
  Fixy original;
  ASSERT_TRUE(original.Learn(training_->dataset).ok());
  const std::string path = TempPath("fixy_model_per_class.json");
  ASSERT_TRUE(original.SaveModel(path).ok());
  const auto loaded =
      LoadLearnedModelWithStats(path, FeatureRegistry::Standard());
  std::filesystem::remove(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  // SaveModel lists the base features, then the count.
  ASSERT_EQ(loaded->distributions.size(),
            original.learned_features().size() + 1);
  ASSERT_EQ(loaded->stats.size(), loaded->distributions.size());
  for (size_t i = 0; i < original.learned_features().size(); ++i) {
    const auto& orig = original.learned_features()[i];
    const auto& rest = loaded->distributions[i];
    EXPECT_EQ(rest.feature().name(), orig.feature().name());
    EXPECT_TRUE(loaded->stats[i].class_conditional);
    EXPECT_EQ(rest.per_class_distributions().size(),
              orig.per_class_distributions().size());
  }
}

// A categorical's value counts claim 10^15 samples. A fit that expanded
// the multiset into one double per sample would need 8 PB and end the
// process with std::bad_alloc; the counts-based fit reads each distinct
// value once, so the model loads, folds a scene and ranks.
TEST_F(ModelIoTest, ForgedCountsLoadAndFold) {
  Fixy original;
  ASSERT_TRUE(original.Learn(training_->dataset).ok());
  const std::string saved = TempPath("fixy_model_counts.json");
  const std::string forged = TempPath("fixy_model_counts_forged.json");
  ASSERT_TRUE(original.SaveModel(saved).ok());
  RewriteFeatures(saved, forged, [](json::Array& features) {
    json::Object& counts = CountsOf(features);
    counts.at("total") = counts.at("total").AsDouble() + 1e15;
    json::Value& first = counts.at("counts").AsArray().at(0);
    first = first.AsDouble() + 1e15;
  });

  Fixy engine;
  ASSERT_TRUE(engine.LoadModel(forged).ok());
  Dataset delta;
  delta.scenes.push_back(
      sim::GenerateScene(sim::LyftLikeProfile(), "forged", 717).scene);
  ASSERT_TRUE(engine.LearnIncremental(delta).ok());
  EXPECT_TRUE(engine.Find(delta.scenes.front(), "model-errors").ok());
  std::filesystem::remove(saved);
  std::filesystem::remove(forged);
}

// One edit of a valid saved model's statistics, the feature it touches
// and the estimator of the model it edits.
struct StatsEdit {
  std::string name;
  std::string feature;
  EstimatorKind estimator;
  std::function<void(json::Array&)> edit;
};

std::vector<StatsEdit> MalformedStatistics() {
  std::vector<StatsEdit> cases;
  // Integers a cast could not hold, or that no stream could have: each
  // used to be a static_cast of the parsed double.
  for (const double bad : {-1.0, 2.5, 1e300}) {
    const std::string value = json::Write(json::Value(bad));
    cases.push_back({"n=" + value, "volume", EstimatorKind::kGaussian,
                     [bad](json::Array& f) { FirstClassOf(f, 0)["n"] = bad; }});
    for (const char* key : {"seen", "capacity", "seed"}) {
      cases.push_back({std::string(key) + "=" + value, "volume",
                       EstimatorKind::kKde, [bad, key](json::Array& f) {
                         FirstClassOf(f, 0)[key] = bad;
                       }});
    }
    cases.push_back({"count=" + value, "count", EstimatorKind::kKde,
                     [bad](json::Array& f) {
                       CountsOf(f).at("counts").AsArray().at(0) = bad;
                     }});
  }
  cases.push_back({"values and counts differ in length", "count",
                   EstimatorKind::kKde, [](json::Array& f) {
                     CountsOf(f).at("counts").AsArray().pop_back();
                   }});
  cases.push_back({"count below 1", "count", EstimatorKind::kKde,
                   [](json::Array& f) {
                     CountsOf(f).at("counts").AsArray().at(0) = 0;
                   }});
  cases.push_back({"duplicate value", "count", EstimatorKind::kKde,
                   [](json::Array& f) {
                     json::Array& values = CountsOf(f).at("values").AsArray();
                     values.at(1) = values.at(0);
                   }});
  cases.push_back({"total does not match", "count", EstimatorKind::kKde,
                   [](json::Array& f) {
                     json::Value& total = CountsOf(f).at("total");
                     total = total.AsDouble() + 1;
                   }});
  // Three counts of 2^63 - 1024 wrap a 64-bit sum to 2^63 - 3072, which
  // this total claims: only a checked sum tells them apart.
  cases.push_back({"count sum overflows", "count", EstimatorKind::kKde,
                   [](json::Array& f) {
                     json::Object& counts = CountsOf(f);
                     json::Array& values = counts.at("values").AsArray();
                     values.resize(3);
                     counts.at("counts") = json::Array(
                         3, json::Value(9223372036854774784.0));
                     counts.at("total") = 9223372036854772736.0;
                   }});
  cases.push_back({"reservoir holds too few items", "volume",
                   EstimatorKind::kKde, [](json::Array& f) {
                     FirstClassOf(f, 0).at("items").AsArray().pop_back();
                   }});
  cases.push_back({"non-number item", "volume", EstimatorKind::kKde,
                   [](json::Array& f) {
                     FirstClassOf(f, 0).at("items").AsArray().at(0) = "x";
                   }});
  cases.push_back({"unknown estimator", "volume", EstimatorKind::kKde,
                   [](json::Array& f) {
                     StatsOf(f, 0).at("estimator") = "warp";
                   }});
  cases.push_back({"unknown class", "volume", EstimatorKind::kKde,
                   [](json::Array& f) {
                     json::Object& per_class =
                         StatsOf(f, 0).at("per_class").AsObject();
                     per_class["spaceship"] = per_class.begin()->second;
                   }});
  cases.push_back({"empty per_class", "volume", EstimatorKind::kKde,
                   [](json::Array& f) {
                     StatsOf(f, 0).at("per_class") = json::Object{};
                   }});
  // Well-formed global statistics on a class-conditional feature: the
  // fold's shape check, not the reader, rejects them.
  cases.push_back({"class_conditional contradicts the feature", "volume",
                   EstimatorKind::kKde, [](json::Array& f) {
                     json::Object& stats = StatsOf(f, 0);
                     stats["global"] = json::Value(FirstClassOf(f, 0));
                     stats.erase("per_class");
                     stats.at("class_conditional") = false;
                   }});
  cases.push_back({"entry without stats", "count", EstimatorKind::kKde,
                   [](json::Array& f) {
                     f.back().AsObject().erase("stats");
                   }});
  return cases;
}

// Each edit makes the load an InvalidArgument that names the feature, and
// the engine keeps its model: the same bytes re-save.
TEST_F(ModelIoTest, LoadRejectsMalformedStatistics) {
  std::map<EstimatorKind, std::string> saved;
  std::map<EstimatorKind, std::unique_ptr<Fixy>> engines;
  for (const EstimatorKind estimator :
       {EstimatorKind::kKde, EstimatorKind::kGaussian}) {
    auto engine = std::make_unique<Fixy>(WithEstimator(estimator));
    ASSERT_TRUE(engine->Learn(training_->dataset).ok());
    const std::string path = TempPath(
        (std::string("fixy_model_table_") + EstimatorKindToString(estimator) +
         ".json")
            .c_str());
    ASSERT_TRUE(engine->SaveModel(path).ok());
    saved[estimator] = path;
    engines[estimator] = std::move(engine);
  }
  const std::string edited = TempPath("fixy_model_table_edited.json");
  const std::string after = TempPath("fixy_model_table_after.json");
  for (const StatsEdit& c : MalformedStatistics()) {
    SCOPED_TRACE(c.name);
    RewriteFeatures(saved.at(c.estimator), edited, c.edit);
    Fixy& engine = *engines.at(c.estimator);
    const Status status = engine.LoadModel(edited);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status;
    EXPECT_NE(status.message().find("'" + c.feature + "'"), std::string::npos)
        << status;
    ASSERT_TRUE(engine.SaveModel(after).ok());
    EXPECT_TRUE(ReadBytes(after) == ReadBytes(saved.at(c.estimator)));
  }
  for (const auto& [estimator, path] : saved) std::filesystem::remove(path);
  std::filesystem::remove(edited);
  std::filesystem::remove(after);
}

// ------------------------------------------------- Load re-fits exactly

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

// Fails unless `loaded` is `learned`, bit for bit, in every parameter a
// fit of `estimator` sets.
void ExpectSameCell(const stats::Distribution& learned,
                    const stats::Distribution& loaded,
                    EstimatorKind estimator) {
  switch (estimator) {
    case EstimatorKind::kKde: {
      const auto& a = dynamic_cast<const stats::GaussianKde&>(learned);
      const auto& b = dynamic_cast<const stats::GaussianKde&>(loaded);
      EXPECT_EQ(Bits(a.bandwidth()), Bits(b.bandwidth()));
      ASSERT_EQ(a.samples().size(), b.samples().size());
      for (size_t i = 0; i < a.samples().size(); ++i) {
        EXPECT_EQ(Bits(a.samples()[i]), Bits(b.samples()[i])) << i;
      }
      break;
    }
    case EstimatorKind::kHistogram: {
      const auto& a = dynamic_cast<const stats::HistogramDensity&>(learned);
      const auto& b = dynamic_cast<const stats::HistogramDensity&>(loaded);
      EXPECT_EQ(Bits(a.lower_bound()), Bits(b.lower_bound()));
      EXPECT_EQ(Bits(a.bin_width()), Bits(b.bin_width()));
      ASSERT_EQ(a.num_bins(), b.num_bins());
      for (int i = 0; i < a.num_bins(); ++i) {
        EXPECT_EQ(a.bin_count(i), b.bin_count(i)) << i;
      }
      break;
    }
    case EstimatorKind::kGaussian: {
      const auto& a = dynamic_cast<const stats::Gaussian&>(learned);
      const auto& b = dynamic_cast<const stats::Gaussian&>(loaded);
      EXPECT_EQ(Bits(a.mean()), Bits(b.mean()));
      EXPECT_EQ(Bits(a.stddev()), Bits(b.stddev()));
      break;
    }
    case EstimatorKind::kCategorical: {
      const auto& a = dynamic_cast<const stats::Categorical&>(learned);
      const auto& b = dynamic_cast<const stats::Categorical&>(loaded);
      ASSERT_EQ(a.mass().size(), b.mass().size());
      for (auto x = a.mass().begin(), y = b.mass().begin();
           x != a.mass().end(); ++x, ++y) {
        EXPECT_EQ(x->first, y->first);
        EXPECT_EQ(Bits(x->second), Bits(y->second)) << x->first;
      }
      break;
    }
  }
}

// A model file holds only statistics, so what a load gives back is a
// fresh fit of them: it must be the learned model, cell for cell, and
// re-save the same bytes.
class DistributionIoTest : public ModelIoTest {
 protected:
  static void ExpectLoadRefitsEveryCell(EstimatorKind estimator) {
    Fixy learned(WithEstimator(estimator));
    ASSERT_TRUE(learned.Learn(training_->dataset).ok());
    // ctest runs each test in its own process, in parallel: one file name
    // per estimator.
    const std::string name =
        std::string("fixy_model_refit_") + EstimatorKindToString(estimator);
    const std::string saved = TempPath((name + ".json").c_str());
    const std::string resaved = TempPath((name + "_resaved.json").c_str());
    ASSERT_TRUE(learned.SaveModel(saved).ok());
    Fixy loaded(WithEstimator(estimator));
    ASSERT_TRUE(loaded.LoadModel(saved).ok());

    const auto& want = learned.learned_features();
    const auto& got = loaded.learned_features();
    ASSERT_EQ(want.size(), got.size());
    for (size_t i = 0; i < want.size(); ++i) {
      SCOPED_TRACE(want[i].feature().name());
      ASSERT_EQ(want[i].per_class_distributions().size(),
                got[i].per_class_distributions().size());
      ASSERT_FALSE(want[i].per_class_distributions().empty());
      for (const auto& [cls, dist] : want[i].per_class_distributions()) {
        const auto it = got[i].per_class_distributions().find(cls);
        ASSERT_NE(it, got[i].per_class_distributions().end());
        ExpectSameCell(*dist, *it->second, estimator);
      }
    }
    ASSERT_TRUE(loaded.SaveModel(resaved).ok());
    EXPECT_TRUE(ReadBytes(resaved) == ReadBytes(saved));
    std::filesystem::remove(saved);
    std::filesystem::remove(resaved);
  }
};

TEST_F(DistributionIoTest, KdeRoundTrip) {
  ExpectLoadRefitsEveryCell(EstimatorKind::kKde);
}

TEST_F(DistributionIoTest, HistogramRoundTrip) {
  ExpectLoadRefitsEveryCell(EstimatorKind::kHistogram);
}

TEST_F(DistributionIoTest, GaussianRoundTrip) {
  ExpectLoadRefitsEveryCell(EstimatorKind::kGaussian);
}

TEST_F(DistributionIoTest, CategoricalRoundTrip) {
  ExpectLoadRefitsEveryCell(EstimatorKind::kCategorical);
}

// Value counts are JSON numbers of either sign; a categorical fitted from
// them puts mass on negative integers too.
TEST_F(DistributionIoTest, CategoricalAcceptsSignedIntegerKeys) {
  Fixy original;
  ASSERT_TRUE(original.Learn(training_->dataset).ok());
  const std::string saved = TempPath("fixy_model_signed.json");
  const std::string signed_path = TempPath("fixy_model_signed_edit.json");
  ASSERT_TRUE(original.SaveModel(saved).ok());
  RewriteFeatures(saved, signed_path, [](json::Array& features) {
    json::Array& values = CountsOf(features).at("values").AsArray();
    ASSERT_GT(values.front().AsDouble(), -2.0);
    values.front() = -2;
  });
  const auto loaded =
      LoadLearnedModelWithStats(signed_path, FeatureRegistry::Standard());
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  const stats::DistributionPtr& count =
      loaded->distributions.back().global_distribution();
  ASSERT_NE(count, nullptr);
  EXPECT_GT(count->Density(-2.0), 0.0);
  std::filesystem::remove(saved);
  std::filesystem::remove(signed_path);
}

}  // namespace
}  // namespace fixy
