// Tests for src/core/model_io: distribution serialization round-trips,
// learned-model persistence, the feature registry, and failure injection
// on malformed model documents.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>

#include "common/random.h"
#include "core/engine.h"
#include "core/features_std.h"
#include "core/model_io.h"
#include "sim/generate.h"
#include "stats/discrete.h"
#include "stats/gaussian.h"
#include "stats/histogram.h"
#include "stats/kde.h"
#include "stats/lambda_distribution.h"

namespace fixy {
namespace {

std::vector<double> Sample(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> xs;
  for (int i = 0; i < n; ++i) xs.push_back(rng.Normal(10.0, 2.0));
  return xs;
}

// Round-trips one distribution through JSON and checks densities match on
// a probe grid.
void ExpectRoundTrip(const stats::Distribution& original) {
  const auto doc = DistributionToJson(original);
  ASSERT_TRUE(doc.ok()) << doc.status();
  // Also through text, as the file path would.
  const auto reparsed = json::Parse(json::Write(*doc));
  ASSERT_TRUE(reparsed.ok());
  const auto loaded = DistributionFromJson(*reparsed);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  for (double x = -5.0; x <= 25.0; x += 0.37) {
    EXPECT_NEAR((*loaded)->Density(x), original.Density(x), 1e-12) << x;
  }
  EXPECT_NEAR((*loaded)->ModeDensity(), original.ModeDensity(), 1e-12);
}

TEST(DistributionIoTest, KdeRoundTrip) {
  ExpectRoundTrip(stats::GaussianKde::Fit(Sample(200, 1)).value());
}

TEST(DistributionIoTest, HistogramRoundTrip) {
  ExpectRoundTrip(stats::HistogramDensity::Fit(Sample(500, 2), 24).value());
}

TEST(DistributionIoTest, GaussianRoundTrip) {
  ExpectRoundTrip(stats::Gaussian::Create(3.5, 0.75).value());
}

TEST(DistributionIoTest, BernoulliRoundTrip) {
  ExpectRoundTrip(stats::Bernoulli::Create(0.37).value());
}

TEST(DistributionIoTest, CategoricalRoundTrip) {
  ExpectRoundTrip(
      stats::Categorical::Fit({1, 1, 2, 3, 3, 3, 7, 7, 120}).value());
}

TEST(DistributionIoTest, LambdaIsNotSerializable) {
  const stats::LambdaDistribution manual("manual", [](double) { return 1.0; });
  const auto doc = DistributionToJson(manual);
  ASSERT_FALSE(doc.ok());
  EXPECT_EQ(doc.status().code(), StatusCode::kUnimplemented);
}

class DistributionIoErrorTest : public ::testing::TestWithParam<const char*> {
};

TEST_P(DistributionIoErrorTest, RejectsMalformed) {
  const auto doc = json::Parse(GetParam());
  ASSERT_TRUE(doc.ok()) << "test input must be valid JSON";
  EXPECT_FALSE(DistributionFromJson(*doc).ok()) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    Malformed, DistributionIoErrorTest,
    ::testing::Values(
        R"({})",                                        // no type
        R"({"type":"warp"})",                           // unknown type
        R"({"type":"kde"})",                            // missing fields
        R"({"type":"kde","bandwidth":-1,"samples":[1]})",
        R"({"type":"kde","bandwidth":0,"samples":[1]})",
        R"({"type":"kde","bandwidth":1e-320,"samples":[1]})",  // denormal
        R"({"type":"kde","bandwidth":0.5,"samples":[]})",
        R"({"type":"kde","bandwidth":0.5,"samples":["x"]})",
        R"({"type":"histogram","lo":0,"bin_width":0,"counts":[1]})",
        R"({"type":"histogram","lo":0,"bin_width":1,"counts":[]})",
        R"({"type":"histogram","lo":0,"bin_width":1,"counts":[-3]})",
        R"({"type":"gaussian","mean":0,"stddev":0})",
        R"({"type":"bernoulli","p_one":1.5})",
        R"({"type":"categorical","mass":{}})",
        R"({"type":"categorical","mass":{"a":1.0}})",
        R"({"type":"categorical","mass":{"1":0.4}})",   // does not sum to 1
        R"({"type":"categorical","mass":{"":1.0}})",    // empty key
        R"({"type":"categorical","mass":{"12x":1.0}})",  // trailing garbage
        R"({"type":"categorical","mass":{"1.5":1.0}})",  // not an integer
        // Out of range for long: must be rejected, not clamped to
        // LONG_MAX/LONG_MIN (which would silently merge distinct keys).
        R"({"type":"categorical","mass":{"99999999999999999999999999":1.0}})",
        R"({"type":"categorical","mass":{"-99999999999999999999999999":1.0}})",
        "[1,2,3]"));

TEST(DistributionIoTest, CategoricalAcceptsSignedIntegerKeys) {
  const auto doc = json::Parse(
      R"({"type":"categorical","mass":{"-2":0.5,"7":0.5}})");
  ASSERT_TRUE(doc.ok());
  const auto dist = DistributionFromJson(*doc);
  ASSERT_TRUE(dist.ok()) << dist.status();
  EXPECT_GT((*dist)->Density(-2.0), 0.0);
  EXPECT_GT((*dist)->Density(7.0), 0.0);
}

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

  const auto scene = sim::GenerateScene(sim::LyftLikeProfile(), "val", 616);
  const auto a = original.Find(scene.scene, "missing-tracks").value();
  const auto b = restored.Find(scene.scene, "missing-tracks").value();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].track_id, b[i].track_id);
    EXPECT_NEAR(a[i].score, b[i].score, 1e-9);
  }
  // The model-error application (which uses the learned count
  // distribution) survives too.
  const auto me_a = original.Find(scene.scene, "model-errors").value();
  const auto me_b = restored.Find(scene.scene, "model-errors").value();
  ASSERT_EQ(me_a.size(), me_b.size());
  for (size_t i = 0; i < me_a.size(); ++i) {
    EXPECT_NEAR(me_a[i].score, me_b[i].score, 1e-9);
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
  // A model document without the count distribution is rejected by the
  // engine (the model-errors application needs it).
  Fixy original;
  ASSERT_TRUE(original.Learn(training_->dataset).ok());
  const auto doc = LearnedModelToJson(original.learned_features(), {});
  ASSERT_TRUE(doc.ok());
  const std::string path = TempPath("fixy_model_nocount.json");
  {
    std::ofstream out(path);
    out << json::Write(*doc);
  }
  Fixy restored;
  EXPECT_FALSE(restored.LoadModel(path).ok());
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

// Sets "bandwidth" on the first {"type": "kde"} object found depth-first.
bool SetFirstKdeBandwidth(json::Value& value, double bandwidth) {
  if (value.is_object()) {
    json::Object& obj = value.AsObject();
    const auto type = obj.find("type");
    if (type != obj.end() && type->second.is_string() &&
        type->second.AsString() == "kde") {
      obj["bandwidth"] = bandwidth;
      return true;
    }
    for (auto& [key, child] : obj) {
      if (SetFirstKdeBandwidth(child, bandwidth)) return true;
    }
  } else if (value.is_array()) {
    for (json::Value& child : value.AsArray()) {
      if (SetFirstKdeBandwidth(child, bandwidth)) return true;
    }
  }
  return false;
}

// Regression: a KDE bandwidth of 1e308 passes the finite/minimum check, but
// its normalization 1/(sqrt(2*pi) * h * n) underflows to 0, which used to
// abort the process in the KDE constructor. Loading it is an
// InvalidArgument, and the engine keeps the model it had.
TEST_F(ModelIoTest, LoadRejectsKdeBandwidthWithoutNormalization) {
  Fixy engine;
  ASSERT_TRUE(engine.Learn(training_->dataset).ok());
  const std::string before = TempPath("fixy_model_bw_before.json");
  const std::string huge = TempPath("fixy_model_bw_huge.json");
  const std::string after = TempPath("fixy_model_bw_after.json");
  ASSERT_TRUE(engine.SaveModel(before).ok());
  RewriteFeatures(before, huge, [](json::Array& features) {
    bool set = false;
    for (json::Value& feature : features) {
      if (SetFirstKdeBandwidth(feature, 1e308)) {
        set = true;
        break;
      }
    }
    ASSERT_TRUE(set);
  });

  const Status status = engine.LoadModel(huge);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status;
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
           {"feature":"warp","distribution":{"type":"gaussian","mean":0,"stddev":1}}]})");
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
  const auto doc = LearnedModelToJson(original.learned_features(), {});
  ASSERT_TRUE(doc.ok());
  const auto loaded =
      LearnedModelWithStatsFromJson(*doc, FeatureRegistry::Standard());
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_FALSE(loaded->has_stats());
  ASSERT_EQ(loaded->distributions.size(), original.learned_features().size());
  for (size_t i = 0; i < loaded->distributions.size(); ++i) {
    const auto& orig = original.learned_features()[i];
    const auto& rest = loaded->distributions[i];
    EXPECT_EQ(rest.feature().name(), orig.feature().name());
    EXPECT_EQ(rest.per_class_distributions().size(),
              orig.per_class_distributions().size());
  }
}

}  // namespace
}  // namespace fixy
