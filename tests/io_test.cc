// Tests for src/io: scene/dataset serialization round-trips, failure
// injection on malformed documents and filesystem errors, and the JSON
// scene source under the streaming ranker (an unreadable scene file is
// quarantined like a scene that fails to rank).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/proposal_io.h"
#include "io/fxb.h"
#include "io/scene_io.h"
#include "json/json.h"
#include "sim/generate.h"

namespace fixy::io {
namespace {

Observation MakeObs(ObservationId id, ObservationSource source, double x,
                    double confidence = 1.0) {
  Observation obs;
  obs.id = id;
  obs.source = source;
  obs.object_class = ObjectClass::kTruck;
  obs.box = geom::Box3d({x, -2.5, 1.6}, 8.1, 2.8, 3.2, 0.31);
  obs.confidence = confidence;
  return obs;
}

Scene MakeScene(const std::string& name = "scene_a") {
  Scene scene(name, 5.0);
  ObservationId id = 1;
  for (int f = 0; f < 4; ++f) {
    Frame frame;
    frame.index = f;
    frame.timestamp = f / 5.0;
    frame.ego_position = {1.6 * f, 0.25};
    frame.ego_yaw = 0.01 * f;
    frame.observations.push_back(MakeObs(id++, ObservationSource::kHuman,
                                         12.0 + f));
    frame.observations.push_back(
        MakeObs(id++, ObservationSource::kModel, 12.1 + f, 0.87));
    scene.AddFrame(std::move(frame));
  }
  return scene;
}

std::string TempDir() {
  static int counter = 0;
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("fixy_io_test_" + std::to_string(::getpid()) + "_" +
        std::to_string(counter++)))
          .string();
  std::filesystem::create_directories(dir);
  return dir;
}

TEST(SceneIoTest, StringRoundTripPreservesEverything) {
  const Scene original = MakeScene();
  const auto loaded = SceneFromString(SceneToString(original));
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->name(), original.name());
  EXPECT_DOUBLE_EQ(loaded->frame_rate_hz(), original.frame_rate_hz());
  ASSERT_EQ(loaded->frame_count(), original.frame_count());
  for (size_t f = 0; f < original.frame_count(); ++f) {
    const Frame& a = original.frames()[f];
    const Frame& b = loaded->frames()[f];
    EXPECT_EQ(a.index, b.index);
    EXPECT_DOUBLE_EQ(a.timestamp, b.timestamp);
    EXPECT_DOUBLE_EQ(a.ego_position.x, b.ego_position.x);
    EXPECT_DOUBLE_EQ(a.ego_yaw, b.ego_yaw);
    ASSERT_EQ(a.observations.size(), b.observations.size());
    for (size_t o = 0; o < a.observations.size(); ++o) {
      const Observation& oa = a.observations[o];
      const Observation& ob = b.observations[o];
      EXPECT_EQ(oa.id, ob.id);
      EXPECT_EQ(oa.source, ob.source);
      EXPECT_EQ(oa.object_class, ob.object_class);
      EXPECT_DOUBLE_EQ(oa.box.center.x, ob.box.center.x);
      EXPECT_DOUBLE_EQ(oa.box.yaw, ob.box.yaw);
      EXPECT_DOUBLE_EQ(oa.confidence, ob.confidence);
    }
  }
}

TEST(SceneIoTest, PrettyOutputAlsoParses) {
  const Scene original = MakeScene();
  const auto loaded = SceneFromString(SceneToString(original, true));
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->TotalObservations(), original.TotalObservations());
}

TEST(SceneIoTest, EmptySceneRoundTrips) {
  const Scene empty("empty", 10.0);
  const auto loaded = SceneFromString(SceneToString(empty));
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->frame_count(), 0u);
}

TEST(SceneIoTest, FileRoundTrip) {
  const std::string dir = TempDir();
  const Scene original = MakeScene();
  ASSERT_TRUE(SaveScene(original, dir + "/s.fixy.json").ok());
  const auto loaded = LoadScene(dir + "/s.fixy.json");
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->TotalObservations(), original.TotalObservations());
  std::filesystem::remove_all(dir);
}

TEST(SceneIoTest, LoadMissingFileFails) {
  const auto loaded = LoadScene("/nonexistent/path/file.json");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

TEST(SceneIoTest, RejectsWrongFormatMarker) {
  const auto loaded = SceneFromString(
      R"({"format":"other","version":1,"name":"x","frame_rate_hz":10,"frames":[]})");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST(SceneIoTest, RejectsWrongVersion) {
  const auto loaded = SceneFromString(
      R"({"format":"fixy-scene","version":99,"name":"x","frame_rate_hz":10,"frames":[]})");
  EXPECT_FALSE(loaded.ok());
}

TEST(SceneIoTest, RejectsMissingFields) {
  EXPECT_FALSE(SceneFromString(R"({"format":"fixy-scene","version":1})").ok());
  EXPECT_FALSE(SceneFromString("[]").ok());
  EXPECT_FALSE(SceneFromString("not json at all").ok());
}

TEST(SceneIoTest, RejectsUnknownEnumValues) {
  Scene scene = MakeScene();
  std::string text = SceneToString(scene);
  // Corrupt the source enum.
  const size_t pos = text.find("\"human\"");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 7, "\"alien\"");
  EXPECT_FALSE(SceneFromString(text).ok());
}

TEST(SceneIoTest, RejectsInconsistentScene) {
  // Two observations sharing an id fail Scene::Validate on load.
  Scene scene = MakeScene();
  std::string text = SceneToString(scene);
  text.replace(text.find("\"id\":2"), 6, "\"id\":1");
  const auto loaded = SceneFromString(text);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kFailedPrecondition);
}

TEST(DatasetIoTest, SaveAndLoadDataset) {
  const std::string dir = TempDir();
  Dataset dataset;
  dataset.name = "mini";
  dataset.scenes.push_back(MakeScene("scene_a"));
  dataset.scenes.push_back(MakeScene("scene_b"));
  ASSERT_TRUE(SaveDataset(dataset, dir).ok());
  const auto loaded = LoadDataset(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->name, "mini");
  ASSERT_EQ(loaded->scenes.size(), 2u);
  EXPECT_EQ(loaded->scenes[0].name(), "scene_a");
  EXPECT_EQ(loaded->scenes[1].name(), "scene_b");
  std::filesystem::remove_all(dir);
}

TEST(DatasetIoTest, RejectsUnnamedScene) {
  const std::string dir = TempDir();
  Dataset dataset;
  dataset.scenes.push_back(MakeScene(""));
  EXPECT_FALSE(SaveDataset(dataset, dir).ok());
  std::filesystem::remove_all(dir);
}

TEST(DatasetIoTest, LoadMissingManifestFails) {
  const std::string dir = TempDir();
  EXPECT_FALSE(LoadDataset(dir).ok());
  std::filesystem::remove_all(dir);
}

TEST(DatasetIoTest, LoadCorruptManifestFails) {
  const std::string dir = TempDir();
  std::ofstream(dir + "/manifest.json") << "{broken";
  EXPECT_FALSE(LoadDataset(dir).ok());
  std::filesystem::remove_all(dir);
}

TEST(DatasetIoTest, LoadManifestReferencingMissingSceneFails) {
  const std::string dir = TempDir();
  std::ofstream(dir + "/manifest.json")
      << R"({"format":"fixy-dataset","version":1,"name":"x","scenes":["gone.json"]})";
  const auto loaded = LoadDataset(dir);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
  std::filesystem::remove_all(dir);
}

// Three short simulated scenes named scene_a, scene_b and scene_c.
Dataset SimulatedDataset(const std::string& name, uint64_t seed) {
  sim::SimProfile profile = sim::LyftLikeProfile();
  profile.world.duration_seconds = 2.0;
  profile.world.mean_object_count = 6.0;
  Dataset dataset = sim::GenerateDataset(profile, name, 3, seed).dataset;
  const char* const names[] = {"scene_a", "scene_b", "scene_c"};
  for (size_t i = 0; i < dataset.scenes.size(); ++i) {
    dataset.scenes[i].set_name(names[i]);
  }
  return dataset;
}

// An engine learned from a simulated dataset, shared by the tests below.
const Fixy& LearnedEngine() {
  static const Fixy* const engine = [] {
    auto* fixy = new Fixy();
    EXPECT_TRUE(fixy->Learn(SimulatedDataset("train", 41)).ok());
    return fixy;
  }();
  return *engine;
}

// Streams `source` through RankDatasetStreaming for every registered
// application on `threads` workers, quarantining failures.
MultiAppReport RankAll(const SceneSource& source, int threads) {
  const Fixy& fixy = LearnedEngine();
  BatchOptions batch;
  batch.num_threads = threads;
  Result<MultiAppReport> report =
      fixy.RankDatasetStreaming(source, fixy.applications().names(), batch);
  EXPECT_TRUE(report.ok()) << report.status();
  return report.ok() ? std::move(report).value() : MultiAppReport{};
}

std::string ProposalBytes(const SceneOutcome& outcome) {
  return json::Write(ProposalsToJson(outcome.proposals), /*pretty=*/true);
}

// Saves `dataset`, then corrupts scene_b's file on disk.
std::string SaveWithCorruptSceneB(const Dataset& dataset) {
  const std::string dir = TempDir();
  EXPECT_TRUE(SaveDataset(dataset, dir).ok());
  std::ofstream(dir + "/scene_b.fixy.json") << "{definitely not a scene";
  return dir;
}

TEST(DatasetIoTest, StrictLoadFailsOnCorruptSceneFile) {
  const std::string dir =
      SaveWithCorruptSceneB(SimulatedDataset("partial", 43));
  EXPECT_FALSE(LoadDataset(dir).ok());
  std::filesystem::remove_all(dir);
}

TEST(DatasetIoTest, DirectorySourceStreamingQuarantinesCorruptScene) {
  const Dataset dataset = SimulatedDataset("partial", 43);
  const MultiAppReport clean = RankAll(DatasetSceneSource(dataset), 1);
  size_t clean_proposals = 0;
  for (const BatchReport& app : clean.reports) {
    for (const SceneOutcome& outcome : app.outcomes) {
      clean_proposals += outcome.proposals.size();
    }
  }
  ASSERT_GT(clean_proposals, 0u) << "the neighbour comparison would be vacuous";
  const std::string dir = SaveWithCorruptSceneB(dataset);
  auto source = DirectorySceneSource::Open(dir);
  ASSERT_TRUE(source.ok()) << source.status();
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const MultiAppReport report = RankAll(*source, threads);
    ASSERT_EQ(report.reports.size(), clean.reports.size());
    for (size_t a = 0; a < report.reports.size(); ++a) {
      const BatchReport& app = report.reports[a];
      ASSERT_EQ(app.outcomes.size(), 3u);
      EXPECT_EQ(app.scenes_quarantined, 1u);
      EXPECT_EQ(app.outcomes[1].scene_name, "scene_b");
      EXPECT_FALSE(app.outcomes[1].ok());
      for (const size_t s : {size_t{0}, size_t{2}}) {
        ASSERT_TRUE(app.outcomes[s].ok()) << app.outcomes[s].status;
        EXPECT_EQ(ProposalBytes(app.outcomes[s]),
                  ProposalBytes(clean.reports[a].outcomes[s]))
            << report.apps[a] << " scene " << s;
      }
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(DatasetIoTest, DirectorySourceStreamingQuarantinesVanishedSceneFile) {
  const std::string dir = TempDir();
  Dataset dataset = SimulatedDataset("gone", 47);
  dataset.scenes.resize(1);
  ASSERT_TRUE(SaveDataset(dataset, dir).ok());
  // Manifest lists a file that does not exist on disk.
  std::ofstream(dir + "/manifest.json")
      << R"({"format":"fixy-dataset","version":1,"name":"gone",)"
      << R"("scenes":["scene_a.fixy.json","vanished.fixy.json"]})";
  auto source = DirectorySceneSource::Open(dir);
  ASSERT_TRUE(source.ok()) << source.status();
  const MultiAppReport report = RankAll(*source, 2);
  for (const BatchReport& app : report.reports) {
    ASSERT_EQ(app.outcomes.size(), 2u);
    EXPECT_TRUE(app.outcomes[0].ok()) << app.outcomes[0].status;
    EXPECT_EQ(app.outcomes[1].scene_name, "vanished");
    EXPECT_EQ(app.outcomes[1].status.code(), StatusCode::kIoError);
    EXPECT_EQ(app.scenes_quarantined, 1u);
  }
  std::filesystem::remove_all(dir);
}

TEST(DatasetIoTest, DirectorySourceStreamingRejectsBrokenManifest) {
  const std::string dir = TempDir();
  std::ofstream(dir + "/manifest.json") << "{broken";
  EXPECT_FALSE(DirectorySceneSource::Open(dir).ok());
  std::filesystem::remove_all(dir);
}

TEST(DatasetIoTest, DirectorySourceStreamingOnCleanDatasetQuarantinesNothing) {
  const Dataset dataset = SimulatedDataset("clean", 53);
  const MultiAppReport in_memory = RankAll(DatasetSceneSource(dataset), 1);
  const std::string dir = TempDir();
  ASSERT_TRUE(SaveDataset(dataset, dir).ok());
  auto source = DirectorySceneSource::Open(dir);
  ASSERT_TRUE(source.ok()) << source.status();
  const MultiAppReport report = RankAll(*source, 4);
  ASSERT_EQ(report.reports.size(), in_memory.reports.size());
  for (size_t a = 0; a < report.reports.size(); ++a) {
    const BatchReport& app = report.reports[a];
    EXPECT_EQ(app.scenes_ok, 3u);
    EXPECT_EQ(app.scenes_quarantined, 0u);
    for (size_t s = 0; s < app.outcomes.size(); ++s) {
      EXPECT_EQ(ProposalBytes(app.outcomes[s]),
                ProposalBytes(in_memory.reports[a].outcomes[s]))
          << report.apps[a] << " scene " << s;
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(SceneIoTest, SerializationIsDeterministic) {
  const Scene scene = MakeScene();
  EXPECT_EQ(SceneToString(scene), SceneToString(scene));
}

TEST(SceneIoTest, BitIdenticalSeesEveryField) {
  const Scene base = MakeScene();
  EXPECT_TRUE(BitIdentical(base, MakeScene()));

  const auto up = [](double& v) { v = std::nextafter(v, 1e300); };
  const auto negate_zero = [](double& v) {
    ASSERT_EQ(std::signbit(v), false);
    ASSERT_EQ(v, 0.0);
    v = -0.0;
  };
  // Frame 1's model observation; frame 0 holds the +0.0 fields.
  const auto obs = [](Scene& s) -> Observation& {
    return s.frames()[1].observations[1];
  };
  const auto box = [&](Scene& s) -> geom::Box3d& { return obs(s).box; };
  struct Edit {
    std::string what;
    std::function<void(Scene&)> apply;
  };
  const std::vector<Edit> edits = {
      {"scene name", [](Scene& s) { s.set_name("scene_b"); }},
      {"frame rate ulp",
       [&](Scene& s) {
         double hz = s.frame_rate_hz();
         up(hz);
         s.set_frame_rate_hz(hz);
       }},
      {"frame count", [](Scene& s) { s.frames().pop_back(); }},
      {"frame index", [](Scene& s) { s.frames()[2].index = 7; }},
      {"frame timestamp ulp", [&](Scene& s) { up(s.frames()[2].timestamp); }},
      {"frame timestamp -0.0",
       [&](Scene& s) { negate_zero(s.frames()[0].timestamp); }},
      {"ego x ulp", [&](Scene& s) { up(s.frames()[2].ego_position.x); }},
      {"ego x -0.0",
       [&](Scene& s) { negate_zero(s.frames()[0].ego_position.x); }},
      {"ego y ulp", [&](Scene& s) { up(s.frames()[2].ego_position.y); }},
      {"ego yaw ulp", [&](Scene& s) { up(s.frames()[2].ego_yaw); }},
      {"ego yaw -0.0", [&](Scene& s) { negate_zero(s.frames()[0].ego_yaw); }},
      {"observation count",
       [](Scene& s) { s.frames()[1].observations.pop_back(); }},
      {"observation id", [&](Scene& s) { obs(s).id = 99; }},
      {"observation source",
       [&](Scene& s) { obs(s).source = ObservationSource::kAuditor; }},
      {"observation class",
       [&](Scene& s) { obs(s).object_class = ObjectClass::kPedestrian; }},
      {"confidence ulp", [&](Scene& s) { up(obs(s).confidence); }},
      {"box cx ulp", [&](Scene& s) { up(box(s).center.x); }},
      {"box cy ulp", [&](Scene& s) { up(box(s).center.y); }},
      {"box cz ulp", [&](Scene& s) { up(box(s).center.z); }},
      {"box length ulp", [&](Scene& s) { up(box(s).length); }},
      {"box width ulp", [&](Scene& s) { up(box(s).width); }},
      {"box height ulp", [&](Scene& s) { up(box(s).height); }},
      {"box yaw ulp", [&](Scene& s) { up(box(s).yaw); }},
  };
  for (const Edit& edit : edits) {
    Scene changed = MakeScene();
    edit.apply(changed);
    EXPECT_FALSE(BitIdentical(base, changed)) << edit.what;
    EXPECT_FALSE(BitIdentical(changed, base)) << edit.what;
    // The JSON text carries every field the comparator reads, so it sees
    // each change too.
    EXPECT_NE(SceneToString(base), SceneToString(changed)) << edit.what;
  }
}

}  // namespace
}  // namespace fixy::io
