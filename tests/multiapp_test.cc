// Tests for the multi-application pipeline: the ApplicationRegistry, the
// shared-ScenePass invariants (association once per scene, model view
// identical to a filtered-scene build), multi-vs-solo byte-identity for
// the batch and streaming APIs at every thread count, a user-defined
// application ranked end-to-end through FixyOptions::extra_applications,
// the pass's per-view caches (same bits as standalone caches), and one
// fixed-seed ranking pinned by the CRC-32s of its saved worklists.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/crc32.h"
#include "core/applications.h"
#include "core/engine.h"
#include "core/model_io.h"
#include "core/proposal_io.h"
#include "core/scene_pass.h"
#include "data/scene_source.h"
#include "dsl/aof.h"
#include "dsl/track_builder.h"
#include "graph/factor_graph.h"
#include "obs/metrics.h"
#include "scenario/materialize.h"
#include "scenario/presets.h"
#include "sim/generate.h"
#include "stats/simd.h"

namespace fixy {
namespace {

// Field-exact equality: the determinism contract is byte-identical
// output, so scores compare with ==, not a tolerance.
void ExpectProposalsIdentical(const std::vector<ErrorProposal>& a,
                              const std::vector<ErrorProposal>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].scene_name, b[i].scene_name) << "proposal " << i;
    EXPECT_EQ(a[i].kind, b[i].kind) << "proposal " << i;
    EXPECT_EQ(a[i].track_id, b[i].track_id) << "proposal " << i;
    EXPECT_EQ(a[i].frame_index, b[i].frame_index) << "proposal " << i;
    EXPECT_EQ(a[i].object_class, b[i].object_class) << "proposal " << i;
    EXPECT_EQ(a[i].score, b[i].score) << "proposal " << i;
    EXPECT_EQ(a[i].model_confidence, b[i].model_confidence)
        << "proposal " << i;
    EXPECT_EQ(a[i].first_frame, b[i].first_frame) << "proposal " << i;
    EXPECT_EQ(a[i].last_frame, b[i].last_frame) << "proposal " << i;
  }
}

void ExpectReportsIdentical(const BatchReport& a, const BatchReport& b) {
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  EXPECT_EQ(a.scenes_ok, b.scenes_ok);
  EXPECT_EQ(a.scenes_failed, b.scenes_failed);
  for (size_t i = 0; i < a.outcomes.size(); ++i) {
    EXPECT_EQ(a.outcomes[i].scene_name, b.outcomes[i].scene_name);
    EXPECT_EQ(a.outcomes[i].ok(), b.outcomes[i].ok());
    ExpectProposalsIdentical(a.outcomes[i].proposals,
                             b.outcomes[i].proposals);
  }
}

// A user-defined application, as an extension would write it: ranks
// human-labeled tracks by inverted likelihood under the base learned
// distributions.
AppSpec TestUserApp(const std::string& name = "test-user-app") {
  AppSpec app;
  app.name = name;
  app.view = SceneView::kFull;
  app.build_spec = [](const LearnedState& learned,
                      const ApplicationOptions&) {
    LoaSpec spec;
    for (const FeatureDistribution& fd : learned.base) {
      spec.feature_distributions.push_back(fd.WithAof(MakeInvertAof()));
    }
    return spec;
  };
  app.extract = [](const AppContext& ctx) {
    std::vector<ErrorProposal> proposals;
    const TrackSet& tracks = ctx.graph.tracks();
    for (size_t t = 0; t < tracks.tracks.size(); ++t) {
      const Track& track = tracks.tracks[t];
      if (!track.HasSource(ObservationSource::kHuman)) continue;
      const std::optional<double> score =
          ctx.graph.ScoreTrack(t, ctx.options.normalize_scores);
      if (!score.has_value()) continue;
      ErrorProposal proposal;
      proposal.scene_name = ctx.scene.name();
      proposal.kind = ProposalKind::kModelError;
      proposal.track_id = track.id();
      proposal.score = *score;
      proposal.first_frame = track.FirstFrame();
      proposal.last_frame = track.LastFrame();
      proposals.push_back(std::move(proposal));
    }
    return proposals;
  };
  return app;
}

const std::vector<std::string> kStandardApps = {
    "missing-tracks", "missing-obs", "model-errors"};

class MultiAppTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    profile_ = new sim::SimProfile(sim::LyftLikeProfile());
    dataset_ = new sim::GeneratedDataset(
        sim::GenerateDataset(*profile_, "multiapp", 8, 91));
    FixyOptions options;
    options.extra_applications.push_back(TestUserApp());
    fixy_ = new Fixy(std::move(options));
    const sim::GeneratedDataset training =
        sim::GenerateDataset(*profile_, "multiapp_train", 4, 92);
    ASSERT_TRUE(fixy_->Learn(training.dataset).ok());
  }

  static void TearDownTestSuite() {
    delete fixy_;
    delete dataset_;
    delete profile_;
    fixy_ = nullptr;
    dataset_ = nullptr;
    profile_ = nullptr;
  }

  static sim::SimProfile* profile_;
  static sim::GeneratedDataset* dataset_;
  static Fixy* fixy_;
};

sim::SimProfile* MultiAppTest::profile_ = nullptr;
sim::GeneratedDataset* MultiAppTest::dataset_ = nullptr;
Fixy* MultiAppTest::fixy_ = nullptr;

// ---- Registry. ----

TEST(RegistryTest, StandardHoldsThePaperApplications) {
  const ApplicationRegistry registry = ApplicationRegistry::Standard();
  EXPECT_EQ(registry.names(), kStandardApps);
  for (const std::string& name : kStandardApps) {
    ASSERT_NE(registry.Find(name), nullptr);
    EXPECT_EQ(registry.Find(name)->name, name);
  }
  EXPECT_EQ(registry.Find("nope"), nullptr);
}

TEST(RegistryTest, RejectsDuplicateAndInvalidRegistrations) {
  ApplicationRegistry registry = ApplicationRegistry::Standard();
  EXPECT_EQ(registry.Register(TestUserApp("missing-tracks")).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(registry.Register(TestUserApp("")).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(registry.Register(TestUserApp("has space")).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(registry.Register(TestUserApp("has,comma")).code(),
            StatusCode::kInvalidArgument);
  AppSpec no_strategies = TestUserApp("no-strategies");
  no_strategies.extract = nullptr;
  EXPECT_EQ(registry.Register(std::move(no_strategies)).code(),
            StatusCode::kInvalidArgument);
  // Nothing above mutated the table.
  EXPECT_EQ(registry.names(), kStandardApps);
  EXPECT_TRUE(registry.Register(TestUserApp("ok-app")).ok());
  ASSERT_NE(registry.Find("ok-app"), nullptr);
}

TEST(RegistryTest, ResolveMapsNamesAndReportsErrors) {
  const ApplicationRegistry registry = ApplicationRegistry::Standard();
  const auto indices =
      registry.Resolve({"model-errors", "missing-tracks"});
  ASSERT_TRUE(indices.ok());
  EXPECT_EQ(*indices, (std::vector<size_t>{2, 0}));

  EXPECT_EQ(registry.Resolve({}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(registry.Resolve({"missing-tracks", "missing-tracks"})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  const auto unknown = registry.Resolve({"frobnicate"});
  ASSERT_FALSE(unknown.ok());
  // The message lists the registered names — the CLI surfaces it verbatim.
  EXPECT_NE(unknown.status().message().find("frobnicate"),
            std::string::npos);
  EXPECT_NE(unknown.status().message().find("missing-tracks"),
            std::string::npos);
}

TEST(RegistryTest, EngineSurfacesRegistrationErrors) {
  const sim::SimProfile profile = sim::LyftLikeProfile();
  const sim::GeneratedDataset data =
      sim::GenerateDataset(profile, "regerr", 1, 93);
  FixyOptions options;
  options.extra_applications.push_back(TestUserApp("missing-tracks"));
  Fixy fixy(std::move(options));
  ASSERT_TRUE(fixy.Learn(data.dataset).ok());
  const auto result = fixy.RankDataset(data.dataset, {"missing-tracks"});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kAlreadyExists);
}

// ---- Shared association views. ----

// The model-only view of one shared association pass must be
// byte-identical to a plain Build over a copy of the scene filtered to
// model observations (the invariant the model-error application's
// correctness rests on).
TEST_F(MultiAppTest, ModelViewMatchesFilteredSceneBuild) {
  const TrackBuilder builder;
  for (const Scene& scene : dataset_->dataset.scenes) {
    const auto views = builder.BuildViews(scene, /*need_full=*/true,
                                          /*need_model_only=*/true);
    ASSERT_TRUE(views.ok()) << scene.name();
    const auto filtered =
        builder.Build(FilterToSource(scene, ObservationSource::kModel));
    ASSERT_TRUE(filtered.ok()) << scene.name();
    const TrackSet& a = views->view(SceneView::kModelOnly);
    const TrackSet& b = *filtered;
    ASSERT_EQ(a.tracks.size(), b.tracks.size()) << scene.name();
    for (size_t t = 0; t < a.tracks.size(); ++t) {
      EXPECT_EQ(a.tracks[t].id(), b.tracks[t].id());
      ASSERT_EQ(a.tracks[t].bundles().size(), b.tracks[t].bundles().size());
      for (size_t k = 0; k < a.tracks[t].bundles().size(); ++k) {
        EXPECT_EQ(a.tracks[t].bundles()[k].frame_index,
                  b.tracks[t].bundles()[k].frame_index);
        EXPECT_EQ(a.tracks[t].bundles()[k].observations.size(),
                  b.tracks[t].bundles()[k].observations.size());
      }
    }
  }
}

// ---- Multi-vs-solo byte-identity. ----

TEST_F(MultiAppTest, BatchMultiAppMatchesSoloRunsAtEveryThreadCount) {
  const std::vector<std::string> apps = fixy_->applications().names();
  // Solo baselines, one per registered app (serial run).
  std::vector<BatchReport> solo;
  for (const std::string& app : apps) {
    BatchOptions options;
    options.num_threads = 1;
    auto result = fixy_->RankDataset(dataset_->dataset, {app}, options);
    ASSERT_TRUE(result.ok()) << app << ": " << result.status().ToString();
    solo.push_back(std::move(result->reports.front()));
  }
  for (int threads = 1; threads <= 8; ++threads) {
    BatchOptions options;
    options.num_threads = threads;
    const auto multi = fixy_->RankDataset(dataset_->dataset, apps, options);
    ASSERT_TRUE(multi.ok()) << "threads=" << threads;
    ASSERT_EQ(multi->apps, apps);
    ASSERT_EQ(multi->reports.size(), apps.size());
    for (size_t a = 0; a < apps.size(); ++a) {
      SCOPED_TRACE("threads=" + std::to_string(threads) + " app=" + apps[a]);
      ExpectReportsIdentical(multi->reports[a], solo[a]);
    }
  }
}

TEST_F(MultiAppTest, StreamingMultiAppMatchesSoloRunsAtEveryThreadCount) {
  const std::vector<std::string> apps = fixy_->applications().names();
  const DatasetSceneSource source(dataset_->dataset);
  std::vector<BatchReport> solo;
  for (const std::string& app : apps) {
    BatchOptions options;
    options.num_threads = 1;
    auto result = fixy_->RankDatasetStreaming(source, {app}, options);
    ASSERT_TRUE(result.ok()) << app << ": " << result.status().ToString();
    solo.push_back(std::move(result->reports.front()));
  }
  for (int threads = 1; threads <= 8; ++threads) {
    BatchOptions options;
    options.num_threads = threads;
    const auto multi = fixy_->RankDatasetStreaming(source, apps, options);
    ASSERT_TRUE(multi.ok()) << "threads=" << threads;
    ASSERT_EQ(multi->reports.size(), apps.size());
    for (size_t a = 0; a < apps.size(); ++a) {
      SCOPED_TRACE("threads=" + std::to_string(threads) + " app=" + apps[a]);
      ExpectReportsIdentical(multi->reports[a], solo[a]);
    }
  }
}

// The independent reference: each scene ranked alone by RankScene on the
// calling thread, concatenated in dataset order.
TEST_F(MultiAppTest, StreamingMatchesBatchForTheSameRequest) {
  const std::vector<std::string> apps = fixy_->applications().names();
  MultiAppReport per_scene;
  per_scene.apps = apps;
  per_scene.reports.resize(apps.size());
  for (const Scene& scene : dataset_->dataset.scenes) {
    auto one = fixy_->RankScene(scene, apps);
    ASSERT_TRUE(one.ok()) << one.status();
    ASSERT_EQ(one->apps, apps);
    for (size_t a = 0; a < apps.size(); ++a) {
      for (SceneOutcome& outcome : one->reports[a].outcomes) {
        per_scene.reports[a].outcomes.push_back(std::move(outcome));
      }
    }
  }
  RecomputeReportSummary(per_scene);
  const DatasetSceneSource source(dataset_->dataset);
  const auto streamed = fixy_->RankDatasetStreaming(source, apps);
  ASSERT_TRUE(streamed.ok());
  ASSERT_EQ(streamed->apps, per_scene.apps);
  for (size_t a = 0; a < apps.size(); ++a) {
    SCOPED_TRACE(apps[a]);
    ExpectReportsIdentical(per_scene.reports[a], streamed->reports[a]);
  }
}

TEST_F(MultiAppTest, RequestOrderIsPreservedAndSelectionIsFree) {
  const std::vector<std::string> request = {"model-errors",
                                            "missing-tracks"};
  const auto multi = fixy_->RankDataset(dataset_->dataset, request);
  ASSERT_TRUE(multi.ok());
  EXPECT_EQ(multi->apps, request);
  const auto solo_me = fixy_->RankDataset(dataset_->dataset, {"model-errors"});
  ASSERT_TRUE(solo_me.ok());
  ExpectReportsIdentical(multi->reports[0], solo_me->reports.front());
}

TEST_F(MultiAppTest, UnknownAppFailsTheCall) {
  const auto result = fixy_->RankDataset(dataset_->dataset, {"frobnicate"});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("test-user-app"),
            std::string::npos);
}

// ---- Shared-pass accounting. ----

// The tentpole invariant: a multi-application run associates each scene
// exactly once — rank.track_builds counts scenes, not scenes * apps — and
// the shared feature-score cache makes the whole run cheaper than the sum
// of solo runs (fewer KDE evaluations).
TEST_F(MultiAppTest, AssociationRunsOncePerSceneNotPerApp) {
  const std::vector<std::string> apps = fixy_->applications().names();
  BatchOptions options;
  options.collect_metrics = true;
  const auto multi = fixy_->RankDataset(dataset_->dataset, apps, options);
  ASSERT_TRUE(multi.ok());
  const auto& counters = multi->metrics.counters;
  ASSERT_TRUE(counters.count("rank.track_builds"));
  EXPECT_EQ(counters.at("rank.track_builds"),
            static_cast<int64_t>(dataset_->dataset.scenes.size()));

  int64_t solo_kde_total = 0;
  for (const std::string& app : apps) {
    const auto solo = fixy_->RankDataset(dataset_->dataset, {app}, options);
    ASSERT_TRUE(solo.ok());
    const auto& solo_counters = solo->metrics.counters;
    // Each solo run also associates once per scene.
    EXPECT_EQ(solo_counters.at("rank.track_builds"),
              static_cast<int64_t>(dataset_->dataset.scenes.size()));
    const auto kde = solo_counters.find("stats.kde_evals");
    if (kde != solo_counters.end()) solo_kde_total += kde->second;
    // Per-app keys carry the app's name.
    EXPECT_GT(solo_counters.at("rank." + app + ".factors"), 0);
  }
  const auto kde = counters.find("stats.kde_evals");
  ASSERT_NE(kde, counters.end());
  EXPECT_LT(kde->second, solo_kde_total)
      << "shared feature-score cache should eliminate repeated evaluations";
}

TEST_F(MultiAppTest, PerAppMetricsKeysAreDistinct) {
  BatchOptions options;
  options.collect_metrics = true;
  const std::vector<std::string> apps = fixy_->applications().names();
  const auto multi = fixy_->RankDataset(dataset_->dataset, apps, options);
  ASSERT_TRUE(multi.ok());
  for (size_t a = 0; a < apps.size(); ++a) {
    const std::string prefix = "rank." + apps[a] + ".";
    EXPECT_TRUE(multi->metrics.counters.count(prefix + "factors")) << apps[a];
    EXPECT_TRUE(multi->metrics.counters.count(prefix + "proposals"))
        << apps[a];
    EXPECT_TRUE(multi->metrics.timers_ms.count(prefix + "compile"))
        << apps[a];
  }
}

// The rank.* keys `rank` and `watch` zero-touch are exactly the keys a
// ranking run records, so the declared schema cannot drift from the code
// that records it.
TEST_F(MultiAppTest, RankMetricsSchemaMatchesRecordedKeys) {
  const auto rank_keys = [](const obs::PipelineMetrics& metrics) {
    std::set<std::string> keys;
    for (const auto& [name, value] : metrics.counters) {
      if (name.rfind("rank.", 0) == 0) keys.insert("counters/" + name);
    }
    for (const auto& [name, value] : metrics.timers_ms) {
      if (name.rfind("rank.", 0) == 0) keys.insert("timers_ms/" + name);
    }
    for (const auto& [name, value] : metrics.gauges) {
      if (name.rfind("rank.", 0) == 0) keys.insert("gauges/" + name);
    }
    return keys;
  };
  const std::vector<std::string> apps = fixy_->applications().names();
  Dataset one_scene;
  one_scene.name = "one-scene";
  one_scene.scenes.push_back(dataset_->dataset.scenes.front());
  BatchOptions options;
  options.collect_metrics = true;
  const auto run = fixy_->RankDataset(one_scene, apps, options);
  ASSERT_TRUE(run.ok());
  ASSERT_TRUE(run->reports.front().all_ok());

  obs::MetricsCollector collector;
  {
    const obs::MetricsScope scope(&collector);
    RecordRankMetricsSchema(apps);
  }
  const std::set<std::string> declared = rank_keys(collector.Snapshot());
  EXPECT_EQ(rank_keys(run->metrics), declared);
  EXPECT_EQ(declared.size(), 2 + 3 * apps.size());
}

// ---- User applications end-to-end. ----

TEST_F(MultiAppTest, UserApplicationRanksEndToEnd) {
  // Registered through FixyOptions (fixture): listed, resolvable, ranked.
  const std::vector<std::string> names = fixy_->applications().names();
  ASSERT_EQ(names.size(), 4u);
  EXPECT_EQ(names.back(), "test-user-app");

  BatchOptions options;
  options.collect_metrics = true;
  const auto multi =
      fixy_->RankDataset(dataset_->dataset, {"test-user-app"}, options);
  ASSERT_TRUE(multi.ok());
  const BatchReport& report = multi->reports.front();
  EXPECT_TRUE(report.all_ok());
  size_t total_proposals = 0;
  for (const SceneOutcome& outcome : report.outcomes) {
    total_proposals += outcome.proposals.size();
  }
  EXPECT_GT(total_proposals, 0u);
  EXPECT_EQ(
      multi->metrics.counters.at("rank.test-user-app.proposals"),
      static_cast<int64_t>(total_proposals));

  // The per-scene facade resolves the same registry name.
  const auto found =
      fixy_->Find(dataset_->dataset.scenes.front(), "test-user-app");
  ASSERT_TRUE(found.ok());
  ExpectProposalsIdentical(*found, report.outcomes.front().proposals);
}

// ---- Kernel dispatch byte-identity through the whole pipeline. ----

// The SIMD contract one level up: ranked proposals are byte-identical
// whichever kernel the KDE dispatches to, at several thread counts. Every
// kernel the CPU runs is compared against scalar. (The learned model is
// rebuilt under each kernel so even the fitted mode-density constants go
// through the pinned code path.)
TEST_F(MultiAppTest, ProposalsAreByteIdenticalAcrossSimdKernels) {
  if (!stats::simd::KernelAvailable(stats::simd::Kernel::kAvx2)) {
    GTEST_SKIP() << "no AVX2 on this CPU; nothing to compare";
  }
  const std::vector<std::string> apps = kStandardApps;
  const sim::GeneratedDataset training =
      sim::GenerateDataset(*profile_, "multiapp_train", 4, 92);
  std::vector<stats::simd::Kernel> kernels;
  std::vector<std::vector<BatchReport>> per_kernel;
  for (const auto kernel :
       {stats::simd::Kernel::kScalar, stats::simd::Kernel::kAvx2,
        stats::simd::Kernel::kAvx512}) {
    if (!stats::simd::SetKernelForTesting(kernel)) {
      std::printf("kernel %s unavailable on this CPU; its comparison is "
                  "skipped\n", stats::simd::KernelName(kernel));
      continue;
    }
    FixyOptions plain;
    Fixy fixy(std::move(plain));
    ASSERT_TRUE(fixy.Learn(training.dataset).ok());
    std::vector<BatchReport> reports;
    for (const int threads : {1, 2, 8}) {
      BatchOptions batch;
      batch.num_threads = threads;
      auto run = fixy.RankDataset(dataset_->dataset, apps, batch);
      ASSERT_TRUE(run.ok()) << "threads=" << threads;
      for (BatchReport& report : run->reports) {
        reports.push_back(std::move(report));
      }
    }
    kernels.push_back(kernel);
    per_kernel.push_back(std::move(reports));
  }
  stats::simd::ClearKernelOverrideForTesting();
  for (size_t k = 1; k < per_kernel.size(); ++k) {
    ASSERT_EQ(per_kernel[0].size(), per_kernel[k].size());
    for (size_t i = 0; i < per_kernel[0].size(); ++i) {
      SCOPED_TRACE(std::string(stats::simd::KernelName(kernels[k])) +
                   " report " + std::to_string(i));
      ExpectReportsIdentical(per_kernel[0][i], per_kernel[k][i]);
    }
  }
}

// Fixy::Find, the single-scene single-application call, ranks every scene
// exactly as the name-addressed dataset run does.
TEST_F(MultiAppTest, SingleAppWrappersMatchNameAddressedRuns) {
  const auto named = fixy_->RankDataset(dataset_->dataset, {"missing-obs"});
  ASSERT_TRUE(named.ok());
  const BatchReport& report = named->reports.front();
  ASSERT_EQ(report.outcomes.size(), dataset_->dataset.scenes.size());
  for (size_t s = 0; s < report.outcomes.size(); ++s) {
    const auto found = fixy_->Find(dataset_->dataset.scenes[s], "missing-obs");
    ASSERT_TRUE(found.ok()) << found.status();
    ExpectProposalsIdentical(*found, report.outcomes[s].proposals);
  }
}

// ---- The pass's per-view caches. ----

// One fixed-seed dense-urban-intersection scene, a model learned from two
// more, and the three paper applications' specs built from that model.
class ScenePassCacheTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const Result<scenario::ScenarioSpec> preset =
        scenario::PresetByName("dense-urban-intersection");
    ASSERT_TRUE(preset.ok()) << preset.status();
    const auto training = scenario::GenerateScenarioDataset(*preset, 2, 2024);
    ASSERT_TRUE(training.ok()) << training.status();
    const auto audited = scenario::GenerateScenarioDataset(*preset, 1, 2025);
    ASSERT_TRUE(audited.ok()) << audited.status();
    scene_ = new Scene(audited->dataset.scenes.front());
    fixy_ = new Fixy();
    ASSERT_TRUE(fixy_->Learn(training->dataset).ok());

    // The count-augmented set model-errors builds from is not exposed by
    // the engine; a save/load round trip returns it, count last.
    const std::string path =
        (std::filesystem::temp_directory_path() / "fixy_pass_cache_model.json")
            .string();
    ASSERT_TRUE(fixy_->SaveModel(path).ok());
    const auto loaded =
        LoadLearnedModelWithStats(path, FeatureRegistry::Standard());
    std::filesystem::remove(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    const std::vector<FeatureDistribution>& with_count = loaded->distributions;
    const std::vector<FeatureDistribution> base(with_count.begin(),
                                                with_count.end() - 1);
    specs_ = new std::vector<std::pair<AppSpec, LoaSpec>>();
    for (AppSpec app : {MissingTracksApp(), MissingObservationsApp(),
                        ModelErrorsApp()}) {
      LoaSpec spec = app.build_spec(LearnedState{base, with_count},
                                    fixy_->options().application);
      specs_->emplace_back(std::move(app), std::move(spec));
    }
  }

  static void TearDownTestSuite() {
    delete specs_;
    delete fixy_;
    delete scene_;
    specs_ = nullptr;
    fixy_ = nullptr;
    scene_ = nullptr;
  }

  static Scene* scene_;
  static Fixy* fixy_;
  static std::vector<std::pair<AppSpec, LoaSpec>>* specs_;
};

Scene* ScenePassCacheTest::scene_ = nullptr;
Fixy* ScenePassCacheTest::fixy_ = nullptr;
std::vector<std::pair<AppSpec, LoaSpec>>* ScenePassCacheTest::specs_ =
    nullptr;

// Every raw score a pass's caches produce — each view filled first in
// turn — has the bits of a standalone cache's.
TEST_F(ScenePassCacheTest, PassCachesMatchStandaloneCachesBitForBit) {
  const double hz = scene_->frame_rate_hz();
  for (const auto& order : {std::vector<SceneView>{SceneView::kFull,
                                                   SceneView::kModelOnly},
                            std::vector<SceneView>{SceneView::kModelOnly,
                                                   SceneView::kFull}}) {
    auto pass = ScenePass::Run(*scene_,
                               fixy_->options().application.track_builder,
                               /*need_full=*/true, /*need_model_only=*/true);
    ASSERT_TRUE(pass.ok()) << pass.status();
    for (const SceneView view : order) {
      FeatureScoreCache standalone(hz);
      const TrackSet& tracks = pass->tracks(view);
      ASSERT_FALSE(tracks.tracks.empty());
      for (const auto& [app, spec] : *specs_) {
        for (const FeatureDistribution& fd : spec.feature_distributions) {
          for (size_t t = 0; t < tracks.tracks.size(); ++t) {
            const RawTrackScores& shared =
                pass->cache(view)->Get(fd, tracks.tracks[t], t);
            const RawTrackScores& fresh =
                standalone.Get(fd, tracks.tracks[t], t);
            ASSERT_EQ(shared.size(), fresh.size());
            for (size_t i = 0; i < fresh.size(); ++i) {
              ASSERT_EQ(shared.engaged[i], fresh.engaged[i]);
              ASSERT_EQ(std::bit_cast<uint64_t>(shared.values[i]),
                        std::bit_cast<uint64_t>(fresh.values[i]))
                  << app.name << " " << fd.feature().name() << " track " << t
                  << " entry " << i;
            }
          }
        }
      }
    }
  }
}

// ---- A pinned ranking. ----

// The saved bytes of every registered application's untruncated worklist
// over a fixed-seed dataset, ranked with a model learned from another.
// The parity suites above compare scoring with itself; these constants
// were recorded from the per-kind scoring methods that the feature walk
// (ForEachFeatureValue) replaced, and pin ranking to them.
struct WorklistGolden {
  std::string app;
  uint32_t crc;
  size_t bytes;
};

TEST(RankedWorklistGoldenTest, SavedWorklistsMatchRecordedCrcs) {
  const Result<scenario::ScenarioSpec> preset =
      scenario::PresetByName("dense-urban-intersection");
  ASSERT_TRUE(preset.ok()) << preset.status();
  const auto training = scenario::GenerateScenarioDataset(*preset, 2, 2024);
  ASSERT_TRUE(training.ok()) << training.status();
  const auto audited = scenario::GenerateScenarioDataset(*preset, 2, 2025);
  ASSERT_TRUE(audited.ok()) << audited.status();
  Fixy fixy;
  ASSERT_TRUE(fixy.Learn(training->dataset).ok());
  const auto report =
      fixy.RankDataset(audited->dataset, fixy.applications().names());
  ASSERT_TRUE(report.ok()) << report.status();

  const std::vector<WorklistGolden> goldens = {
      {"missing-tracks", 1432768769u, 56760},
      {"missing-obs", 1418859296u, 101734},
      {"model-errors", 28383720u, 109374},
  };
  ASSERT_EQ(report->apps.size(), goldens.size());
  const std::string path =
      (std::filesystem::temp_directory_path() / "fixy_worklist_golden.json")
          .string();
  for (size_t a = 0; a < goldens.size(); ++a) {
    ASSERT_EQ(report->apps[a], goldens[a].app);
    std::vector<ErrorProposal> worklist;
    for (const SceneOutcome& outcome : report->reports[a].outcomes) {
      ASSERT_TRUE(outcome.ok()) << outcome.status;
      worklist.insert(worklist.end(), outcome.proposals.begin(),
                      outcome.proposals.end());
    }
    ASSERT_TRUE(SaveProposals(worklist, path).ok());
    std::ifstream in(path, std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    EXPECT_EQ(Crc32(bytes), goldens[a].crc) << goldens[a].app;
    EXPECT_EQ(bytes.size(), goldens[a].bytes) << goldens[a].app;
  }
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace fixy
