// Tests for the dataset-scale batch ranking path: the RankDataset facade,
// parallel-vs-serial determinism, the cached per-application specs, and
// the ClosestApproachBundle empty-bundle regression.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/applications.h"
#include "data/scene_source.h"
#include "core/engine.h"
#include "obs/metrics.h"
#include "sim/generate.h"

namespace fixy {
namespace {

// Field-exact equality: the determinism contract is byte-identical output,
// so scores compare with ==, not a tolerance.
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

class BatchRankTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    profile_ = new sim::SimProfile(sim::LyftLikeProfile());
    dataset_ = new sim::GeneratedDataset(
        sim::GenerateDataset(*profile_, "batch", 16, 77));
    fixy_ = new Fixy();
    const sim::GeneratedDataset training =
        sim::GenerateDataset(*profile_, "batch_train", 4, 78);
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

sim::SimProfile* BatchRankTest::profile_ = nullptr;
sim::GeneratedDataset* BatchRankTest::dataset_ = nullptr;
Fixy* BatchRankTest::fixy_ = nullptr;

// Makes scene `index` of a copy of the fixture dataset fail validation
// (and thus RankScene) deterministically: its first frame's index no
// longer matches its position.
Dataset PoisonScene(const Dataset& dataset, size_t index) {
  Dataset poisoned = dataset;
  poisoned.scenes[index].frames().front().index = 9999;
  return poisoned;
}

// The dataset loop's independent reference: every scene ranked alone by
// Fixy::RankScene on the calling thread, with no thread pool involved.
std::vector<SceneOutcome> RankEachScene(const Fixy& fixy,
                                        const Dataset& dataset,
                                        Application app) {
  std::vector<SceneOutcome> outcomes;
  for (const Scene& scene : dataset.scenes) {
    auto report = fixy.RankScene(scene, {ApplicationName(app)});
    EXPECT_TRUE(report.ok()) << report.status();
    if (report.ok()) {
      outcomes.push_back(std::move(report->reports.front().outcomes.front()));
    }
  }
  return outcomes;
}

TEST_F(BatchRankTest, RequiresLearn) {
  const Fixy unlearned;
  const auto result = unlearned.RankDataset(dataset_->dataset,
                                            Application::kMissingTracks);
  EXPECT_FALSE(result.ok());
}

TEST_F(BatchRankTest, EmptyDatasetYieldsEmptyResult) {
  const Dataset empty;
  const auto result =
      fixy_->RankDataset(empty, Application::kMissingTracks);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->outcomes.empty());
  EXPECT_TRUE(result->all_ok());
  EXPECT_EQ(result->scenes_ok, 0u);
  EXPECT_EQ(result->scenes_failed, 0u);
}

TEST_F(BatchRankTest, EmptyDatasetOkEvenWithFailFast) {
  const Dataset empty;
  BatchOptions options;
  options.fail_fast = true;
  const auto result =
      fixy_->RankDataset(empty, Application::kModelErrors, options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->outcomes.empty());
}

// Scenes with frames but no observations (and scenes with no frames at
// all) are valid inputs: they rank to ok outcomes with zero proposals
// rather than failing the batch.
TEST_F(BatchRankTest, EmptyFrameScenesRankToEmptyProposals) {
  Dataset dataset;
  dataset.name = "empties";
  Scene no_frames("no_frames", 10.0);
  dataset.scenes.push_back(no_frames);
  Scene empty_frames("empty_frames", 10.0);
  for (int i = 0; i < 3; ++i) {
    Frame frame;
    frame.index = i;
    frame.timestamp = 0.1 * i;
    empty_frames.AddFrame(frame);
  }
  dataset.scenes.push_back(empty_frames);
  for (const Application app :
       {Application::kMissingTracks, Application::kMissingObservations,
        Application::kModelErrors}) {
    const auto result = fixy_->RankDataset(dataset, app);
    ASSERT_TRUE(result.ok());
    ASSERT_EQ(result->outcomes.size(), 2u);
    EXPECT_TRUE(result->all_ok());
    EXPECT_EQ(result->scenes_ok, 2u);
    for (const SceneOutcome& outcome : result->outcomes) {
      EXPECT_TRUE(outcome.ok()) << outcome.status;
      EXPECT_TRUE(outcome.proposals.empty());
    }
  }
}

TEST_F(BatchRankTest, ReturnsOneRankedListPerSceneInOrder) {
  const auto result = fixy_->RankDataset(dataset_->dataset,
                                         Application::kMissingTracks,
                                         BatchOptions{4});
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->outcomes.size(), dataset_->dataset.scenes.size());
  EXPECT_EQ(result->scenes_ok, dataset_->dataset.scenes.size());
  EXPECT_TRUE(result->all_ok());
  for (size_t s = 0; s < result->outcomes.size(); ++s) {
    const SceneOutcome& outcome = result->outcomes[s];
    EXPECT_TRUE(outcome.ok());
    EXPECT_EQ(outcome.scene_name, dataset_->dataset.scenes[s].name());
    for (const ErrorProposal& p : outcome.proposals) {
      EXPECT_EQ(p.scene_name, dataset_->dataset.scenes[s].name());
    }
    // Ranked most-suspicious-first.
    for (size_t i = 1; i < outcome.proposals.size(); ++i) {
      EXPECT_GE(outcome.proposals[i - 1].score, outcome.proposals[i].score);
    }
  }
}

// The tentpole determinism contract: on a 16-scene sim dataset, every
// worker count must produce the ranked proposals of scene-by-scene
// RankScene calls on the calling thread, for every application.
TEST_F(BatchRankTest, ParallelOutputIdenticalToSerial) {
  for (const Application app :
       {Application::kMissingTracks, Application::kMissingObservations,
        Application::kModelErrors}) {
    const std::vector<SceneOutcome> serial =
        RankEachScene(*fixy_, dataset_->dataset, app);
    for (const int threads : {1, 2, 8}) {
      const auto parallel =
          fixy_->RankDataset(dataset_->dataset, app, BatchOptions{threads});
      ASSERT_TRUE(parallel.ok());
      ASSERT_EQ(serial.size(), parallel->outcomes.size());
      for (size_t s = 0; s < serial.size(); ++s) {
        ExpectProposalsIdentical(serial[s].proposals,
                                 parallel->outcomes[s].proposals);
      }
    }
  }
}

// The batch path must agree with the single-scene facade calls (which use
// the same cached specs).
TEST_F(BatchRankTest, BatchAgreesWithSingleSceneCalls) {
  const auto batch = fixy_->RankDataset(dataset_->dataset,
                                        Application::kMissingTracks,
                                        BatchOptions{4});
  ASSERT_TRUE(batch.ok());
  for (size_t s = 0; s < dataset_->dataset.scenes.size(); ++s) {
    const auto single =
        fixy_->FindMissingTracks(dataset_->dataset.scenes[s]);
    ASSERT_TRUE(single.ok());
    ExpectProposalsIdentical(*single, batch->outcomes[s].proposals);
  }
}

// The partial-failure contract: one poisoned scene is quarantined with its
// error, and every healthy scene's proposals are byte-identical to the
// all-clean run — at every thread count.
TEST_F(BatchRankTest, PoisonedSceneQuarantinedOthersUnaffected) {
  constexpr size_t kPoisoned = 5;
  const Dataset poisoned = PoisonScene(dataset_->dataset, kPoisoned);
  const auto clean = fixy_->RankDataset(dataset_->dataset,
                                        Application::kMissingTracks,
                                        BatchOptions{1});
  ASSERT_TRUE(clean.ok());
  for (int threads = 1; threads <= 8; ++threads) {
    const auto result = fixy_->RankDataset(
        poisoned, Application::kMissingTracks, BatchOptions{threads});
    ASSERT_TRUE(result.ok()) << "threads=" << threads;
    ASSERT_EQ(result->outcomes.size(), dataset_->dataset.scenes.size());
    EXPECT_EQ(result->scenes_ok, dataset_->dataset.scenes.size() - 1);
    EXPECT_EQ(result->scenes_failed, 1u);
    EXPECT_EQ(result->scenes_quarantined, 1u);
    EXPECT_FALSE(result->all_ok());
    for (size_t s = 0; s < result->outcomes.size(); ++s) {
      if (s == kPoisoned) {
        EXPECT_FALSE(result->outcomes[s].ok());
        EXPECT_TRUE(result->outcomes[s].proposals.empty());
        continue;
      }
      EXPECT_TRUE(result->outcomes[s].ok()) << "threads=" << threads;
      ExpectProposalsIdentical(clean->outcomes[s].proposals,
                               result->outcomes[s].proposals);
    }
  }
}

// With fail_fast the call fails with the *first* failing scene's error in
// dataset order, no matter which worker hit its failure first.
TEST_F(BatchRankTest, FailFastReturnsFirstFailureInDatasetOrder) {
  Dataset poisoned = PoisonScene(dataset_->dataset, 3);
  poisoned.scenes[10].frames().front().index = 9999;
  BatchOptions options;
  options.fail_fast = true;
  for (const int threads : {1, 2, 8}) {
    options.num_threads = threads;
    const auto result = fixy_->RankDataset(
        poisoned, Application::kMissingTracks, options);
    ASSERT_FALSE(result.ok()) << "threads=" << threads;
    EXPECT_NE(result.status().message().find(
                  poisoned.scenes[3].name()),
              std::string::npos)
        << result.status();
  }
}

// Without fail_fast the same two-failure batch succeeds with both scenes
// quarantined.
TEST_F(BatchRankTest, TwoPoisonedScenesBothQuarantined) {
  Dataset poisoned = PoisonScene(dataset_->dataset, 3);
  poisoned.scenes[10].frames().front().index = 9999;
  const auto result = fixy_->RankDataset(
      poisoned, Application::kMissingTracks, BatchOptions{4});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->scenes_failed, 2u);
  EXPECT_EQ(result->scenes_quarantined, 2u);
  EXPECT_EQ(result->scenes_ok, dataset_->dataset.scenes.size() - 2);
  EXPECT_FALSE(result->outcomes[3].ok());
  EXPECT_FALSE(result->outcomes[10].ok());
}

// The cached-spec fast path must not change results relative to building
// the spec from the learned distributions per call (the pattern the
// ablation benches use).
TEST_F(BatchRankTest, CachedSpecMatchesPerCallSpecConstruction) {
  const Scene& scene = dataset_->dataset.scenes.front();
  const auto cached = fixy_->FindMissingTracks(scene);
  ASSERT_TRUE(cached.ok());
  const auto rebuilt = FindMissingTracks(
      scene,
      BuildMissingTracksSpec(fixy_->learned_features(),
                             fixy_->options().application),
      fixy_->options().application);
  ASSERT_TRUE(rebuilt.ok());
  ExpectProposalsIdentical(*cached, *rebuilt);
}

// Every metric value in a snapshot must be finite, timers and gauges
// non-negative (counters are unsigned by construction).
void ExpectMetricsWellFormed(const obs::PipelineMetrics& metrics) {
  for (const auto& [name, value] : metrics.timers_ms) {
    EXPECT_TRUE(std::isfinite(value)) << name;
    EXPECT_GE(value, 0.0) << name;
  }
  for (const auto& [name, value] : metrics.gauges) {
    EXPECT_TRUE(std::isfinite(value)) << name;
  }
}

// The observability determinism contract: counters are exact event counts,
// so the full counter map must be *identical* — key set and values — at
// every thread count. Timers may vary in value but never in key set.
TEST_F(BatchRankTest, MetricsCountersIdenticalAcrossThreadCounts) {
  BatchOptions options;
  options.collect_metrics = true;
  options.num_threads = 1;
  const auto baseline = fixy_->RankDataset(
      dataset_->dataset, Application::kMissingTracks, options);
  ASSERT_TRUE(baseline.ok());
  ASSERT_FALSE(baseline->metrics.counters.empty());
  EXPECT_GT(baseline->metrics.counters.at("batch.scenes"), 0u);
  EXPECT_GT(baseline->metrics.counters.at("stats.kde_evals"), 0u);
  EXPECT_GT(baseline->metrics.counters.at("rank.missing-tracks.proposals"),
            0u);
  ExpectMetricsWellFormed(baseline->metrics);

  for (int threads = 2; threads <= 8; ++threads) {
    options.num_threads = threads;
    const auto result = fixy_->RankDataset(
        dataset_->dataset, Application::kMissingTracks, options);
    ASSERT_TRUE(result.ok()) << "threads=" << threads;
    EXPECT_EQ(result->metrics.counters, baseline->metrics.counters)
        << "threads=" << threads;
    ExpectMetricsWellFormed(result->metrics);
    // Same stages ran, so the same timer keys must exist (values differ).
    ASSERT_EQ(result->metrics.timers_ms.size(),
              baseline->metrics.timers_ms.size());
    auto it = baseline->metrics.timers_ms.begin();
    for (const auto& [name, value] : result->metrics.timers_ms) {
      EXPECT_EQ(name, it->first);
      ++it;
    }
  }
}

// Quarantine counters on the snapshot mirror the report's summary fields.
TEST_F(BatchRankTest, MetricsQuarantineCountersMatchReport) {
  const Dataset poisoned = PoisonScene(dataset_->dataset, 5);
  BatchOptions options;
  options.collect_metrics = true;
  options.num_threads = 4;
  const auto result = fixy_->RankDataset(
      poisoned, Application::kMissingTracks, options);
  ASSERT_TRUE(result.ok());
  const auto& counters = result->metrics.counters;
  EXPECT_EQ(counters.at("batch.scenes"), poisoned.scenes.size());
  EXPECT_EQ(counters.at("batch.scenes_ok"), result->scenes_ok);
  EXPECT_EQ(counters.at("batch.scenes_failed"), result->scenes_failed);
  EXPECT_EQ(counters.at("batch.scenes_quarantined"),
            result->scenes_quarantined);
  EXPECT_EQ(counters.at("span.scene.calls"), poisoned.scenes.size());
}

// With collect_metrics off (the default) the snapshot stays empty and
// nothing leaks to an ambient caller-side collector — at any thread count,
// so a caller cannot observe a thread-count-dependent difference.
TEST_F(BatchRankTest, MetricsEmptyWhenDisabled) {
  for (const int threads : {1, 4}) {
    obs::MetricsCollector ambient;
    const obs::MetricsScope scope(&ambient);
    const auto result = fixy_->RankDataset(
        dataset_->dataset, Application::kMissingTracks, BatchOptions{threads});
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result->metrics.empty());
    EXPECT_TRUE(ambient.Snapshot().empty()) << "threads=" << threads;
  }
}

// Learning under an ambient collector records per-feature sample counts
// and the fit/rebuild stage timers.
TEST_F(BatchRankTest, LearnRecordsSampleCountsAndTimers) {
  obs::MetricsCollector ambient;
  const obs::MetricsScope scope(&ambient);
  Fixy fixy;
  const sim::GeneratedDataset training =
      sim::GenerateDataset(*profile_, "metrics_train", 2, 79);
  ASSERT_TRUE(fixy.Learn(training.dataset).ok());
  const obs::PipelineMetrics snapshot = ambient.Snapshot();
  EXPECT_GT(snapshot.counters.at("learn.samples.volume"), 0u);
  EXPECT_GT(snapshot.counters.at("learn.samples.velocity"), 0u);
  EXPECT_EQ(snapshot.timers_ms.count("learn.fit"), 1u);
  EXPECT_EQ(snapshot.timers_ms.count("learn.total"), 1u);
  EXPECT_EQ(snapshot.timers_ms.count("learn.rebuild_specs"), 1u);
  ExpectMetricsWellFormed(snapshot);
}

// A SceneSource that fails decode for a chosen set of indices — the
// streaming analogue of PoisonScene, exercising the decode-failure →
// quarantine path without a real corrupt file.
class FailingSource : public SceneSource {
 public:
  FailingSource(const Dataset& dataset, std::set<size_t> failing)
      : inner_(dataset), failing_(std::move(failing)) {}

  size_t scene_count() const override { return inner_.scene_count(); }
  std::string scene_name(size_t index) const override {
    return inner_.scene_name(index);
  }
  Result<Scene> DecodeScene(size_t index) const override {
    if (failing_.count(index)) {
      return Status::FailedPrecondition("injected decode failure");
    }
    return inner_.DecodeScene(index);
  }

 private:
  DatasetSceneSource inner_;
  std::set<size_t> failing_;
};

// The streaming determinism contract: RankDatasetStreaming must produce
// the proposals of scene-by-scene RankScene calls at every (rank threads,
// decode threads) combination.
TEST_F(BatchRankTest, StreamingMatchesNonStreaming) {
  const DatasetSceneSource source(dataset_->dataset);
  const std::vector<SceneOutcome> reference =
      RankEachScene(*fixy_, dataset_->dataset, Application::kMissingTracks);
  for (int threads = 1; threads <= 8; ++threads) {
    for (const int decode_threads : {1, 2}) {
      BatchOptions batch;
      batch.num_threads = threads;
      StreamOptions stream;
      stream.decode_threads = decode_threads;
      const auto streamed = fixy_->RankDatasetStreaming(
          source, Application::kMissingTracks, batch, stream);
      ASSERT_TRUE(streamed.ok())
          << "threads=" << threads << " decode=" << decode_threads;
      ASSERT_EQ(streamed->outcomes.size(), reference.size());
      EXPECT_EQ(streamed->scenes_ok, reference.size());
      for (size_t s = 0; s < reference.size(); ++s) {
        EXPECT_EQ(streamed->outcomes[s].scene_name, reference[s].scene_name);
        ExpectProposalsIdentical(reference[s].proposals,
                                 streamed->outcomes[s].proposals);
      }
    }
  }
}

// A tight residency ceiling forces back-pressure (loaders wait for rank
// workers to claim scenes); the output must not change.
TEST_F(BatchRankTest, StreamingUnaffectedByQueueCapacity) {
  const DatasetSceneSource source(dataset_->dataset);
  const std::vector<SceneOutcome> reference =
      RankEachScene(*fixy_, dataset_->dataset, Application::kMissingTracks);
  BatchOptions batch;
  batch.num_threads = 4;
  StreamOptions stream;
  stream.decode_threads = 4;
  for (const size_t limit : {size_t{1}, size_t{2}, size_t{64}}) {
    stream.max_resident_scenes = limit;
    const auto streamed = fixy_->RankDatasetStreaming(
        source, Application::kMissingTracks, batch, stream);
    ASSERT_TRUE(streamed.ok()) << "limit=" << limit;
    ASSERT_EQ(streamed->outcomes.size(), reference.size());
    for (size_t s = 0; s < reference.size(); ++s) {
      ExpectProposalsIdentical(reference[s].proposals,
                               streamed->outcomes[s].proposals);
    }
  }
}

// Streaming counters must be deterministic across thread combinations,
// like the non-streaming path's.
TEST_F(BatchRankTest, StreamingCountersIdenticalAcrossThreadCounts) {
  const DatasetSceneSource source(dataset_->dataset);
  BatchOptions batch;
  batch.collect_metrics = true;
  batch.num_threads = 1;
  const auto baseline = fixy_->RankDatasetStreaming(
      source, Application::kMissingTracks, batch);
  ASSERT_TRUE(baseline.ok());
  EXPECT_EQ(baseline->metrics.counters.at("batch.scenes"),
            dataset_->dataset.scenes.size());
  for (const int threads : {2, 4, 8}) {
    batch.num_threads = threads;
    StreamOptions stream;
    stream.decode_threads = 2;
    const auto result = fixy_->RankDatasetStreaming(
        source, Application::kMissingTracks, batch, stream);
    ASSERT_TRUE(result.ok()) << "threads=" << threads;
    EXPECT_EQ(result->metrics.counters, baseline->metrics.counters)
        << "threads=" << threads;
    ExpectMetricsWellFormed(result->metrics);
  }
}

// A decode failure quarantines exactly that scene; the rest match the
// clean run byte for byte.
TEST_F(BatchRankTest, StreamingDecodeFailureQuarantined) {
  const FailingSource source(dataset_->dataset, {5});
  const std::vector<SceneOutcome> clean =
      RankEachScene(*fixy_, dataset_->dataset, Application::kMissingTracks);
  ASSERT_EQ(clean.size(), dataset_->dataset.scenes.size());
  for (const int threads : {1, 4}) {
    const auto result = fixy_->RankDatasetStreaming(
        source, Application::kMissingTracks, BatchOptions{threads});
    ASSERT_TRUE(result.ok()) << "threads=" << threads;
    ASSERT_EQ(result->outcomes.size(), dataset_->dataset.scenes.size());
    EXPECT_EQ(result->scenes_failed, 1u);
    EXPECT_EQ(result->scenes_quarantined, 1u);
    EXPECT_FALSE(result->outcomes[5].ok());
    EXPECT_EQ(result->outcomes[5].scene_name,
              dataset_->dataset.scenes[5].name());
    EXPECT_EQ(result->outcomes[5].status.code(),
              StatusCode::kFailedPrecondition);
    for (size_t s = 0; s < result->outcomes.size(); ++s) {
      if (s == 5) continue;
      ExpectProposalsIdentical(clean[s].proposals,
                               result->outcomes[s].proposals);
    }
  }
}

// fail_fast over a streaming source reports the first dataset-order
// failure regardless of which worker saw its failure first.
TEST_F(BatchRankTest, StreamingFailFastFirstInDatasetOrder) {
  const FailingSource source(dataset_->dataset, {3, 10});
  BatchOptions batch;
  batch.fail_fast = true;
  for (const int threads : {1, 8}) {
    batch.num_threads = threads;
    const auto result = fixy_->RankDatasetStreaming(
        source, Application::kMissingTracks, batch);
    ASSERT_FALSE(result.ok()) << "threads=" << threads;
    EXPECT_NE(result.status().message().find(
                  dataset_->dataset.scenes[3].name()),
              std::string::npos)
        << result.status();
  }
}

TEST_F(BatchRankTest, StreamingEmptySource) {
  const Dataset empty;
  const DatasetSceneSource source(empty);
  const auto result = fixy_->RankDatasetStreaming(
      source, Application::kMissingTracks);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->outcomes.empty());
  EXPECT_TRUE(result->all_ok());
}

TEST(ClosestApproachBundleTest, SkipsEmptyLeadingBundle) {
  // Regression: bundle 0 is empty; the old implementation returned index 0
  // anyway, and the proposal builder then dereferenced front() of an empty
  // observation vector.
  Track track(7);
  ObservationBundle empty_bundle;
  empty_bundle.frame_index = 0;
  track.AddBundle(empty_bundle);

  ObservationBundle full_bundle;
  full_bundle.frame_index = 1;
  full_bundle.ego_position = {0.0, 0.0};
  Observation obs;
  obs.id = 1;
  obs.source = ObservationSource::kModel;
  obs.box.center = {5.0, 0.0, 0.0};
  full_bundle.observations.push_back(obs);
  track.AddBundle(full_bundle);

  const std::optional<size_t> best = internal::ClosestApproachBundle(track);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(*best, 1u);
}

TEST(ClosestApproachBundleTest, AllEmptyBundlesYieldsNullopt) {
  Track track(8);
  track.AddBundle(ObservationBundle{});
  track.AddBundle(ObservationBundle{});
  EXPECT_FALSE(internal::ClosestApproachBundle(track).has_value());
}

TEST(ClosestApproachBundleTest, PicksNearestNonEmptyBundle) {
  Track track(9);
  for (int i = 0; i < 3; ++i) {
    ObservationBundle bundle;
    bundle.frame_index = i;
    bundle.ego_position = {0.0, 0.0};
    Observation obs;
    obs.id = static_cast<ObservationId>(i + 1);
    // Distances 30, 10, 20 -> bundle 1 is nearest.
    const double xs[] = {30.0, 10.0, 20.0};
    obs.box.center = {xs[i], 0.0, 0.0};
    bundle.observations.push_back(obs);
    track.AddBundle(bundle);
  }
  const std::optional<size_t> best = internal::ClosestApproachBundle(track);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(*best, 1u);
}

TEST(RepresentativeObservationTest, PrefersModelAndGuardsEmpty) {
  ObservationBundle bundle;
  EXPECT_EQ(internal::RepresentativeObservation(bundle), nullptr);

  Observation human;
  human.id = 1;
  human.source = ObservationSource::kHuman;
  bundle.observations.push_back(human);
  const Observation* rep = internal::RepresentativeObservation(bundle);
  ASSERT_NE(rep, nullptr);
  EXPECT_EQ(rep->id, 1u);

  Observation model;
  model.id = 2;
  model.source = ObservationSource::kModel;
  bundle.observations.push_back(model);
  rep = internal::RepresentativeObservation(bundle);
  ASSERT_NE(rep, nullptr);
  EXPECT_EQ(rep->id, 2u);
}

}  // namespace
}  // namespace fixy
