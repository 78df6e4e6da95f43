// Regenerates the Section 8.1 runtime claim: "Fixy executes in under five
// seconds on a single CPU core for processing a 15 second scene of data."
//
// google-benchmark harness over the end-to-end online phase (track
// assembly + graph compilation + scoring + ranking), swept over scene
// duration and object density, plus the offline learning phase.
#include <benchmark/benchmark.h>

#include "core/engine.h"
#include "workloads.h"

namespace fixy::bench {
namespace {

const TrainedPipeline& LyftPipeline() {
  static const TrainedPipeline* pipeline =
      new TrainedPipeline(Train(sim::LyftLikeProfile(), 4));
  return *pipeline;
}

// End-to-end online ranking of one scene, swept over scene duration.
void BM_RankSceneByDuration(benchmark::State& state) {
  const double duration = static_cast<double>(state.range(0));
  sim::SimProfile profile = sim::LyftLikeProfile();
  profile.world.duration_seconds = duration;
  const auto generated = sim::GenerateScene(profile, "runtime", 11);
  const TrainedPipeline& pipeline = LyftPipeline();
  for (auto _ : state) {
    auto proposals = pipeline.fixy.Find(generated.scene, "missing-tracks");
    benchmark::DoNotOptimize(proposals);
  }
  state.counters["scene_seconds"] = duration;
  state.counters["observations"] =
      static_cast<double>(generated.scene.TotalObservations());
}
BENCHMARK(BM_RankSceneByDuration)->Arg(5)->Arg(15)->Arg(30)->Arg(60)
    ->Unit(benchmark::kMillisecond);

// Swept over object density at the paper's 15 s scene length.
void BM_RankSceneByObjectCount(benchmark::State& state) {
  sim::SimProfile profile = sim::LyftLikeProfile();
  profile.world.mean_object_count = static_cast<double>(state.range(0));
  const auto generated = sim::GenerateScene(profile, "density", 12);
  const TrainedPipeline& pipeline = LyftPipeline();
  for (auto _ : state) {
    auto proposals = pipeline.fixy.Find(generated.scene, "missing-tracks");
    benchmark::DoNotOptimize(proposals);
  }
  state.counters["objects"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_RankSceneByObjectCount)->Arg(10)->Arg(30)->Arg(60)->Arg(120)
    ->Unit(benchmark::kMillisecond);

// The three applications on the same 15 s scene.
void BM_FindMissingTracks(benchmark::State& state) {
  const auto generated = sim::GenerateScene(sim::LyftLikeProfile(), "apps", 13);
  const TrainedPipeline& pipeline = LyftPipeline();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        pipeline.fixy.Find(generated.scene, "missing-tracks"));
  }
}
BENCHMARK(BM_FindMissingTracks)->Unit(benchmark::kMillisecond);

void BM_FindMissingObservations(benchmark::State& state) {
  const auto generated = sim::GenerateScene(sim::LyftLikeProfile(), "apps", 13);
  const TrainedPipeline& pipeline = LyftPipeline();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        pipeline.fixy.Find(generated.scene, "missing-obs"));
  }
}
BENCHMARK(BM_FindMissingObservations)->Unit(benchmark::kMillisecond);

void BM_FindModelErrors(benchmark::State& state) {
  const auto generated = sim::GenerateScene(sim::LyftLikeProfile(), "apps", 13);
  const TrainedPipeline& pipeline = LyftPipeline();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        pipeline.fixy.Find(generated.scene, "model-errors"));
  }
}
BENCHMARK(BM_FindModelErrors)->Unit(benchmark::kMillisecond);

// Offline phase: learning the feature distributions.
void BM_LearnDistributions(benchmark::State& state) {
  const auto training = sim::GenerateDataset(
      sim::LyftLikeProfile(), "learn", static_cast<int>(state.range(0)), 14);
  for (auto _ : state) {
    Fixy fixy;
    const Status status = fixy.Learn(training.dataset);
    benchmark::DoNotOptimize(status);
  }
  state.counters["scenes"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_LearnDistributions)->Arg(2)->Arg(8)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace fixy::bench

BENCHMARK_MAIN();
