// update-cycle: the write path `watch --learn-labels` runs. Before each
// op one scene of an FXB-cached 128-scene lyft-like dataset is rewritten,
// alternating between two fixed versions, and a fresh copy of the same
// base model is taken (both outside the timed op, so neither the learned
// state nor the cache drifts). The op is four calls on that scene:
// io::UpdateFxbCache, Fixy::LearnIncremental, Fixy::SaveModel and
// Fixy::RankScene.
#include <filesystem>

#include "bench.h"
#include "common/macros.h"
#include "io/fxb.h"

namespace fixybench {

Status RunUpdateCycle(const Options& options, RunRecord& record) {
  const Layout layout = LayoutFor(options.dir);
  FIXY_ASSIGN_OR_RETURN(const InputPlan plan, PlanInputs(options));
  const auto setup_start = Clock::now();
  fixy::Fixy base;
  FIXY_RETURN_IF_ERROR(base.LoadModel(layout.model));
  FIXY_ASSIGN_OR_RETURN(const EditScene edit, LoadEditScene(options));
  const std::string folded = options.dir + "/folded_model.json";
  const size_t scene_count = static_cast<size_t>(plan.data_scenes);

  // The dataset file holds version 0 after setup, so op k writes version
  // (k + 1) % 2 and every op changes the file.
  uint64_t op = 0;
  int version = 0;
  const auto one_cycle = [&](double* cycle_ms) -> Status {
    version = static_cast<int>((op++ + 1) % 2);
    FIXY_RETURN_IF_ERROR(WriteFile(edit.path, edit.bytes[version]));
    fixy::Fixy fresh = base;
    fixy::Dataset delta;
    delta.scenes.push_back(edit.scene[version]);

    const auto start = Clock::now();
    FIXY_ASSIGN_OR_RETURN(const fixy::io::FxbUpdateReport update,
                          fixy::io::UpdateFxbCache(layout.data));
    FIXY_RETURN_IF_ERROR(fresh.LearnIncremental(delta));
    FIXY_RETURN_IF_ERROR(fresh.SaveModel(folded));
    FIXY_ASSIGN_OR_RETURN(const fixy::MultiAppReport ranked,
                          fresh.RankScene(edit.scene[version], PaperApps()));
    *cycle_ms = MsSince(start);

    if (update.rebuilt || update.scenes_encoded != 1 ||
        update.scenes_reused + 1 != scene_count) {
      return Status::Internal("update re-encoded " +
                              std::to_string(update.scenes_encoded) +
                              " scenes, expected exactly the edited one");
    }
    return ranked.all_ok() ? Status::Ok()
                           : Status::Internal("edited scene failed to rank");
  };

  // Warm-up: both versions once (page cache, allocator, model copies).
  double ignored = 0.0;
  for (int w = 0; w < 2; ++w) FIXY_RETURN_IF_ERROR(one_cycle(&ignored));
  record.warmup_s = SecondsSince(setup_start);

  // A single window: a cycle takes long enough that its own median is
  // the steadier figure.
  Window cycles;
  const auto start = Clock::now();
  do {
    double ms = 0.0;
    ++record.attempted;
    const Status status = one_cycle(&ms);
    if (!status.ok()) {
      record.Fail(status.ToString());
      continue;
    }
    cycles.op_ms.push_back(ms);
    cycles.scenes += 1.0;
    cycles.seconds += ms / 1000.0;
  } while (SecondsSince(start) < options.seconds);
  record.Metric("peak_rss_mb", SelfPeakRssMb(), "MB");
  EmitOpMetrics(record, {cycles});

  // Verdicts, once per run: the updated cache is byte-identical to a fresh
  // build of the same sources, and the folded model to a full refit.
  std::string updated;
  std::string rebuilt;
  const std::string cache = fixy::io::FxbCachePath(layout.data);
  FIXY_RETURN_IF_ERROR(ReadFile(cache, &updated));
  FIXY_RETURN_IF_ERROR(fixy::io::BuildFxbCache(layout.data).status());
  FIXY_RETURN_IF_ERROR(ReadFile(cache, &rebuilt));
  if (updated != rebuilt) {
    record.failures.push_back("updated dataset.fxb differs from a rebuild");
    record.failed = record.attempted;
  }
  FIXY_ASSIGN_OR_RETURN(fixy::Dataset training, TrainingSet(plan));
  training.scenes.push_back(edit.scene[version]);
  fixy::Fixy refit;
  FIXY_RETURN_IF_ERROR(refit.Learn(training));
  const std::string refit_path = options.dir + "/refit_model.json";
  FIXY_RETURN_IF_ERROR(refit.SaveModel(refit_path));
  std::string folded_bytes;
  std::string refit_bytes;
  FIXY_RETURN_IF_ERROR(ReadFile(folded, &folded_bytes));
  FIXY_RETURN_IF_ERROR(ReadFile(refit_path, &refit_bytes));
  if (folded_bytes != refit_bytes) {
    record.failures.push_back("folded model differs from a full refit");
    record.failed = record.attempted;
  }
  if (!options.trace) return Status::Ok();

  // Traced pass: the same cycle, one span per call, with the rank
  // replayed layer by layer against the folded model it just saved.
  Tracer tracer;
  const auto traced_start = Clock::now();
  for (uint64_t k = 0; k == 0 || SecondsSince(traced_start) < options.seconds;
       ++k) {
    version = static_cast<int>((op++ + 1) % 2);
    FIXY_RETURN_IF_ERROR(WriteFile(edit.path, edit.bytes[version]));
    fixy::Fixy fresh = base;
    ++record.attempted;
    Tracer::Scope op_span(tracer, options.workload);
    {
      Tracer::Scope span(tracer, "io.fingerprint");
      FIXY_RETURN_IF_ERROR(
          fixy::io::ComputeSourceFingerprint(layout.data).status());
    }
    {
      Tracer::Scope span(tracer, "io.update");
      FIXY_RETURN_IF_ERROR(fixy::io::UpdateFxbCache(layout.data).status());
    }
    tracer.Count("io.update_mb_written",
                 static_cast<double>(std::filesystem::file_size(cache)) / 1e6);
    Result<fixy::Scene> scene = Status::Internal("not decoded");
    {
      // watch reads the changed scene back from the refreshed cache.
      Tracer::Scope span(tracer, "io.decode");
      Result<fixy::io::FxbReader> reader = fixy::io::FxbReader::Open(cache);
      FIXY_RETURN_IF_ERROR(reader.status());
      scene = reader->DecodeScene(edit.index);
    }
    FIXY_RETURN_IF_ERROR(scene.status());
    fixy::Dataset delta;
    delta.scenes.push_back(*scene);
    {
      Tracer::Scope span(tracer, "learn.fold");
      FIXY_RETURN_IF_ERROR(fresh.LearnIncremental(delta));
    }
    {
      Tracer::Scope span(tracer, "learn.save");
      FIXY_RETURN_IF_ERROR(fresh.SaveModel(folded));
    }
    Result<std::unique_ptr<RankLayers>> layers = Status::Internal("no model");
    {
      Tracer::Scope span(tracer, "learn.load");
      layers = LoadRankLayers(folded);
    }
    FIXY_RETURN_IF_ERROR(layers.status());
    const Result<std::vector<std::string>> worklists =
        TraceRankScene(tracer, fresh, **layers, *scene, 10);
    if (!worklists.ok()) record.Fail(worklists.status().ToString());
  }
  {
    FIXY_ASSIGN_OR_RETURN(const auto daemon, DaemonProcess::Start(options, 1));
    FIXY_RETURN_IF_ERROR(TraceStatusProbe(tracer, daemon->socket(), 50));
    FIXY_RETURN_IF_ERROR(daemon->Shutdown());
  }
  return EmitTraceMetrics(
      options, tracer, Percentile(cycles.op_ms, 0.5),
      {"io.update", "learn.fold", "learn.save", "core.rank_scene"}, record);
}

}  // namespace fixybench
