// batch-dense: the paper's offline audit. Every scene of a dense-urban
// dataset is ranked for the three paper apps through
// Fixy::RankDatasetStreaming over the FXB cache, on nproc rank threads.
// An op is one scene; its latency is the scene's rank wall time inside
// the pass (SceneOutcome::wall_ms), and throughput counts scenes over
// whole passes.
#include "bench.h"
#include "common/macros.h"
#include "io/fxb.h"

namespace fixybench {

namespace {

// Each app's proposals over every scene of the report, in dataset order:
// what `fixy_cli rank --out` writes with no --top cap.
std::vector<std::string> DatasetWorklists(const fixy::MultiAppReport& report) {
  std::vector<std::string> worklists;
  for (const fixy::BatchReport& app : report.reports) {
    std::vector<fixy::ErrorProposal> all;
    for (const fixy::SceneOutcome& outcome : app.outcomes) {
      all.insert(all.end(), outcome.proposals.begin(), outcome.proposals.end());
    }
    worklists.push_back(WorklistBytes(all));
  }
  return worklists;
}

}  // namespace

Status RunBatchDense(const Options& options, RunRecord& record) {
  const Layout layout = LayoutFor(options.dir);
  const auto setup_start = Clock::now();
  fixy::Fixy fixy;
  FIXY_RETURN_IF_ERROR(fixy.LoadModel(layout.model));
  FIXY_ASSIGN_OR_RETURN(fixy::io::FxbReader reader,
                        fixy::io::OpenFreshCache(layout.data));
  const fixy::io::FxbSceneSource source(std::move(reader));
  const size_t scene_count = source.scene_count();
  fixy::BatchOptions batch;
  batch.num_threads = HardwareThreads();
  batch.collect_metrics = true;  // per-scene wall_ms
  // Warm-up pass: page cache, the lazy KDE mode densities, the pools.
  FIXY_ASSIGN_OR_RETURN(
      const fixy::MultiAppReport warm,
      fixy.RankDatasetStreaming(source, PaperApps(), batch));
  record.warmup_s = SecondsSince(setup_start);

  // One window per full-dataset pass.
  std::vector<Window> passes;
  std::vector<double> scene_ms;
  const auto start = Clock::now();
  do {
    const auto pass_start = Clock::now();
    Result<fixy::MultiAppReport> report =
        fixy.RankDatasetStreaming(source, PaperApps(), batch);
    Window pass;
    pass.seconds = SecondsSince(pass_start);
    record.attempted += scene_count;
    if (!report.ok()) {
      for (size_t i = 0; i < scene_count; ++i) {
        record.Fail("pass failed: " + report.status().ToString());
      }
      continue;
    }
    pass.scenes = static_cast<double>(scene_count);
    for (size_t i = 0; i < scene_count; ++i) {
      bool ok = true;
      for (size_t a = 0; a < report->reports.size(); ++a) {
        const fixy::SceneOutcome& outcome = report->reports[a].outcomes[i];
        ok = ok && outcome.ok() &&
             SameProposals(outcome.proposals,
                           warm.reports[a].outcomes[i].proposals);
      }
      if (!ok) record.Fail("scene " + std::to_string(i) + " differs");
      pass.op_ms.push_back(report->reports.front().outcomes[i].wall_ms);
    }
    scene_ms.insert(scene_ms.end(), pass.op_ms.begin(), pass.op_ms.end());
    passes.push_back(std::move(pass));
  } while (SecondsSince(start) < options.seconds);
  record.Metric("peak_rss_mb", SelfPeakRssMb(), "MB");
  EmitOpMetrics(record, passes);

  // Verdict: every pass matched the warm-up pass; the warm-up pass must
  // match a 1-thread RankDataset over the materialized dataset.
  fixy::Dataset dataset;
  for (size_t i = 0; i < scene_count; ++i) {
    FIXY_ASSIGN_OR_RETURN(fixy::Scene scene, source.DecodeScene(i));
    dataset.scenes.push_back(std::move(scene));
  }
  fixy::BatchOptions serial;
  serial.num_threads = 1;
  FIXY_ASSIGN_OR_RETURN(const fixy::MultiAppReport reference,
                        fixy.RankDataset(dataset, PaperApps(), serial));
  if (DatasetWorklists(reference) != DatasetWorklists(warm)) {
    record.failures.push_back(
        "streaming worklists differ from a 1-thread RankDataset");
    record.failed = record.attempted;
  }
  if (!options.trace) return Status::Ok();

  // Traced pass: one scene per op, single-threaded, in dataset order.
  FIXY_ASSIGN_OR_RETURN(const auto layers, LoadRankLayers(layout.model));
  Tracer tracer;
  const auto traced_start = Clock::now();
  for (size_t i = 0; i < scene_count; ++i) {
    if (i > 0 && SecondsSince(traced_start) > options.seconds) break;
    ++record.attempted;
    Tracer::Scope op(tracer, options.workload);
    {
      Tracer::Scope span(tracer, "io.fingerprint");
      FIXY_RETURN_IF_ERROR(
          fixy::io::ComputeSourceFingerprint(layout.data).status());
    }
    Result<fixy::Scene> scene = Status::Internal("not decoded");
    {
      Tracer::Scope span(tracer, "io.decode");
      scene = source.reader().DecodeScene(i);
    }
    FIXY_RETURN_IF_ERROR(scene.status());
    const Result<std::vector<std::string>> worklists =
        TraceRankScene(tracer, fixy, *layers, *scene, 10);
    if (!worklists.ok()) record.Fail(worklists.status().ToString());
  }
  FIXY_RETURN_IF_ERROR(TraceWriteProbe(options, tracer, fixy, 4));
  {
    FIXY_ASSIGN_OR_RETURN(const auto daemon, DaemonProcess::Start(options, 1));
    FIXY_RETURN_IF_ERROR(TraceStatusProbe(tracer, daemon->socket(), 50));
    FIXY_RETURN_IF_ERROR(daemon->Shutdown());
  }
  // The untraced per-scene wall time is the rank alone.
  return EmitTraceMetrics(options, tracer, Percentile(scene_ms, 0.5),
                          {"core.rank_scene"}, record);
}

}  // namespace fixybench
