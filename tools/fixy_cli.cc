// fixy_cli — command-line front end for the Fixy pipeline.
//
// Subcommands:
//   generate  --profile lyft|internal --scenes N --seed S --out DIR
//             Simulate a labeled dataset (with injected errors) to DIR.
//   sim       --out DIR [--preset NAME | --scenario FILE] [--scenes N]
//             [--seed S] [--fxb] [--list-presets]
//             The spec-driven generate: materialize a scenario (built-in
//             preset or JSON spec file) to DIR — scene JSON, ground-truth
//             ledger, and a lock file recording the recipe; --fxb also
//             builds dataset.fxb straight from memory (no JSON re-parse).
//   sweep     --report FILE [--presets a,b,c|all] [--scenarios f1,f2]
//             [--apps a,b,c] [--scenes N] [--seed S] [--top K]
//             [--threads N] [--estimator E] [--cache-dir DIR]
//             [--baseline FILE] [--fail-on-regression] [--diff-only]
//             Run a scenario x application grid (generate or reuse each
//             dataset, learn, rank, score against the ledger), print the
//             per-cell precision@k/recall table, and save the report;
//             --baseline diffs against a previous run's report.
//   learn     --data DIR --model FILE [--estimator kde|histogram|gaussian]
//             Learn feature distributions from DIR's labels; save to FILE.
//   rank      --data DIR --model FILE
//             [--app NAME | --apps a,b,c|all] [--top K] [--top-k K]
//             [--threads N] [--metrics-json FILE] [--verbose-metrics]
//             Rank potential errors in every scene of DIR, fanning scenes
//             out across N worker threads (0 = hardware concurrency).
//             Application names resolve against the engine's registry
//             (missing-tracks, missing-obs, model-errors, plus the demo
//             user-registered suspect-tracks); --apps ranks several
//             applications from ONE pass over the dataset — each scene is
//             decoded and associated once, and every app scores the shared
//             track set. Per-app results are byte-identical to solo runs.
//             --top-k K enables per-class top-k pruning (DESIGN.md §11):
//             applications that opt in skip compiling tracks that provably
//             cannot enter any scene's per-class top k; their surviving
//             proposals match the unpruned run exactly.
//             When DIR holds a fresh dataset.fxb cache (see `cache`),
//             scenes stream from it — decode overlapped with ranking —
//             instead of re-parsing JSON; --no-cache opts out.
//             --metrics-json dumps a PipelineMetrics snapshot (stage
//             timers + counters); --verbose-metrics prints it as a table.
//   cache     <DIR> (or --data DIR)
//             Build or incrementally refresh DIR's binary scene cache
//             (dataset.fxb): reports why it was stale, re-encodes only the
//             added/changed scenes, and verifies every fresh scene
//             round-trips byte-identically.
//   watch     --data DIR --model FILE [--interval-ms N] [--learn-labels]
//             Poll DIR for source changes; each change refreshes the cache
//             incrementally, optionally folds the changed scenes into the
//             model (sufficient-statistics merge), and re-ranks only the
//             changed scenes.
//   info      --data DIR
//             Print dataset statistics.
//
// Example session:
//   fixy_cli generate --profile lyft --scenes 4 --out /tmp/ds
//   fixy_cli learn    --data /tmp/ds --model /tmp/model.json
//   fixy_cli rank     --data /tmp/ds --model /tmp/model.json --top 5
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "common/macros.h"
#include "core/applications.h"
#include "core/engine.h"
#include "daemon/client.h"
#include "daemon/protocol.h"
#include "daemon/server.h"
#include "daemon/watch.h"
#include "dsl/aof.h"
#include "graph/factor_graph.h"
#include "io/fxb.h"
#include "core/model_io.h"
#include "core/proposal_io.h"
#include "core/ranker.h"
#include "eval/dataset_stats.h"
#include "io/scene_io.h"
#include "eval/cell_diff.h"
#include "obs/metrics.h"
#include "obs/metrics_json.h"
#include "scenario/materialize.h"
#include "scenario/presets.h"
#include "scenario/spec.h"
#include "scenario/sweep.h"
#include "shard/coordinator.h"
#include "shard/worker.h"
#include "sim/generate.h"

namespace fixy::cli {
namespace {

// Strict numeric flag parsing: the whole value must be a base-10 integer
// that fits the target type. (std::atoi silently returned the fallback for
// garbage like --threads=abc and overflowed for --threads=9999999999.)
Result<int64_t> ParseInt64Flag(const std::string& name,
                               const std::string& text) {
  int64_t value = 0;
  const char* begin = text.c_str();
  const char* end = begin + text.size();
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec == std::errc::result_out_of_range) {
    return Status::InvalidArgument("--" + name + " value is out of range: " +
                                   text);
  }
  if (ec != std::errc() || ptr != end || text.empty()) {
    return Status::InvalidArgument("--" + name + " expects an integer, got: " +
                                   text);
  }
  return value;
}

// Minimal --flag value parser; every flag takes exactly one value, except
// the boolean switches listed in kBooleanFlags, which take none.
class Flags {
 public:
  static Result<Flags> Parse(int argc, char** argv, int first) {
    static const std::set<std::string> kBooleanFlags = {
        "keep-going", "fail-fast", "verbose-metrics", "no-cache", "resume",
        "learn-labels", "verify", "fxb", "list-presets", "diff-only",
        "fail-on-regression"};
    Flags flags;
    for (int i = first; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        return Status::InvalidArgument("expected a --flag, got: " + arg);
      }
      const std::string name = arg.substr(2);
      if (kBooleanFlags.count(name) > 0) {
        flags.values_[name] = "true";
        continue;
      }
      if (i + 1 >= argc) {
        return Status::InvalidArgument("flag needs a value: " + arg);
      }
      flags.values_[name] = argv[++i];
    }
    return flags;
  }

  std::string GetOr(const std::string& name,
                    const std::string& fallback) const {
    const auto it = values_.find(name);
    return it == values_.end() ? fallback : it->second;
  }

  Result<std::string> GetRequired(const std::string& name) const {
    const auto it = values_.find(name);
    if (it == values_.end()) {
      return Status::InvalidArgument("missing required flag: --" + name);
    }
    return it->second;
  }

  /// Checked numeric flags: a present-but-malformed or out-of-range value
  /// is a CLI error, never silently the fallback.
  Result<int> GetIntOr(const std::string& name, int fallback) const {
    const auto it = values_.find(name);
    if (it == values_.end()) return fallback;
    FIXY_ASSIGN_OR_RETURN(int64_t value, ParseInt64Flag(name, it->second));
    if (value < std::numeric_limits<int>::min() ||
        value > std::numeric_limits<int>::max()) {
      return Status::InvalidArgument("--" + name + " value is out of range: " +
                                     it->second);
    }
    return static_cast<int>(value);
  }

  Result<int64_t> GetInt64Or(const std::string& name, int64_t fallback) const {
    const auto it = values_.find(name);
    if (it == values_.end()) return fallback;
    return ParseInt64Flag(name, it->second);
  }

  bool Has(const std::string& name) const {
    return values_.count(name) > 0;
  }

 private:
  std::map<std::string, std::string> values_;
};

// Distinguishes the ways a dataset path can be wrong *before* any loader
// runs, so `rank` on a missing or empty directory fails with a clear
// message instead of a generic manifest-read error (or, worse, the
// all-scenes-failed path).
Status CheckDatasetDirectory(const std::string& directory) {
  std::error_code ec;
  if (!std::filesystem::is_directory(directory, ec) || ec) {
    return Status::NotFound("dataset directory does not exist: " + directory);
  }
  if (!std::filesystem::exists(directory + "/manifest.json", ec) || ec) {
    return Status::InvalidArgument(
        "not a fixy dataset (no manifest.json in " + directory + ")");
  }
  return Status::Ok();
}

// Demo user-defined application, registered through
// FixyOptions::extra_applications exactly as an out-of-tree error finder
// would be (no src/core change): ranks human-labeled tracks by
// *implausibility* under the learned distributions — the inverting AOF of
// the model-error application pointed at labels instead of predictions —
// surfacing labels whose size or motion disagrees with the fleet's priors.
AppSpec SuspectTracksApp() {
  AppSpec app;
  app.name = "suspect-tracks";
  app.view = SceneView::kFull;
  app.build_spec = [](const LearnedState& learned,
                      const ApplicationOptions& options) {
    (void)options;
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
      if (track.TotalObservations() <=
          static_cast<size_t>(ctx.options.min_track_observations)) {
        continue;
      }
      const std::optional<double> score =
          ctx.graph.ScoreTrack(t, ctx.options.normalize_scores);
      if (!score.has_value()) continue;
      ErrorProposal proposal;
      proposal.scene_name = ctx.scene.name();
      proposal.kind = ProposalKind::kModelError;
      proposal.track_id = track.id();
      proposal.object_class = track.MajorityClass().value_or(ObjectClass::kCar);
      proposal.score = *score;
      proposal.model_confidence = track.MeanModelConfidence().value_or(0.0);
      proposal.first_frame = track.FirstFrame();
      proposal.last_frame = track.LastFrame();
      const std::optional<size_t> b = internal::ClosestApproachBundle(track);
      if (b.has_value()) {
        const ObservationBundle& bundle = track.bundles()[*b];
        const Observation* obs = internal::RepresentativeObservation(bundle);
        proposal.frame_index = bundle.frame_index;
        if (obs != nullptr) proposal.box = obs->box;
      }
      proposals.push_back(std::move(proposal));
    }
    return proposals;
  };
  return app;
}

// `--apps a,b,c`: split on commas (names cannot contain commas — the
// registry rejects them at registration).
std::vector<std::string> SplitApps(const std::string& list) {
  std::vector<std::string> names;
  std::string current;
  for (const char c : list) {
    if (c == ',') {
      names.push_back(current);
      current.clear();
    } else {
      current += c;
    }
  }
  names.push_back(current);
  return names;
}

// The per-app output path for a multi-application `--out`:
// proposals.json -> proposals.<app>.json.
std::string PerAppOutPath(const std::string& out_path,
                          const std::string& app) {
  const std::filesystem::path path(out_path);
  std::filesystem::path renamed = path;
  renamed.replace_filename(path.stem().string() + "." + app +
                           path.extension().string());
  return renamed.string();
}

Result<sim::SimProfile> ProfileByName(const std::string& name) {
  if (name == "lyft") return sim::LyftLikeProfile();
  if (name == "internal") return sim::InternalLikeProfile();
  return Status::InvalidArgument("unknown profile: " + name +
                                 " (expected lyft|internal)");
}

Status CmdGenerate(const Flags& flags) {
  FIXY_ASSIGN_OR_RETURN(std::string out, flags.GetRequired("out"));
  FIXY_ASSIGN_OR_RETURN(sim::SimProfile profile,
                        ProfileByName(flags.GetOr("profile", "lyft")));
  FIXY_ASSIGN_OR_RETURN(const int scenes, flags.GetIntOr("scenes", 4));
  if (scenes < 1) {
    return Status::InvalidArgument("--scenes must be >= 1");
  }
  FIXY_ASSIGN_OR_RETURN(const int64_t seed_value, flags.GetInt64Or("seed", 42));
  const uint64_t seed = static_cast<uint64_t>(seed_value);
  const sim::GeneratedDataset generated =
      sim::GenerateDataset(profile, profile.name, scenes, seed);
  FIXY_RETURN_IF_ERROR(io::SaveDataset(generated.dataset, out));
  std::printf("wrote %d scenes (%zu observations, %zu injected errors) to "
              "%s\n",
              scenes, generated.dataset.TotalObservations(),
              generated.ledger.errors.size(), out.c_str());
  return Status::Ok();
}

// `sim` — the spec-driven generate: a scenario (preset or JSON file)
// materializes into scene JSON + ground-truth ledger + lock file, with
// --fxb building the binary cache straight from the in-memory dataset
// (no JSON re-parse), which is the path that makes 100k+ scene datasets
// practical.
Status CmdSim(const Flags& flags) {
  if (flags.Has("list-presets")) {
    const std::vector<std::string> names = scenario::PresetNames();
    const std::vector<std::string> descriptions =
        scenario::PresetDescriptions();
    for (size_t i = 0; i < names.size(); ++i) {
      std::printf("%-26s %s\n", names[i].c_str(), descriptions[i].c_str());
    }
    return Status::Ok();
  }
  if (flags.Has("preset") && flags.Has("scenario")) {
    return Status::InvalidArgument(
        "pass either --preset or --scenario, not both");
  }
  scenario::ScenarioSpec spec;
  if (flags.Has("scenario")) {
    FIXY_ASSIGN_OR_RETURN(spec,
                          scenario::LoadScenario(flags.GetOr("scenario", "")));
  } else {
    FIXY_ASSIGN_OR_RETURN(
        spec, scenario::PresetByName(flags.GetOr("preset", "lyft-like")));
  }
  FIXY_ASSIGN_OR_RETURN(std::string out, flags.GetRequired("out"));
  scenario::MaterializeOptions options;
  FIXY_ASSIGN_OR_RETURN(options.scene_count, flags.GetIntOr("scenes", 0));
  if (options.scene_count < 0) {
    return Status::InvalidArgument(
        "--scenes must be >= 0 (0 = the scenario's own count)");
  }
  if (flags.Has("seed")) {
    FIXY_ASSIGN_OR_RETURN(const int64_t seed, flags.GetInt64Or("seed", 0));
    options.seed = static_cast<uint64_t>(seed);
  }
  options.write_fxb = flags.Has("fxb");
  FIXY_ASSIGN_OR_RETURN(
      const scenario::MaterializedDataset result,
      scenario::MaterializeScenarioDataset(spec, out, options));
  std::printf("wrote %zu scenes (%zu observations, %zu injected errors) "
              "from scenario \"%s\" to %s%s\n",
              result.data.dataset.scenes.size(),
              result.data.dataset.TotalObservations(),
              result.data.ledger.errors.size(), spec.name.c_str(), out.c_str(),
              options.write_fxb ? " (+ dataset.fxb)" : "");
  return Status::Ok();
}

// The scenario half of a sweep grid: `--presets a,b,c|all` resolves
// against the registry, `--scenarios f1,f2` loads spec files, and the two
// concatenate (presets first).
Result<std::vector<scenario::ScenarioSpec>> SweepGrid(const Flags& flags) {
  std::vector<scenario::ScenarioSpec> specs;
  const std::string presets =
      flags.GetOr("presets", flags.Has("scenarios") ? "" : "all");
  if (presets == "all") {
    for (const std::string& name : scenario::PresetNames()) {
      FIXY_ASSIGN_OR_RETURN(scenario::ScenarioSpec spec,
                            scenario::PresetByName(name));
      specs.push_back(std::move(spec));
    }
  } else if (!presets.empty()) {
    for (const std::string& name : SplitApps(presets)) {
      FIXY_ASSIGN_OR_RETURN(scenario::ScenarioSpec spec,
                            scenario::PresetByName(name));
      specs.push_back(std::move(spec));
    }
  }
  if (flags.Has("scenarios")) {
    for (const std::string& path : SplitApps(flags.GetOr("scenarios", ""))) {
      FIXY_ASSIGN_OR_RETURN(scenario::ScenarioSpec spec,
                            scenario::LoadScenario(path));
      specs.push_back(std::move(spec));
    }
  }
  return specs;
}

// `sweep` — run a scenario × application grid (generate or reuse each
// scenario's dataset, learn, rank, score against the ground-truth
// ledger), print the per-cell precision@k/recall table, save the report
// as JSON, and optionally diff against a previous run's report.
Status CmdSweep(const Flags& flags) {
  FIXY_ASSIGN_OR_RETURN(std::string report_path, flags.GetRequired("report"));
  const std::string baseline_path = flags.GetOr("baseline", "");

  // --diff-only: compare two saved reports without running anything.
  if (flags.Has("diff-only")) {
    if (baseline_path.empty()) {
      return Status::InvalidArgument(
          "--diff-only compares --baseline FILE against --report FILE");
    }
    FIXY_ASSIGN_OR_RETURN(const scenario::SweepReport base,
                          scenario::LoadSweepReport(baseline_path));
    FIXY_ASSIGN_OR_RETURN(const scenario::SweepReport current,
                          scenario::LoadSweepReport(report_path));
    const eval::CellDiffReport diff =
        scenario::DiffSweepReports(base, current);
    std::printf("%s", eval::FormatCellDiff(diff).c_str());
    if (flags.Has("fail-on-regression") && diff.HasRegression()) {
      return Status::FailedPrecondition("sweep regressed against baseline " +
                                        baseline_path);
    }
    return Status::Ok();
  }

  FIXY_ASSIGN_OR_RETURN(const std::vector<scenario::ScenarioSpec> specs,
                        SweepGrid(flags));
  scenario::SweepOptions options;
  if (flags.Has("apps")) {
    options.apps = SplitApps(flags.GetOr("apps", ""));
  }
  FIXY_ASSIGN_OR_RETURN(options.scenes_per_cell, flags.GetIntOr("scenes", 0));
  if (options.scenes_per_cell < 0) {
    return Status::InvalidArgument(
        "--scenes must be >= 0 (0 = each scenario's own count)");
  }
  if (flags.Has("seed")) {
    FIXY_ASSIGN_OR_RETURN(const int64_t seed, flags.GetInt64Or("seed", 0));
    options.seed = static_cast<uint64_t>(seed);
  }
  FIXY_ASSIGN_OR_RETURN(const int top, flags.GetIntOr("top", 10));
  if (top < 1) {
    return Status::InvalidArgument("--top must be >= 1");
  }
  options.top_k = static_cast<size_t>(top);
  FIXY_ASSIGN_OR_RETURN(options.threads, flags.GetIntOr("threads", 0));
  if (options.threads < 0) {
    return Status::InvalidArgument("--threads must be >= 0");
  }
  options.cache_dir = flags.GetOr("cache-dir", "");
  const std::string estimator = flags.GetOr("estimator", "kde");
  if (estimator == "kde") {
    options.engine.learner.estimator = EstimatorKind::kKde;
  } else if (estimator == "histogram") {
    options.engine.learner.estimator = EstimatorKind::kHistogram;
  } else if (estimator == "gaussian") {
    options.engine.learner.estimator = EstimatorKind::kGaussian;
  } else {
    return Status::InvalidArgument("unknown estimator: " + estimator);
  }
  // Same registry surface as `rank`: the demo user application is
  // rankable in a sweep too (--apps suspect-tracks).
  options.engine.extra_applications.push_back(SuspectTracksApp());

  FIXY_ASSIGN_OR_RETURN(const scenario::SweepReport report,
                        scenario::RunSweep(specs, options));
  FIXY_RETURN_IF_ERROR(scenario::SaveSweepReport(report, report_path));
  std::printf("%s", scenario::FormatSweepTable(report).c_str());
  std::printf("wrote sweep report (%zu cells) to %s\n", report.cells.size(),
              report_path.c_str());

  if (!baseline_path.empty()) {
    FIXY_ASSIGN_OR_RETURN(const scenario::SweepReport base,
                          scenario::LoadSweepReport(baseline_path));
    const eval::CellDiffReport diff = scenario::DiffSweepReports(base, report);
    std::printf("\ndiff against %s:\n%s", baseline_path.c_str(),
                eval::FormatCellDiff(diff).c_str());
    if (flags.Has("fail-on-regression") && diff.HasRegression()) {
      return Status::FailedPrecondition("sweep regressed against baseline " +
                                        baseline_path);
    }
  }
  return Status::Ok();
}

Status CmdLearn(const Flags& flags) {
  FIXY_ASSIGN_OR_RETURN(std::string data, flags.GetRequired("data"));
  FIXY_ASSIGN_OR_RETURN(std::string model_path, flags.GetRequired("model"));
  FIXY_ASSIGN_OR_RETURN(Dataset dataset, io::LoadDataset(data));

  FixyOptions options;
  const std::string estimator = flags.GetOr("estimator", "kde");
  if (estimator == "kde") {
    options.learner.estimator = EstimatorKind::kKde;
  } else if (estimator == "histogram") {
    options.learner.estimator = EstimatorKind::kHistogram;
  } else if (estimator == "gaussian") {
    options.learner.estimator = EstimatorKind::kGaussian;
  } else {
    return Status::InvalidArgument("unknown estimator: " + estimator);
  }

  Fixy fixy(std::move(options));
  FIXY_RETURN_IF_ERROR(fixy.Learn(dataset));
  FIXY_RETURN_IF_ERROR(fixy.SaveModel(model_path));
  std::printf("learned %zu feature distributions from %zu scenes; model "
              "saved to %s\n",
              fixy.learned_features().size() + 1, dataset.scenes.size(),
              model_path.c_str());
  return Status::Ok();
}

Status CmdRank(const Flags& flags) {
  FIXY_ASSIGN_OR_RETURN(std::string data, flags.GetRequired("data"));
  FIXY_ASSIGN_OR_RETURN(std::string model_path, flags.GetRequired("model"));
  FIXY_ASSIGN_OR_RETURN(const int top, flags.GetIntOr("top", 10));
  if (top < 0) {
    return Status::InvalidArgument("--top must be >= 0");
  }
  // --workers N > 0 switches to the sharded multi-process pipeline: the
  // dataset splits into scene-range shards, each ranked by a fresh
  // `fixy_cli rank-shard` child under supervision (heartbeats, capped
  // exponential backoff retries, quarantine after K attempts), with a
  // CRC-protected checkpoint per completed shard so --resume continues a
  // killed run from the last completed shard.
  FIXY_ASSIGN_OR_RETURN(const int workers, flags.GetIntOr("workers", 0));
  if (workers < 0) {
    return Status::InvalidArgument("--workers must be >= 0");
  }
  const bool sharded = workers > 0;
  if (flags.Has("resume") && !sharded) {
    return Status::InvalidArgument("--resume requires --workers N");
  }
  if (sharded && flags.Has("fail-fast")) {
    return Status::InvalidArgument(
        "--fail-fast is not supported with --workers: shard runs always "
        "quarantine failures (per scene and per shard)");
  }
  // --keep-going: tolerate corrupt scene files at load and quarantine
  // scenes that fail to rank; exit non-zero only when nothing ranked.
  // --fail-fast restores strict first-failure-wins semantics (the default).
  // Sharded runs are keep-going by construction.
  const bool keep_going =
      (flags.Has("keep-going") || sharded) && !flags.Has("fail-fast");

  const std::string out_path = flags.GetOr("out", "");
  const std::string metrics_path = flags.GetOr("metrics-json", "");
  const bool verbose_metrics = flags.Has("verbose-metrics");
  const bool metrics_on = verbose_metrics || !metrics_path.empty();

  // The ambient collector picks up the single-threaded stages (dataset
  // load, model load); the batch itself collects per scene and returns its
  // deterministic totals on the report, merged in below.
  obs::MetricsCollector collector;
  const obs::MetricsScope metrics_scope(metrics_on ? &collector : nullptr);

  FIXY_RETURN_IF_ERROR(CheckDatasetDirectory(data));
  if (metrics_on) {
    // Zero-touch every io.* key either ingestion path can record, so the
    // snapshot key set is identical whether scenes streamed from the FXB
    // cache or were parsed from JSON.
    io::RecordFxbMetricsSchema();
    shard::RecordShardMetricsSchema();
    scenario::RecordScenarioMetricsSchema();
    obs::Count("io.bytes_read", 0);
    obs::Count("io.files_read", 0);
    obs::AddTimeNs("io.load", 0);
    obs::AddTimeNs("io.parse", 0);
    // Gauges merge with max(), so the streaming path's real peak always
    // wins over this schema placeholder.
    obs::SetGauge("stream.resident_scenes_peak", 0);
  }

  // Every application — the three standard ones plus the demo user app —
  // lives in one registry; --app/--apps resolve against it, so the
  // unknown-app error lists exactly what is registered.
  FixyOptions fixy_options;
  FIXY_ASSIGN_OR_RETURN(fixy_options.application.top_k_per_class,
                        flags.GetIntOr("top-k", 0));
  if (fixy_options.application.top_k_per_class < 0) {
    return Status::InvalidArgument("--top-k must be >= 0");
  }
  const int top_k = fixy_options.application.top_k_per_class;
  fixy_options.extra_applications.push_back(SuspectTracksApp());
  Fixy fixy(std::move(fixy_options));
  FIXY_RETURN_IF_ERROR(fixy.LoadModel(model_path));

  if (flags.Has("app") && flags.Has("apps")) {
    return Status::InvalidArgument("pass either --app or --apps, not both");
  }
  std::vector<std::string> apps;
  if (flags.Has("apps")) {
    const std::string list = flags.GetOr("apps", "");
    if (list == "all") {
      apps = fixy.applications().names();
    } else {
      apps = SplitApps(list);
    }
  } else {
    apps.push_back(flags.GetOr("app", "missing-tracks"));
  }
  // Validate the selection up front (before any dataset IO) so a typo'd
  // app name fails immediately with the registry's listing.
  FIXY_RETURN_IF_ERROR(fixy.applications().Resolve(apps).status());
  const bool multi = apps.size() > 1;

  if (metrics_on) {
    // Zero-touch the shared scene-pass keys and every *registered*
    // application's per-app keys, so the snapshot schema is one fixed set
    // regardless of which --app/--apps selection actually ran.
    obs::AddTimeNs("rank.track_build", 0);
    obs::Count("rank.track_builds", 0);
    daemon::RecordDaemonMetricsSchema(fixy.applications().names());
    for (const std::string& name : fixy.applications().names()) {
      obs::AddTimeNs("rank." + name + ".compile", 0);
      obs::Count("rank." + name + ".factors", 0);
      obs::Count("rank." + name + ".proposals", 0);
      obs::Count("rank." + name + ".pruned_tracks", 0);
    }
  }

  // Scenes rank in parallel across the pool (--threads, default hardware
  // concurrency); output order matches the dataset regardless of thread
  // count.
  BatchOptions batch;
  FIXY_ASSIGN_OR_RETURN(batch.num_threads, flags.GetIntOr("threads", 0));
  if (batch.num_threads < 0) {
    return Status::InvalidArgument("--threads must be >= 0");
  }
  batch.fail_fast = !keep_going;
  batch.collect_metrics = metrics_on;
  FIXY_ASSIGN_OR_RETURN(const int decode_threads,
                        flags.GetIntOr("decode-threads", 1));
  if (decode_threads < 1) {
    return Status::InvalidArgument("--decode-threads must be >= 1");
  }
  // Hard ceiling on decoded-but-unranked scenes resident in memory during
  // the streaming cache path (0 = 2x the rank threads).
  FIXY_ASSIGN_OR_RETURN(const int max_resident,
                        flags.GetIntOr("max-resident-scenes", 0));
  if (max_resident < 0) {
    return Status::InvalidArgument("--max-resident-scenes must be >= 0");
  }

  // Ingestion: a fresh dataset.fxb cache streams scenes into the rank
  // workers (decode overlapped with ranking); otherwise the JSON loader
  // materializes the dataset first. Both paths produce byte-identical
  // proposals — the cache is built with a round-trip parity check. Either
  // way every requested application ranks from the ONE pass: scenes are
  // decoded and associated once, then each app compiles and scores
  // against the shared track set.
  MultiAppReport multi_report;
  size_t files_skipped = 0;
  bool from_cache = false;
  if (sharded) {
    shard::ShardOptions shard_options;
    shard_options.workers = workers;
    FIXY_ASSIGN_OR_RETURN(shard_options.scenes_per_shard,
                          flags.GetIntOr("shard-scenes", 0));
    FIXY_ASSIGN_OR_RETURN(shard_options.max_attempts,
                          flags.GetIntOr("max-attempts", 3));
    FIXY_ASSIGN_OR_RETURN(shard_options.backoff_base_ms,
                          flags.GetIntOr("backoff-ms", 100));
    FIXY_ASSIGN_OR_RETURN(shard_options.backoff_cap_ms,
                          flags.GetIntOr("backoff-cap-ms", 5000));
    FIXY_ASSIGN_OR_RETURN(shard_options.heartbeat_timeout_ms,
                          flags.GetIntOr("heartbeat-timeout-ms", 30000));
    shard_options.resume = flags.Has("resume");
    shard_options.checkpoint_dir = flags.GetOr("checkpoint-dir", "");
    shard_options.worker_threads = batch.num_threads;
    shard_options.top_k_per_class = top_k;
    shard_options.no_cache = flags.Has("no-cache");
    FIXY_ASSIGN_OR_RETURN(
        shard::ShardRunReport shard_run,
        shard::RankDatasetSharded(data, model_path, apps, shard_options));
    for (size_t s = 0; s < shard_run.shards.size(); ++s) {
      const shard::ShardOutcome& outcome = shard_run.shards[s];
      if (outcome.quarantined) {
        std::printf("QUARANTINED shard %zu (scenes [%zu,%zu)): %s\n", s,
                    outcome.range.begin, outcome.range.end,
                    outcome.status.ToString().c_str());
      }
    }
    std::printf("sharded run: %zu shards, %zu completed (%zu checkpoints "
                "reused), %zu quarantined, %d workers\n",
                shard_run.shards.size(), shard_run.shards_completed,
                shard_run.checkpoints_reused, shard_run.shards_quarantined,
                workers);
    // Exit non-zero only when *every* shard failed — the existing
    // all-scenes-failed rule below implements exactly that, because a
    // quarantined shard fails all of its scenes.
    multi_report = std::move(shard_run.merged);
  }
  if (!sharded && !flags.Has("no-cache")) {
    Result<io::FxbReader> cache = io::OpenFreshCache(data);
    if (cache.ok()) {
      obs::Count("io.fxb.cache_hits");
      const io::FxbSceneSource source(std::move(cache).value());
      if (source.scene_count() == 0) {
        return Status::InvalidArgument(
            "dataset '" + source.reader().dataset_name() +
            "' contains no scenes");
      }
      std::printf("using cache: %s (%zu scenes)\n",
                  io::FxbCachePath(data).c_str(), source.scene_count());
      StreamOptions stream;
      stream.decode_threads = decode_threads;
      stream.max_resident_scenes = static_cast<size_t>(max_resident);
      FIXY_ASSIGN_OR_RETURN(
          multi_report,
          fixy.RankDatasetStreaming(source, apps, batch, stream));
      from_cache = true;
    } else {
      obs::Count("io.fxb.cache_misses");
      if (cache.status().code() == StatusCode::kFailedPrecondition) {
        // Surface *why* the cache is stale (per-file reasons) so the fix
        // is obvious from the rank output alone.
        const Result<io::CacheStaleness> staleness =
            io::ExplainCacheStaleness(data);
        std::printf("cache at %s is stale (%s); loading JSON (run "
                    "`fixy_cli cache %s` to refresh)\n",
                    io::FxbCachePath(data).c_str(),
                    staleness.ok() ? staleness->Summary().c_str()
                                   : cache.status().ToString().c_str(),
                    data.c_str());
      }
    }
  }
  if (!sharded && !from_cache) {
    io::DatasetLoadOptions load_options;
    load_options.tolerant = keep_going;
    FIXY_ASSIGN_OR_RETURN(io::DatasetLoadReport loaded,
                          io::LoadDataset(data, load_options));
    for (const io::SceneFileError& skipped : loaded.skipped) {
      std::printf("SKIPPED %s: %s\n", skipped.file.c_str(),
                  skipped.status.ToString().c_str());
    }
    files_skipped = loaded.skipped.size();
    const Dataset& dataset = loaded.dataset;
    if (dataset.scenes.empty() && files_skipped == 0) {
      return Status::InvalidArgument("dataset '" + dataset.name +
                                     "' contains no scenes");
    }
    FIXY_ASSIGN_OR_RETURN(multi_report, fixy.RankDataset(dataset, apps, batch));
  }

  // Per-app output sections: single-app output is byte-compatible with the
  // historical format; with several apps each gets a `== app: NAME ==`
  // header, its per-scene candidates, and (in keep-going mode) its own
  // summary line.
  size_t total_ok = 0;
  size_t total_failed = 0;
  std::vector<std::vector<ErrorProposal>> per_app_proposals(
      multi_report.apps.size());
  for (size_t a = 0; a < multi_report.apps.size(); ++a) {
    const BatchReport& report = multi_report.reports[a];
    if (multi) {
      std::printf("== app: %s ==\n", multi_report.apps[a].c_str());
    }
    std::vector<ErrorProposal>& all_proposals = per_app_proposals[a];
    for (const SceneOutcome& outcome : report.outcomes) {
      if (!outcome.ok()) {
        std::printf("FAILED %s: %s\n", outcome.scene_name.c_str(),
                    outcome.status.ToString().c_str());
        continue;
      }
      std::printf("%s: %zu candidates\n", outcome.scene_name.c_str(),
                  outcome.proposals.size());
      int rank = 1;
      const auto scene_top = TopK(outcome.proposals, static_cast<size_t>(top));
      for (const ErrorProposal& p : scene_top) {
        std::printf("  #%2d %s\n", rank++, p.ToString().c_str());
      }
      all_proposals.insert(all_proposals.end(), scene_top.begin(),
                           scene_top.end());
    }
    if (keep_going) {
      std::printf("ranked %zu/%zu scenes (%zu quarantined, %zu files "
                  "skipped)\n",
                  report.scenes_ok, report.outcomes.size(),
                  report.scenes_quarantined, files_skipped);
    }
    total_ok += report.scenes_ok;
    total_failed += report.scenes_failed;
  }
  if (keep_going) {
    const bool nothing_loaded =
        multi_report.reports.front().outcomes.empty() && files_skipped > 0;
    if (nothing_loaded || (total_ok == 0 && total_failed > 0)) {
      return Status::Internal("all scenes failed to load or rank");
    }
  }
  if (!out_path.empty()) {
    for (size_t a = 0; a < multi_report.apps.size(); ++a) {
      const std::string path =
          multi ? PerAppOutPath(out_path, multi_report.apps[a]) : out_path;
      FIXY_RETURN_IF_ERROR(SaveProposals(per_app_proposals[a], path));
      std::printf("wrote %zu proposals to %s\n", per_app_proposals[a].size(),
                  path.c_str());
    }
  }
  if (metrics_on) {
    collector.Merge(multi_report.metrics);
    const obs::PipelineMetrics snapshot = collector.Snapshot();
    FIXY_RETURN_IF_ERROR(obs::ValidateMetrics(snapshot));
    if (!metrics_path.empty()) {
      FIXY_RETURN_IF_ERROR(obs::SaveMetrics(snapshot, metrics_path));
      std::printf("wrote metrics to %s\n", metrics_path.c_str());
    }
    if (verbose_metrics) {
      std::printf("%s", obs::FormatMetricsTable(snapshot).c_str());
    }
  }
  return Status::Ok();
}

// The worker half of `rank --workers N`: ranks one shard and writes its
// checkpoint. Spawned by the coordinator, not meant for direct use —
// stdout is the binary frame channel, so this command prints nothing.
Status CmdRankShard(const Flags& flags) {
  shard::ShardWorkerConfig config;
  FIXY_ASSIGN_OR_RETURN(config.data_dir, flags.GetRequired("data"));
  FIXY_ASSIGN_OR_RETURN(config.model_path, flags.GetRequired("model"));
  FIXY_ASSIGN_OR_RETURN(const std::string apps_list,
                        flags.GetRequired("apps"));
  config.apps = SplitApps(apps_list);
  FIXY_ASSIGN_OR_RETURN(const int shard_index, flags.GetIntOr("shard", -1));
  if (shard_index < 0) {
    return Status::InvalidArgument("--shard must be >= 0");
  }
  config.shard_index = static_cast<size_t>(shard_index);
  FIXY_ASSIGN_OR_RETURN(config.scenes_per_shard,
                        flags.GetIntOr("shard-scenes", 0));
  if (config.scenes_per_shard < 1) {
    return Status::InvalidArgument("--shard-scenes must be >= 1");
  }
  FIXY_ASSIGN_OR_RETURN(config.checkpoint_dir,
                        flags.GetRequired("checkpoint-dir"));
  FIXY_ASSIGN_OR_RETURN(config.top_k_per_class, flags.GetIntOr("top-k", 0));
  if (config.top_k_per_class < 0) {
    return Status::InvalidArgument("--top-k must be >= 0");
  }
  FIXY_ASSIGN_OR_RETURN(config.threads, flags.GetIntOr("threads", 1));
  if (config.threads < 0) {
    return Status::InvalidArgument("--threads must be >= 0");
  }
  FIXY_ASSIGN_OR_RETURN(config.heartbeat_interval_ms,
                        flags.GetIntOr("heartbeat-ms", 100));
  config.no_cache = flags.Has("no-cache");
  config.out_fd = 1;  // stdout is the coordinator's frame pipe
  FIXY_RETURN_IF_ERROR(CheckDatasetDirectory(config.data_dir));

  // Same engine configuration as CmdRank, so per-scene results are
  // byte-identical to the single-process run.
  FixyOptions options;
  options.extra_applications.push_back(SuspectTracksApp());
  return shard::RunShardWorker(config, std::move(options));
}

// fixyd: keep the model, registry, and FXB readers resident and serve
// rank/learn/status/shutdown requests over a unix socket (DESIGN.md §13).
// The engine is configured exactly like CmdRank's so daemon rank
// responses are byte-identical to one-shot CLI runs.
Status CmdServe(const Flags& flags) {
  daemon::ServerOptions options;
  FIXY_ASSIGN_OR_RETURN(options.socket_path, flags.GetRequired("socket"));
  options.model_path = flags.GetOr("model", "");
  FIXY_ASSIGN_OR_RETURN(options.worker_threads, flags.GetIntOr("threads", 4));
  if (options.worker_threads < 1) {
    return Status::InvalidArgument("--threads must be >= 1");
  }
  FIXY_ASSIGN_OR_RETURN(options.rank_threads,
                        flags.GetIntOr("rank-threads", 0));
  if (options.rank_threads < 0) {
    return Status::InvalidArgument("--rank-threads must be >= 0");
  }
  FIXY_ASSIGN_OR_RETURN(options.max_queue_depth,
                        flags.GetIntOr("queue-depth", 64));
  if (options.max_queue_depth < 1) {
    return Status::InvalidArgument("--queue-depth must be >= 1");
  }
  FIXY_ASSIGN_OR_RETURN(options.engine.application.top_k_per_class,
                        flags.GetIntOr("top-k", 0));
  if (options.engine.application.top_k_per_class < 0) {
    return Status::InvalidArgument("--top-k must be >= 0");
  }
  const std::string estimator = flags.GetOr("estimator", "kde");
  if (estimator == "kde") {
    options.engine.learner.estimator = EstimatorKind::kKde;
  } else if (estimator == "histogram") {
    options.engine.learner.estimator = EstimatorKind::kHistogram;
  } else if (estimator == "gaussian") {
    options.engine.learner.estimator = EstimatorKind::kGaussian;
  } else {
    return Status::InvalidArgument("unknown estimator: " + estimator);
  }
  options.engine.extra_applications.push_back(SuspectTracksApp());
  FIXY_ASSIGN_OR_RETURN(std::unique_ptr<daemon::FixydServer> server,
                        daemon::FixydServer::Create(std::move(options)));
  std::printf("fixyd serving on %s (pid %d, %s)\n",
              server->socket_path().c_str(), static_cast<int>(::getpid()),
              flags.Has("model") ? "model loaded" : "no model yet");
  std::fflush(stdout);  // scripts wait for this line before querying
  FIXY_RETURN_IF_ERROR(server->Serve());
  std::printf("fixyd stopped\n");
  return Status::Ok();
}

// The thin client: one request per invocation, against a running fixyd.
Status CmdQuery(const Flags& flags) {
  FIXY_ASSIGN_OR_RETURN(const std::string socket, flags.GetRequired("socket"));
  FIXY_ASSIGN_OR_RETURN(daemon::RequestKind kind,
                        daemon::RequestKindFromString(
                            flags.GetOr("cmd", "status")));
  daemon::Request request;
  request.kind = kind;
  request.data_dir = flags.GetOr("data", "");
  request.scene = flags.GetOr("scene", "");
  FIXY_ASSIGN_OR_RETURN(request.scene_index,
                        flags.GetInt64Or("scene-index", -1));
  if (flags.Has("app") && flags.Has("apps")) {
    return Status::InvalidArgument("pass either --app or --apps, not both");
  }
  if (flags.Has("apps")) {
    const std::string list = flags.GetOr("apps", "");
    // "all" -> empty selection -> the daemon ranks every registered app.
    if (list != "all") request.apps = SplitApps(list);
  } else if (flags.Has("app")) {
    request.apps.push_back(flags.GetOr("app", ""));
  }
  FIXY_ASSIGN_OR_RETURN(request.top, flags.GetIntOr("top", 10));
  if (request.top < 0) {
    return Status::InvalidArgument("--top must be >= 0");
  }
  FIXY_ASSIGN_OR_RETURN(request.deadline_ms,
                        flags.GetInt64Or("deadline-ms", 0));
  request.model_out = flags.GetOr("model", "");
  FIXY_ASSIGN_OR_RETURN(const int timeout_ms,
                        flags.GetIntOr("timeout-ms", 120000));
  const std::string out_path = flags.GetOr("out", "");

  FIXY_ASSIGN_OR_RETURN(daemon::FixydClient client,
                        daemon::FixydClient::Connect(socket));
  FIXY_ASSIGN_OR_RETURN(const daemon::Response response,
                        client.Call(request, timeout_ms));
  if (!response.status.ok()) return response.status;

  switch (kind) {
    case daemon::RequestKind::kRank:
    case daemon::RequestKind::kRankDataset: {
      const json::Value& result = response.result;
      const json::Value* apps = result.Find("apps");
      const json::Value* proposals = result.Find("proposals");
      const json::Value* counts = result.Find("counts");
      if (apps == nullptr || !apps->is_array() || proposals == nullptr ||
          counts == nullptr) {
        return Status::Internal("daemon sent a malformed rank result");
      }
      const bool multi = apps->AsArray().size() > 1;
      for (const json::Value& app_value : apps->AsArray()) {
        const std::string& app = app_value.AsString();
        const json::Value* count = counts->Find(app);
        std::printf("%s: %s proposals\n", app.c_str(),
                    count != nullptr && count->is_number()
                        ? std::to_string(static_cast<long long>(
                              count->AsDouble())).c_str()
                        : "?");
        if (out_path.empty()) continue;
        const json::Value* text = proposals->Find(app);
        if (text == nullptr || !text->is_string()) {
          return Status::Internal("daemon sent no proposals for " + app);
        }
        // The daemon serialized with SaveProposals' exact format; write
        // the bytes verbatim so the file is cmp-identical to a one-shot
        // `fixy_cli rank --out` run.
        const std::string path = multi ? PerAppOutPath(out_path, app)
                                       : out_path;
        std::ofstream out(path, std::ios::binary);
        if (!out) return Status::IoError("cannot open " + path);
        out << text->AsString();
        if (!out.good()) return Status::IoError("failed writing " + path);
        out.close();
        std::printf("wrote proposals to %s\n", path.c_str());
      }
      return Status::Ok();
    }
    case daemon::RequestKind::kLearn:
      std::printf("daemon re-learned: %s\n",
                  json::Write(response.result).c_str());
      return Status::Ok();
    case daemon::RequestKind::kStatus:
      std::printf("%s\n", json::Write(response.result, /*pretty=*/true).c_str());
      return Status::Ok();
    case daemon::RequestKind::kShutdown:
      std::printf("daemon is draining and will exit\n");
      return Status::Ok();
  }
  return Status::Ok();
}

Status CmdCache(const std::string& positional, const Flags& flags) {
  std::string data = positional;
  if (data.empty()) {
    FIXY_ASSIGN_OR_RETURN(data, flags.GetRequired("data"));
  }
  FIXY_RETURN_IF_ERROR(CheckDatasetDirectory(data));
  // Report *why* a refresh is needed before doing it — one line per
  // changed file (added/removed/resized/touched/rewritten), so the cache
  // command doubles as the staleness diagnostic. --verify additionally
  // checksums every source file, catching the one edit the stat pass
  // cannot: a same-size rewrite whose mtime was restored.
  const bool verify = flags.Has("verify");
  const Result<io::CacheStaleness> staleness =
      io::ExplainCacheStaleness(data, /*verify_contents=*/verify);
  bool checksum_lie = false;
  if (staleness.ok()) {
    std::printf("cache status: %s\n", staleness->Summary().c_str());
    if (!staleness->stale) {
      // Fresh: leave the file untouched so repeated `cache` runs are
      // byte-stable no-ops.
      FIXY_ASSIGN_OR_RETURN(const io::FxbReader reader,
                            io::OpenFreshCache(data));
      std::printf("cache at %s is fresh (%zu scenes); nothing to do\n",
                  io::FxbCachePath(data).c_str(), reader.scene_count());
      return Status::Ok();
    }
    for (const std::string& reason : staleness->reasons) {
      if (reason.find("different checksum") != std::string::npos) {
        checksum_lie = true;
      }
    }
  } else if (staleness.status().code() == StatusCode::kNotFound) {
    std::printf("cache status: no cache yet (full build)\n");
  } else {
    return staleness.status();
  }
  if (checksum_lie) {
    // A source lied to the stat fast path (same size and mtime, new
    // bytes); the incremental updater trusts stat and would reuse the
    // stale section, so force a full rebuild instead.
    FIXY_ASSIGN_OR_RETURN(const size_t scenes, io::BuildFxbCache(data));
    std::printf("cached %zu scenes to %s (full rebuild: a source changed "
                "behind its stat record; JSON/FXB parity verified)\n",
                scenes, io::FxbCachePath(data).c_str());
    return Status::Ok();
  }
  // Incremental refresh: only added/changed scenes re-encode, removed
  // scenes drop, every unchanged section is copied byte-for-byte — the
  // result is byte-identical to a from-scratch build.
  FIXY_ASSIGN_OR_RETURN(const io::FxbUpdateReport update,
                        io::UpdateFxbCache(data));
  std::printf("cached %zu scenes to %s (%zu reused, %zu re-encoded, "
              "%zu dropped%s; JSON/FXB parity verified)\n",
              update.scenes_total, io::FxbCachePath(data).c_str(),
              update.scenes_reused, update.scenes_encoded,
              update.scenes_dropped, update.rebuilt ? ", full build" : "");
  return Status::Ok();
}

// `fixy_cli watch`: the polling loop in daemon/watch.h — detect source
// changes, refresh the cache incrementally, optionally fold the changed
// scenes' labels into the model, and re-rank only the changed scenes.
Status CmdWatch(const Flags& flags) {
  daemon::WatchOptions options;
  FIXY_ASSIGN_OR_RETURN(options.data_dir, flags.GetRequired("data"));
  FIXY_ASSIGN_OR_RETURN(options.model_path, flags.GetRequired("model"));
  options.model_out = flags.GetOr("model-out", "");
  FIXY_ASSIGN_OR_RETURN(options.poll_interval_ms,
                        flags.GetIntOr("interval-ms", 1000));
  if (options.poll_interval_ms < 0) {
    return Status::InvalidArgument("--interval-ms must be >= 0");
  }
  FIXY_ASSIGN_OR_RETURN(options.max_cycles, flags.GetIntOr("max-cycles", 0));
  if (options.max_cycles < 0) {
    return Status::InvalidArgument("--max-cycles must be >= 0");
  }
  options.learn_labels = flags.Has("learn-labels");
  FIXY_ASSIGN_OR_RETURN(options.top, flags.GetIntOr("top", 10));
  if (options.top < 0) {
    return Status::InvalidArgument("--top must be >= 0");
  }
  FIXY_ASSIGN_OR_RETURN(options.batch.num_threads,
                        flags.GetIntOr("threads", 0));
  if (options.batch.num_threads < 0) {
    return Status::InvalidArgument("--threads must be >= 0");
  }
  if (flags.Has("app") && flags.Has("apps")) {
    return Status::InvalidArgument("pass either --app or --apps, not both");
  }
  if (flags.Has("apps")) {
    const std::string list = flags.GetOr("apps", "");
    // "all" -> empty selection -> every registered application.
    if (list != "all") options.apps = SplitApps(list);
  } else if (flags.Has("app")) {
    options.apps.push_back(flags.GetOr("app", ""));
  }
  const std::string metrics_path = flags.GetOr("metrics-json", "");
  const bool verbose_metrics = flags.Has("verbose-metrics");
  options.collect_metrics = verbose_metrics || !metrics_path.empty();
  // Same engine configuration as CmdRank, so watch re-ranks are
  // byte-identical to one-shot `rank` runs over the same scenes.
  options.engine.extra_applications.push_back(SuspectTracksApp());
  options.install_signal_handlers = true;

  FIXY_ASSIGN_OR_RETURN(const daemon::WatchReport report,
                        daemon::WatchDataset(options));
  if (options.collect_metrics) {
    FIXY_RETURN_IF_ERROR(obs::ValidateMetrics(report.metrics));
    if (!metrics_path.empty()) {
      FIXY_RETURN_IF_ERROR(obs::SaveMetrics(report.metrics, metrics_path));
      std::printf("wrote metrics to %s\n", metrics_path.c_str());
    }
    if (verbose_metrics) {
      std::printf("%s", obs::FormatMetricsTable(report.metrics).c_str());
    }
  }
  return Status::Ok();
}

Status CmdInfo(const Flags& flags) {
  FIXY_ASSIGN_OR_RETURN(std::string data, flags.GetRequired("data"));
  FIXY_ASSIGN_OR_RETURN(Dataset dataset, io::LoadDataset(data));
  std::printf("dataset '%s': %zu scenes\n", dataset.name.c_str(),
              dataset.scenes.size());
  for (const Scene& scene : dataset.scenes) {
    std::printf("  %-24s %4zu frames  %5.1f s  human=%zu model=%zu\n",
                scene.name().c_str(), scene.frame_count(),
                scene.DurationSeconds(),
                scene.CountBySource(ObservationSource::kHuman),
                scene.CountBySource(ObservationSource::kModel));
  }
  FIXY_ASSIGN_OR_RETURN(eval::DatasetStats stats,
                        eval::ComputeDatasetStats(dataset));
  std::printf("\n%s", eval::FormatDatasetStats(stats).c_str());
  return Status::Ok();
}

void PrintUsage() {
  std::fprintf(
      stderr,
      "usage: fixy_cli <command> [--flag value ...]\n"
      "  generate --out DIR [--profile lyft|internal] [--scenes N] "
      "[--seed S]\n"
      "  sim      --out DIR [--preset NAME | --scenario FILE] [--scenes N]\n"
      "           [--seed S] [--fxb] [--list-presets]\n"
      "           materialize a scenario (preset or JSON spec file) to DIR:\n"
      "           scene JSON + gt_ledger.json + scenario.lock.json; --fxb\n"
      "           also builds dataset.fxb directly from the in-memory\n"
      "           dataset (no JSON re-parse); --list-presets lists the\n"
      "           built-in scenarios\n"
      "  sweep    --report FILE [--presets a,b,c|all] [--scenarios f1,f2]\n"
      "           [--apps a,b,c] [--scenes N] [--seed S] [--top K]\n"
      "           [--threads N] [--estimator kde|histogram|gaussian]\n"
      "           [--cache-dir DIR] [--baseline FILE]\n"
      "           [--fail-on-regression] [--diff-only]\n"
      "           run a scenario x application grid and score each cell\n"
      "           against the ground-truth ledger (precision@k + recall);\n"
      "           prints the per-cell table and writes the report JSON\n"
      "           (byte-identical at any --threads); --cache-dir reuses\n"
      "           previously materialized datasets; --baseline FILE diffs\n"
      "           this run against a saved report (REGRESSED cells marked,\n"
      "           --fail-on-regression exits non-zero); --diff-only\n"
      "           compares --baseline against --report without running\n"
      "  learn    --data DIR --model FILE [--estimator "
      "kde|histogram|gaussian]\n"
      "  rank     --data DIR --model FILE [--app NAME] [--top K] "
      "[--out FILE]\n"
      "           [--apps a,b,c|all] rank several registered applications\n"
      "           from one pass (scenes decoded and associated once); with\n"
      "           --out each app writes FILE.<app>.json\n"
      "           [--top-k K]    per-class top-k pruning (0 = off); pruned\n"
      "           apps skip tracks that cannot enter any scene's top k\n"
      "           [--threads N]  (0 = hardware concurrency)\n"
      "           [--keep-going] skip corrupt scene files and quarantine\n"
      "           failing scenes (exit non-zero only when all scenes fail);\n"
      "           [--fail-fast] stop at the first failing scene (default)\n"
      "           [--metrics-json FILE] write stage timers/counters as JSON\n"
      "           [--verbose-metrics] print the metrics table to stdout\n"
      "           [--no-cache] ignore dataset.fxb and parse the JSON files\n"
      "           [--decode-threads N] loader threads for the cache's\n"
      "           streaming path (default 1)\n"
      "           [--max-resident-scenes N] cap decoded-but-unranked scenes\n"
      "           resident in memory on the streaming path (0 = 2x --threads)\n"
      "           [--workers N]  rank in N worker processes over scene-range\n"
      "           shards; each completed shard writes a CRC'd checkpoint,\n"
      "           failed shards retry with capped backoff and quarantine\n"
      "           after --max-attempts (exit non-zero only when every shard\n"
      "           fails)\n"
      "           [--resume] reuse valid checkpoints from a previous killed\n"
      "           run (requires --workers)\n"
      "           [--shard-scenes N] scenes per shard (default: auto)\n"
      "           [--max-attempts K] worker attempts per shard (default 3)\n"
      "           [--backoff-ms B] [--backoff-cap-ms C] retry backoff\n"
      "           [--heartbeat-timeout-ms T] kill workers silent for T ms\n"
      "           [--checkpoint-dir DIR] (default DIR/.fixy-shards)\n"
      "  rank-shard (internal) worker process behind rank --workers\n"
      "  serve    --socket PATH [--model FILE] [--threads N]\n"
      "           [--rank-threads N] [--queue-depth N] [--top-k K]\n"
      "           [--estimator kde|histogram|gaussian]\n"
      "           run fixyd: keep the model and FXB readers resident and\n"
      "           serve rank/learn/status/shutdown requests over PATH;\n"
      "           SIGTERM/SIGINT drain in-flight requests, then exit\n"
      "  query    --socket PATH --cmd rank|rank-dataset|learn|status|\n"
      "           shutdown [--data DIR] [--scene NAME|--scene-index I]\n"
      "           [--app NAME|--apps a,b,c|all] [--top K] [--out FILE]\n"
      "           [--deadline-ms D] [--model FILE] [--timeout-ms T]\n"
      "           one request against a running fixyd; rank-dataset\n"
      "           --out writes files byte-identical to `rank --out`\n"
      "  cache    DIR | --data DIR [--verify]\n"
      "           build or incrementally refresh DIR's binary scene cache\n"
      "           (dataset.fxb): reports why it was stale, re-encodes only\n"
      "           the added/changed scenes, drops removed ones, and copies\n"
      "           unchanged sections byte-for-byte; --verify checksums\n"
      "           every source (catches same-size edits with restored\n"
      "           mtimes) and full-rebuilds when one lied to the stat pass\n"
      "  watch    --data DIR --model FILE [--interval-ms N] [--max-cycles N]\n"
      "           [--learn-labels] [--model-out FILE] [--app NAME|--apps ...]\n"
      "           [--top K] [--threads N] [--metrics-json FILE]\n"
      "           [--verbose-metrics]\n"
      "           poll DIR for source changes: refresh the cache\n"
      "           incrementally, optionally fold changed scenes' labels\n"
      "           into the model (saved to --model-out, default --model),\n"
      "           and re-rank only the changed scenes; SIGINT/SIGTERM (or\n"
      "           --max-cycles) stop the loop\n"
      "  info     --data DIR\n");
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    PrintUsage();
    return 2;
  }
  const std::string command = argv[1];
  // `cache` accepts the dataset directory as a positional argument
  // (`fixy_cli cache DIR`) as well as via --data.
  std::string positional;
  int first_flag = 2;
  if (command == "cache" && argc >= 3 && argv[2][0] != '-') {
    positional = argv[2];
    first_flag = 3;
  }
  const Result<Flags> flags = Flags::Parse(argc, argv, first_flag);
  if (!flags.ok()) {
    std::fprintf(stderr, "error: %s\n", flags.status().ToString().c_str());
    return 2;
  }
  Status status;
  if (command == "generate") {
    status = CmdGenerate(*flags);
  } else if (command == "sim") {
    status = CmdSim(*flags);
  } else if (command == "sweep") {
    status = CmdSweep(*flags);
  } else if (command == "learn") {
    status = CmdLearn(*flags);
  } else if (command == "rank") {
    status = CmdRank(*flags);
  } else if (command == "rank-shard") {
    status = CmdRankShard(*flags);
  } else if (command == "serve") {
    status = CmdServe(*flags);
  } else if (command == "query") {
    status = CmdQuery(*flags);
  } else if (command == "cache") {
    status = CmdCache(positional, *flags);
  } else if (command == "watch") {
    status = CmdWatch(*flags);
  } else if (command == "info") {
    status = CmdInfo(*flags);
  } else {
    PrintUsage();
    return 2;
  }
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace fixy::cli

int main(int argc, char** argv) { return fixy::cli::Main(argc, argv); }
