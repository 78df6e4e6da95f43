// Tests for the scenario module: the strict spec validator, the preset
// registry (including the frozen legacy-profile contract), deterministic
// materialization (JSON + FXB), the ground-truth ledger round-trip, and
// the sweep harness with its metrics-diff reports.
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include <gtest/gtest.h>

#include "common/file_util.h"
#include "eval/cell_diff.h"
#include "io/fxb.h"
#include "io/scene_io.h"
#include "json/json.h"
#include "scenario/ledger_io.h"
#include "scenario/materialize.h"
#include "scenario/presets.h"
#include "scenario/spec.h"
#include "scenario/sweep.h"
#include "sim/generate.h"
#include "sim/profiles.h"

namespace fixy::scenario {
namespace {

std::string TempDir() {
  static int counter = 0;
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("fixy_scenario_test_" + std::to_string(::getpid()) + "_" +
        std::to_string(counter++)))
          .string();
  std::filesystem::create_directories(dir);
  return dir;
}

/// Parses `text` and expects rejection with `needle` somewhere in the
/// error message (the validator names the offending path).
void ExpectRejected(const std::string& text, const std::string& needle) {
  const Result<ScenarioSpec> spec = ScenarioFromString(text);
  ASSERT_FALSE(spec.ok()) << "accepted: " << text;
  EXPECT_NE(spec.status().message().find(needle), std::string::npos)
      << "error for " << text << " was: " << spec.status().message();
}

// ---------------------------------------------------------------------
// Validator: shape and root fields.

TEST(SpecValidator, MinimalSpecParsesWithDefaults) {
  const Result<ScenarioSpec> spec = ScenarioFromString(R"({"name": "t"})");
  ASSERT_TRUE(spec.ok()) << spec.status();
  EXPECT_EQ(spec->name, "t");
  EXPECT_EQ(spec->scene_count, 4);
  EXPECT_EQ(spec->seed, 42u);
}

TEST(SpecValidator, RejectsNonObjectDocuments) {
  ExpectRejected("5", "expected an object");
  ExpectRejected("[]", "expected an object");
}

TEST(SpecValidator, RejectsUnknownFormatAndVersion) {
  ExpectRejected(R"({"format": "nope", "name": "t"})", "fixy-scenario");
  ExpectRejected(R"({"version": 2, "name": "t"})", "unsupported version 2");
}

TEST(SpecValidator, RequiresAValidName) {
  ExpectRejected(R"({})", "scenario.name is required");
  ExpectRejected(R"({"name": ""})", "non-empty");
  ExpectRejected(R"({"name": "bad/name"})", "[A-Za-z0-9._-]");
  ExpectRejected(R"({"name": 7})", "expected a string");
}

TEST(SpecValidator, RejectsUnknownRootFieldListingValidOnes) {
  const Result<ScenarioSpec> spec =
      ScenarioFromString(R"({"name": "t", "wrold": {}})");
  ASSERT_FALSE(spec.ok());
  EXPECT_NE(spec.status().message().find("unknown field \"wrold\""),
            std::string::npos)
      << spec.status().message();
  EXPECT_NE(spec.status().message().find("valid fields:"), std::string::npos);
  EXPECT_NE(spec.status().message().find("world"), std::string::npos);
}

TEST(SpecValidator, RejectsBadSceneCountAndSeed) {
  ExpectRejected(R"({"name": "t", "scenes": 0})", "scenario.scenes");
  ExpectRejected(R"({"name": "t", "scenes": 2.5})", "expected an integer");
  ExpectRejected(R"({"name": "t", "seed": -1})", "scenario.seed");
}

// ---------------------------------------------------------------------
// Validator: one rejection per section family, each naming its path.

TEST(SpecValidator, WorldFamilyRejections) {
  ExpectRejected(R"({"name": "t", "world": {"duration_seconds": 0.0}})",
                 "scenario.world.duration_seconds");
  ExpectRejected(R"({"name": "t", "world": {"frame_rate_hz": 500}})",
                 "out of range");
  ExpectRejected(R"({"name": "t", "world": {"gravity": 9.8}})",
                 "unknown field \"gravity\"");
  ExpectRejected(
      R"({"name": "t", "world": {"class_mix": {"car": -1.0}}})",
      "scenario.world.class_mix.car");
  ExpectRejected(
      R"({"name": "t", "world": {"class_mix": {"bicycle": 1.0}}})",
      "unknown field \"bicycle\"");
}

TEST(SpecValidator, SensorFamilyRejections) {
  ExpectRejected(
      R"({"name": "t", "sensor": {"occlusion_visibility_threshold": 1.5}})",
      "scenario.sensor.occlusion_visibility_threshold");
  ExpectRejected(R"({"name": "t", "sensor": {"dropout_windows": 3}})",
                 "expected an array");
  ExpectRejected(
      R"({"name": "t", "sensor": {"dropout_windows":
          [{"start_seconds": 5.0, "end_seconds": 2.0}]}})",
      "greater than start_seconds");
  ExpectRejected(
      R"({"name": "t", "sensor": {"dropout_windows":
          [{"start_seconds": 1.0, "end_seconds": 2.0, "sensor_id": 4}]}})",
      "unknown field \"sensor_id\"");
}

TEST(SpecValidator, LabelerFamilyRejections) {
  ExpectRejected(
      R"({"name": "t", "labeler": {"missing_track_rate": -0.1}})",
      "scenario.labeler.missing_track_rate");
  ExpectRejected(R"({"name": "t", "labeler": {"fatigue": 0.5}})",
                 "unknown field \"fatigue\"");
}

TEST(SpecValidator, DetectorFamilyRejections) {
  const Result<ScenarioSpec> spec = ScenarioFromString(
      R"({"name": "t", "detector": {"calibration": "sometimes"}})");
  ASSERT_FALSE(spec.ok());
  EXPECT_NE(
      spec.status().message().find("unknown value \"sometimes\""),
      std::string::npos)
      << spec.status().message();
  EXPECT_NE(spec.status().message().find("calibrated, uncalibrated"),
            std::string::npos);
  ExpectRejected(R"({"name": "t", "detector": {"base_recall": 2.0}})",
                 "scenario.detector.base_recall");
  ExpectRejected(R"({"name": "t", "detector": {"flux": 1.0}})",
                 "unknown field \"flux\"");
}

// ---------------------------------------------------------------------
// Validator: cross-field constraints caught by the compile step.

TEST(SpecValidator, RejectsAllZeroClassMix) {
  ExpectRejected(
      R"({"name": "t", "world": {"class_mix":
          {"car": 0, "truck": 0, "pedestrian": 0, "motorcycle": 0}}})",
      "class_mix");
}

TEST(SpecValidator, RejectsDropoutWindowBeyondDuration) {
  ExpectRejected(
      R"({"name": "t", "world": {"duration_seconds": 5.0},
          "sensor": {"dropout_windows":
              [{"start_seconds": 10.0, "end_seconds": 12.0}]}})",
      "duration");
}

TEST(SpecValidator, RejectsGhostFrameSpanInversion) {
  ExpectRejected(
      R"({"name": "t", "detector":
          {"ghost_min_frames": 9, "ghost_max_frames": 3}})",
      "ghost_max_frames");
}

// ---------------------------------------------------------------------
// Round-trips.

TEST(SpecRoundTrip, ToJsonFromJsonIsIdentity) {
  for (const std::string& name : PresetNames()) {
    const Result<ScenarioSpec> preset = PresetByName(name);
    ASSERT_TRUE(preset.ok()) << preset.status();
    const json::Value encoded = ScenarioToJson(*preset);
    const Result<ScenarioSpec> decoded = ScenarioFromJson(encoded);
    ASSERT_TRUE(decoded.ok()) << name << ": " << decoded.status();
    EXPECT_EQ(ScenarioFingerprint(*preset), ScenarioFingerprint(*decoded))
        << name;
    EXPECT_EQ(json::Write(encoded), json::Write(ScenarioToJson(*decoded)))
        << name;
  }
}

TEST(SpecRoundTrip, LoadScenarioNamesTheFileInErrors) {
  const std::string dir = TempDir();
  const std::string path = dir + "/bad.json";
  std::ofstream(path) << R"({"name": "t", "scenes": 0})";
  const Result<ScenarioSpec> spec = LoadScenario(path);
  ASSERT_FALSE(spec.ok());
  EXPECT_NE(spec.status().message().find(path), std::string::npos);
  EXPECT_FALSE(LoadScenario(dir + "/absent.json").ok());
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------
// Presets.

TEST(Presets, RegistryOrderAndLookup) {
  const std::vector<std::string> names = PresetNames();
  ASSERT_EQ(names.size(), 7u);
  EXPECT_EQ(names[0], "lyft-like");
  EXPECT_EQ(names[1], "internal-like");
  EXPECT_EQ(names[2], "dense-urban-intersection");
  EXPECT_EQ(names[3], "highway-convoy");
  EXPECT_EQ(names[4], "parking-lot");
  EXPECT_EQ(names[5], "night-low-recall");
  EXPECT_EQ(names[6], "multi-sensor-disagreement");
  EXPECT_EQ(PresetDescriptions().size(), names.size());

  const Result<ScenarioSpec> unknown = PresetByName("nope");
  ASSERT_FALSE(unknown.ok());
  for (const std::string& name : names) {
    EXPECT_NE(unknown.status().message().find(name), std::string::npos);
  }
}

TEST(Presets, EveryPresetCompiles) {
  for (const std::string& name : PresetNames()) {
    const Result<ScenarioSpec> preset = PresetByName(name);
    ASSERT_TRUE(preset.ok()) << name;
    const Result<sim::SimProfile> profile = CompileScenario(*preset);
    EXPECT_TRUE(profile.ok()) << name << ": " << profile.status();
  }
}

// The legacy profile functions are now thin wrappers over the registry;
// datasets generated through either path must stay byte-identical. This
// is the frozen contract of the old hard-coded sim/profiles.cc.
void ExpectLegacyParity(const sim::SimProfile& legacy,
                        const std::string& preset_name) {
  const Result<ScenarioSpec> preset = PresetByName(preset_name);
  ASSERT_TRUE(preset.ok()) << preset.status();
  const sim::GeneratedDataset old_path =
      sim::GenerateDataset(legacy, legacy.name, 2, 42);
  const Result<sim::GeneratedDataset> new_path =
      GenerateScenarioDataset(*preset, 2, 42);
  ASSERT_TRUE(new_path.ok()) << new_path.status();

  ASSERT_EQ(old_path.dataset.scenes.size(), new_path->dataset.scenes.size());
  for (size_t i = 0; i < old_path.dataset.scenes.size(); ++i) {
    EXPECT_EQ(io::SceneToString(old_path.dataset.scenes[i]),
              io::SceneToString(new_path->dataset.scenes[i]))
        << preset_name << " scene " << i;
  }
  EXPECT_EQ(json::Write(LedgerToJson(old_path.ledger)),
            json::Write(LedgerToJson(new_path->ledger)))
      << preset_name;
}

TEST(Presets, LyftLikeMatchesLegacyProfile) {
  ExpectLegacyParity(sim::LyftLikeProfile(), "lyft-like");
}

TEST(Presets, InternalLikeMatchesLegacyProfile) {
  ExpectLegacyParity(sim::InternalLikeProfile(), "internal-like");
}

// ---------------------------------------------------------------------
// Materialization and determinism.

ScenarioSpec TinySpec(const std::string& name) {
  ScenarioSpec spec;
  spec.name = name;
  spec.scene_count = 2;
  spec.world.duration_seconds = 6.0;
  spec.world.frame_rate_hz = 5.0;
  spec.world.mean_object_count = 12.0;
  return spec;
}

TEST(Materialize, RepeatedGenerationIsByteIdentical) {
  const ScenarioSpec spec = TinySpec("det");
  const Result<sim::GeneratedDataset> a = GenerateScenarioDataset(spec);
  const Result<sim::GeneratedDataset> b = GenerateScenarioDataset(spec);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a->dataset.scenes.size(), 2u);
  for (size_t i = 0; i < a->dataset.scenes.size(); ++i) {
    EXPECT_EQ(io::SceneToString(a->dataset.scenes[i]),
              io::SceneToString(b->dataset.scenes[i]));
  }
  EXPECT_EQ(json::Write(LedgerToJson(a->ledger)),
            json::Write(LedgerToJson(b->ledger)));
}

TEST(Materialize, WritesLoadsAndReuses) {
  const std::string dir = TempDir();
  const ScenarioSpec spec = TinySpec("mat");
  MaterializeOptions options;
  const Result<MaterializedDataset> first =
      MaterializeScenarioDataset(spec, dir, options);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_FALSE(first->reused);
  EXPECT_EQ(first->scenes_generated, 2);
  EXPECT_TRUE(std::filesystem::exists(ScenarioLockPath(dir)));
  EXPECT_TRUE(std::filesystem::exists(LedgerPath(dir)));
  EXPECT_TRUE(std::filesystem::exists(io::FxbCachePath(dir)));

  options.reuse = true;
  const Result<MaterializedDataset> second =
      MaterializeScenarioDataset(spec, dir, options);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_TRUE(second->reused);
  EXPECT_EQ(second->scenes_generated, 0);
  ASSERT_EQ(second->data.dataset.scenes.size(),
            first->data.dataset.scenes.size());
  for (size_t i = 0; i < first->data.dataset.scenes.size(); ++i) {
    EXPECT_EQ(io::SceneToString(first->data.dataset.scenes[i]),
              io::SceneToString(second->data.dataset.scenes[i]));
  }

  // A different recipe must not reuse the stale directory.
  options.seed = 7;
  const Result<MaterializedDataset> reseeded =
      MaterializeScenarioDataset(spec, dir, options);
  ASSERT_TRUE(reseeded.ok()) << reseeded.status();
  EXPECT_FALSE(reseeded->reused);
  std::filesystem::remove_all(dir);
}

TEST(Materialize, DirectFxbMatchesJsonRebuild) {
  const std::string dir = TempDir();
  const Result<MaterializedDataset> made =
      MaterializeScenarioDataset(TinySpec("fxb"), dir);
  ASSERT_TRUE(made.ok()) << made.status();

  std::string direct;
  ASSERT_TRUE(ReadFileInto(io::FxbCachePath(dir), &direct).ok());
  std::filesystem::remove(io::FxbCachePath(dir));
  const Result<size_t> rebuilt = io::BuildFxbCache(dir);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
  std::string reparsed;
  ASSERT_TRUE(ReadFileInto(io::FxbCachePath(dir), &reparsed).ok());
  // Same sources, same mtimes: the in-memory encode and the JSON re-parse
  // encode must agree on every byte.
  EXPECT_EQ(direct, reparsed);
  std::filesystem::remove_all(dir);
}

TEST(Materialize, FxbSceneSectionsIdenticalAcrossDirectories) {
  // Whole-blob comparison across directories is invalid (source records
  // embed real file mtimes); the scene sections themselves must match.
  const std::string dir_a = TempDir();
  const std::string dir_b = TempDir();
  const ScenarioSpec spec = TinySpec("sections");
  ASSERT_TRUE(MaterializeScenarioDataset(spec, dir_a).ok());
  ASSERT_TRUE(MaterializeScenarioDataset(spec, dir_b).ok());
  const Result<io::FxbReader> a = io::OpenFreshCache(dir_a);
  const Result<io::FxbReader> b = io::OpenFreshCache(dir_b);
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok()) << b.status();
  ASSERT_EQ(a->scene_count(), b->scene_count());
  for (size_t i = 0; i < a->scene_count(); ++i) {
    const Result<io::FxbSection> sa = a->SceneSection(i);
    const Result<io::FxbSection> sb = b->SceneSection(i);
    ASSERT_TRUE(sa.ok() && sb.ok());
    EXPECT_EQ(sa->bytes, sb->bytes) << "scene section " << i;
  }
  std::filesystem::remove_all(dir_a);
  std::filesystem::remove_all(dir_b);
}

TEST(DropoutWindows, SuppressObservationsDuringTheWindow) {
  ScenarioSpec open = TinySpec("dropout");
  ScenarioSpec blocked = open;
  sim::SensorDropoutWindow window;
  window.start_seconds = 0.0;
  window.end_seconds = open.world.duration_seconds;
  blocked.sensor.dropout_windows.push_back(window);

  const Result<sim::GeneratedDataset> with = GenerateScenarioDataset(open);
  const Result<sim::GeneratedDataset> without =
      GenerateScenarioDataset(blocked);
  ASSERT_TRUE(with.ok() && without.ok());
  // Nothing is ever visible, so neither the labeler nor the detector can
  // emit object observations.
  EXPECT_GT(with->dataset.TotalObservations(),
            10 * without->dataset.TotalObservations());
}

// ---------------------------------------------------------------------
// Ledger IO.

TEST(LedgerIo, RoundTripsThroughDisk) {
  const std::string dir = TempDir();
  const Result<sim::GeneratedDataset> data =
      GenerateScenarioDataset(TinySpec("ledger"));
  ASSERT_TRUE(data.ok());
  ASSERT_FALSE(data->ledger.errors.empty());
  const std::string path = LedgerPath(dir);
  ASSERT_TRUE(SaveLedger(data->ledger, path).ok());
  const Result<sim::GtLedger> loaded = LoadLedger(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(json::Write(LedgerToJson(data->ledger)),
            json::Write(LedgerToJson(*loaded)));
  std::filesystem::remove_all(dir);
}

TEST(LedgerIo, RejectsMalformedDocuments) {
  EXPECT_FALSE(LedgerFromJson(json::Value(3.0)).ok());
  json::Object bogus;
  bogus["format"] = "fixy-gt-ledger";
  bogus["version"] = 1;
  bogus["errors"] = "not an array";
  EXPECT_FALSE(LedgerFromJson(json::Value(std::move(bogus))).ok());
}

// ---------------------------------------------------------------------
// Sweep.

SweepOptions TinySweepOptions() {
  SweepOptions options;
  options.apps = {"missing-tracks", "model-errors"};
  options.top_k = 5;
  return options;
}

TEST(Sweep, GridIsDeterministicAcrossThreadCounts) {
  const std::vector<ScenarioSpec> specs = {TinySpec("a"), TinySpec("b")};
  SweepOptions options = TinySweepOptions();
  options.threads = 1;
  const Result<SweepReport> serial = RunSweep(specs, options);
  ASSERT_TRUE(serial.ok()) << serial.status();
  options.threads = 4;
  const Result<SweepReport> parallel = RunSweep(specs, options);
  ASSERT_TRUE(parallel.ok()) << parallel.status();

  EXPECT_EQ(json::Write(SweepReportToJson(*serial)),
            json::Write(SweepReportToJson(*parallel)));

  // Scenario-major, application-minor cell order.
  ASSERT_EQ(serial->cells.size(), 4u);
  EXPECT_EQ(serial->cells[0].scenario, "a");
  EXPECT_EQ(serial->cells[0].app, "missing-tracks");
  EXPECT_EQ(serial->cells[1].scenario, "a");
  EXPECT_EQ(serial->cells[1].app, "model-errors");
  EXPECT_EQ(serial->cells[2].scenario, "b");
  EXPECT_EQ(serial->cells[3].scenario, "b");
  for (const SweepCell& cell : serial->cells) {
    EXPECT_EQ(cell.scenes, 2u);
    EXPECT_GT(cell.proposals, 0u);
  }
  const std::string table = FormatSweepTable(*serial);
  EXPECT_NE(table.find("missing-tracks"), std::string::npos);
  EXPECT_NE(table.find("p@5"), std::string::npos);
}

TEST(Sweep, CacheDirectoryReusesMaterializedDatasets) {
  const std::string dir = TempDir();
  const std::vector<ScenarioSpec> specs = {TinySpec("cached")};
  SweepOptions options = TinySweepOptions();
  options.cache_dir = dir;
  const Result<SweepReport> first = RunSweep(specs, options);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_TRUE(
      std::filesystem::exists(ScenarioLockPath(dir + "/cached")));
  const Result<SweepReport> second = RunSweep(specs, options);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(json::Write(SweepReportToJson(*first)),
            json::Write(SweepReportToJson(*second)));
  std::filesystem::remove_all(dir);
}

TEST(Sweep, ReportRoundTripsThroughJsonAndDisk) {
  const std::vector<ScenarioSpec> specs = {TinySpec("rt")};
  const Result<SweepReport> report = RunSweep(specs, TinySweepOptions());
  ASSERT_TRUE(report.ok()) << report.status();

  const Result<SweepReport> decoded =
      SweepReportFromJson(SweepReportToJson(*report));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(json::Write(SweepReportToJson(*report)),
            json::Write(SweepReportToJson(*decoded)));

  const std::string dir = TempDir();
  const std::string path = dir + "/report.json";
  ASSERT_TRUE(SaveSweepReport(*report, path).ok());
  const Result<SweepReport> loaded = LoadSweepReport(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(json::Write(SweepReportToJson(*report)),
            json::Write(SweepReportToJson(*loaded)));
  std::filesystem::remove_all(dir);
}

TEST(Sweep, ReportParserRejectsMalformedDocuments) {
  EXPECT_FALSE(SweepReportFromJson(json::Value(1.0)).ok());
  json::Object wrong_format;
  wrong_format["format"] = "fixy-metrics";
  EXPECT_FALSE(SweepReportFromJson(json::Value(wrong_format)).ok());
  json::Object bad_cells;
  bad_cells["format"] = "fixy-sweep";
  bad_cells["version"] = 1;
  bad_cells["scenarios"] = json::Array{};
  bad_cells["apps"] = json::Array{};
  bad_cells["top_k"] = 10;
  bad_cells["cells"] = "nope";
  EXPECT_FALSE(SweepReportFromJson(json::Value(bad_cells)).ok());
}

// A count must be an integer a size_t holds: a number past int64_t's
// range or below zero is rejected by its path, never cast.
TEST(Sweep, ReportParserRejectsOutOfRangeCounts) {
  SweepReport report;
  report.scenarios = {"s"};
  report.apps = {"missing-tracks"};
  report.top_k = 5;
  SweepCell cell;
  cell.scenario = "s";
  cell.app = "missing-tracks";
  report.cells.push_back(cell);
  const json::Value valid = SweepReportToJson(report);
  ASSERT_TRUE(SweepReportFromJson(valid).ok());

  for (const std::string key :
       {"scenes", "claimable", "proposals", "hits", "considered", "found"}) {
    for (const double bad : {1e300, 18446744073709551616.0, -1.0}) {
      json::Value doc = valid;
      doc.AsObject()["cells"].AsArray()[0].AsObject()[key] = bad;
      const Status status = SweepReportFromJson(doc).status();
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
          << key << " = " << bad;
      EXPECT_EQ(status.message(), "sweep report.cells[0]." + key +
                                      ": expected a non-negative integer")
          << key << " = " << bad;
    }
  }
  json::Value doc = valid;
  doc.AsObject()["top_k"] = 1e300;
  EXPECT_EQ(SweepReportFromJson(doc).status().message(),
            "sweep report.top_k: expected a non-negative integer");
}

TEST(Sweep, RejectsDegenerateGrids) {
  EXPECT_FALSE(RunSweep({}, TinySweepOptions()).ok());
  SweepOptions no_apps = TinySweepOptions();
  no_apps.apps.clear();
  EXPECT_FALSE(RunSweep({TinySpec("x")}, no_apps).ok());
  SweepOptions zero_k = TinySweepOptions();
  zero_k.top_k = 0;
  EXPECT_FALSE(RunSweep({TinySpec("x")}, zero_k).ok());
  const Status dup =
      RunSweep({TinySpec("x"), TinySpec("x")}, TinySweepOptions()).status();
  ASSERT_FALSE(dup.ok());
  EXPECT_NE(dup.message().find("duplicate scenario"), std::string::npos);
}

TEST(Sweep, DiffFlagsRegressionsAndRowChurn) {
  const std::vector<ScenarioSpec> specs = {TinySpec("d1"), TinySpec("d2")};
  const Result<SweepReport> base = RunSweep(specs, TinySweepOptions());
  ASSERT_TRUE(base.ok()) << base.status();

  EXPECT_TRUE(DiffSweepReports(*base, *base).Empty());

  SweepReport current = *base;
  current.cells[0].precision_at_k -= 0.25;  // quality drop -> REGRESSED
  current.cells[1].proposals += 5;          // count change -> changed only
  current.cells.pop_back();                 // removed row
  SweepCell added;
  added.scenario = "d9";
  added.app = "missing-tracks";
  current.cells.push_back(added);

  const eval::CellDiffReport diff = DiffSweepReports(*base, current);
  EXPECT_TRUE(diff.HasRegression());
  ASSERT_EQ(diff.added_rows.size(), 1u);
  EXPECT_EQ(diff.added_rows[0], "d9/missing-tracks");
  ASSERT_EQ(diff.removed_rows.size(), 1u);
  bool saw_precision = false;
  bool saw_proposals_as_plain_change = false;
  for (const eval::CellChange& change : diff.changes) {
    if (change.metric == "precision_at_k" && change.regressed) {
      saw_precision = true;
    }
    if (change.metric == "proposals") {
      EXPECT_FALSE(change.regressed);
      saw_proposals_as_plain_change = true;
    }
  }
  EXPECT_TRUE(saw_precision);
  EXPECT_TRUE(saw_proposals_as_plain_change);

  const std::string formatted = eval::FormatCellDiff(diff);
  EXPECT_NE(formatted.find("REGRESSED"), std::string::npos);
  EXPECT_NE(formatted.find("ADDED   d9/missing-tracks"), std::string::npos);
}

TEST(CellDiff, ToleranceSuppressesNoiseAndDirectionIsHonored) {
  eval::MetricCell base_cell;
  base_cell.row = "r";
  base_cell.values = {{"precision", 0.5}, {"count", 10.0}};
  eval::MetricCell current_cell;
  current_cell.row = "r";
  current_cell.values = {{"precision", 0.5 + 1e-12}, {"count", 3.0}};
  eval::CellDiffOptions options;
  options.higher_is_better = {"precision"};
  const eval::CellDiffReport diff =
      eval::DiffMetricCells({base_cell}, {current_cell}, options);
  // The 1e-12 precision wiggle is under tolerance; the count drop is a
  // change but not a regression (no declared direction).
  ASSERT_EQ(diff.changes.size(), 1u);
  EXPECT_EQ(diff.changes[0].metric, "count");
  EXPECT_FALSE(diff.changes[0].regressed);
  EXPECT_FALSE(diff.HasRegression());
}

}  // namespace
}  // namespace fixy::scenario
