// The experiment sweep harness: run a scenario × application grid
// end-to-end — materialize (or reuse) each scenario's dataset, learn on
// it, rank every requested application in one pass, and score the ranked
// proposals against the ground-truth ledger — emitting one precision@k /
// recall cell per (scenario, application) pair. Reports serialize to
// JSON (no wall times, so two runs of the same grid are byte-identical
// at any thread count) and diff through eval::DiffMetricCells.
#ifndef FIXY_SCENARIO_SWEEP_H_
#define FIXY_SCENARIO_SWEEP_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/engine.h"
#include "eval/cell_diff.h"
#include "json/json.h"
#include "scenario/spec.h"

namespace fixy::scenario {

struct SweepOptions {
  /// Applications to rank per scenario, in report order.
  std::vector<std::string> apps = {"missing-tracks", "missing-obs",
                                   "model-errors"};
  /// Scenes per scenario; 0 uses each spec's own scene count.
  int scenes_per_cell = 0;
  /// Seed override applied to every scenario; unset uses each spec's seed.
  std::optional<uint64_t> seed;
  /// Ranked proposals considered per scene for precision@k.
  size_t top_k = 10;
  /// Worker threads fanning scenarios out, capped at the scenario count;
  /// 0 uses hardware concurrency, 1 runs serially, at most kMaxThreads.
  /// Cell results are byte-identical at any value.
  int threads = 0;
  /// When set, each scenario materializes into `<cache_dir>/<spec name>`
  /// (scene JSON + FXB + ledger + lock) and matching directories are
  /// reused instead of regenerated. Empty generates in memory only.
  std::string cache_dir;
  /// Engine configuration shared by every cell (estimator, extra
  /// applications, ...).
  FixyOptions engine;
};

/// One (scenario, application) cell of a sweep.
struct SweepCell {
  std::string scenario;
  std::string app;
  /// Scenes ranked for this cell.
  size_t scenes = 0;
  /// Ground-truth errors this application could have claimed.
  size_t claimable = 0;
  /// Total proposals the application emitted across the cell's scenes.
  size_t proposals = 0;
  /// Precision@k accumulated over scenes: hits / considered.
  size_t hits = 0;
  size_t considered = 0;
  double precision_at_k = 0.0;
  /// Recall over all proposals: found / claimable.
  size_t found = 0;
  double recall = 0.0;

  /// The diff/row key, "<scenario>/<app>".
  std::string RowKey() const { return scenario + "/" + app; }
};

struct SweepReport {
  /// Grid axes, in run order.
  std::vector<std::string> scenarios;
  std::vector<std::string> apps;
  size_t top_k = 10;
  /// Cells in scenario-major, application-minor order.
  std::vector<SweepCell> cells;
};

/// Runs the full grid. Scenarios fan out across a thread pool (each
/// scenario's generate → learn → rank → score pipeline runs on one
/// worker; ranking inside a cell is serial), results land in scenario
/// order, and the report carries no timing fields — so the same grid
/// yields a byte-identical report at every thread count. Errors:
/// InvalidArgument for an empty grid, duplicate scenario names, or
/// top_k == 0; otherwise the first failing scenario's Status in
/// scenario order.
Result<SweepReport> RunSweep(const std::vector<ScenarioSpec>& specs,
                             const SweepOptions& options = {});

/// Serializes a report ({format: "fixy-sweep", version: 1, ...}); strict
/// inverse. Round-trips byte-identically through canonical writing.
json::Value SweepReportToJson(const SweepReport& report);
Result<SweepReport> SweepReportFromJson(const json::Value& value);

/// File forms of the above (pretty canonical JSON + trailing newline,
/// saved through WriteFileAtomic).
Status SaveSweepReport(const SweepReport& report, const std::string& path);
Result<SweepReport> LoadSweepReport(const std::string& path);

/// Fixed-width per-cell table (scenario, app, scenes, claimable,
/// proposals, p@k, recall).
std::string FormatSweepTable(const SweepReport& report);

/// The report's cells as generic metric rows for eval::DiffMetricCells,
/// keyed "<scenario>/<app>".
std::vector<eval::MetricCell> SweepReportToRows(const SweepReport& report);

/// Diffs two sweep runs cell by cell. precision_at_k, recall, hits, and
/// found are quality metrics: a drop beyond `tolerance` marks the change
/// REGRESSED in the formatted report.
eval::CellDiffReport DiffSweepReports(const SweepReport& base,
                                      const SweepReport& current,
                                      double tolerance = 1e-9);

}  // namespace fixy::scenario

#endif  // FIXY_SCENARIO_SWEEP_H_
