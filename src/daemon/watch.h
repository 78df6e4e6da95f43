// `fixy_cli watch`: a polling loop that keeps a dataset directory's FXB
// cache, learned model, and error rankings continuously in sync with the
// JSON sources on disk (DESIGN.md §14).
//
// Each cycle checks freshness once (OpenFreshCache: a stat of every
// source against the cache's source map, no content reads), and when
// anything changed runs the incremental ladder: one UpdateFxbCache
// re-encodes only the added/changed scenes, they are decoded from the file
// it wrote, optionally fold into the learned model via
// Fixy::LearnIncremental (--learn-labels), and only they re-rank. The
// amortized cost of "one scene changed" is therefore proportional to one
// scene, not the dataset.
//
// Failure semantics follow the repo's never-abort contract: a cycle that
// trips over a mid-edit dataset (corrupt JSON, vanished file, stale-again
// cache) records `watch.errors`, reports, and keeps polling — the next
// cycle retries from scratch. Watch exits only on the stop signal
// (stop_fd / SIGINT / SIGTERM) or after `max_cycles` polls.
#ifndef FIXY_DAEMON_WATCH_H_
#define FIXY_DAEMON_WATCH_H_

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/engine.h"
#include "obs/metrics.h"

namespace fixy::daemon {

struct WatchReport;

struct WatchOptions {
  /// Dataset directory to watch (must hold manifest.json).
  std::string data_dir;

  /// Learned model to rank with. Required.
  std::string model_path;

  /// Where --learn-labels saves the folded model after each update.
  /// Empty means overwrite `model_path`.
  std::string model_out;

  /// Applications to rank changed scenes with. Resolved against the
  /// engine's registry up front; empty means every registered app.
  std::vector<std::string> apps;

  /// Milliseconds between staleness polls.
  int poll_interval_ms = 1000;

  /// Stop after this many polls; 0 polls until the stop signal. Tests and
  /// scripted runs set this so the loop is bounded without signals.
  int max_cycles = 0;

  /// Fold each batch of added/changed scenes into the learned model
  /// (Fixy::LearnIncremental) before re-ranking, and save the model to
  /// `model_out`.
  bool learn_labels = false;

  /// Proposals printed per re-ranked scene.
  int top = 10;

  /// Rank-worker configuration for the per-update RankDataset call.
  /// fail_fast is forced off — watch always quarantines failing scenes.
  BatchOptions batch;

  /// Engine configuration (estimator, extra applications, ...).
  FixyOptions engine;

  /// Collect watch.* / io.fxb.* / rank.* metrics into the report.
  bool collect_metrics = false;

  /// When >= 0, a readable byte on this fd stops the loop at the next
  /// poll boundary (the poll sleep waits on it, so a stop interrupts the
  /// sleep immediately). The caller keeps ownership of the fd.
  int stop_fd = -1;

  /// Install SIGINT/SIGTERM handlers that trip an internal self-pipe
  /// (the daemon's stop machinery), so ^C ends the loop gracefully.
  /// Mutually composable with stop_fd: either source stops the loop.
  bool install_signal_handlers = false;

  /// Suppress the per-cycle progress lines (tests).
  bool quiet = false;

  /// Invoked on the watch thread after every completed cycle with the
  /// running totals. Lets embedders (and tests) react to loop progress
  /// without polling the filesystem; leave empty when not needed.
  std::function<void(const WatchReport&)> on_cycle;
};

/// What one WatchDataset run did, accumulated over every cycle.
struct WatchReport {
  size_t cycles = 0;          ///< polls executed
  size_t updates = 0;         ///< cycles that refreshed the cache
  size_t idle_cycles = 0;     ///< polls that found nothing changed
  size_t errors = 0;          ///< cycles that failed and were retried
  size_t rebuilds = 0;        ///< updates that fell back to a full build
  size_t scenes_encoded = 0;  ///< scene sections re-encoded from JSON
  size_t scenes_dropped = 0;  ///< scenes dropped from the cache
  size_t scenes_ranked = 0;   ///< changed scenes re-ranked
  size_t folds = 0;           ///< LearnIncremental folds applied
  /// Snapshot of every metric the run recorded (empty unless
  /// WatchOptions::collect_metrics).
  obs::PipelineMetrics metrics;
};

/// Runs the watch loop until stopped. Errors: only for unrecoverable
/// setup problems (missing dataset directory, unloadable model, e.g. one
/// saved without sufficient statistics, unknown app); once the loop is
/// running, per-cycle failures are counted and retried, never returned.
Result<WatchReport> WatchDataset(const WatchOptions& options);

/// Records every watch.* counter and timer at zero on the calling
/// thread's collector, so watch metric snapshots carry a stable key set
/// whatever the run encountered.
void RecordWatchMetricsSchema();

}  // namespace fixy::daemon

#endif  // FIXY_DAEMON_WATCH_H_
