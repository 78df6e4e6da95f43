// Shared pieces of the Fixy benchmark program: command-line options, the
// run record every workload fills, seeded input derivation, and the
// helpers the three workloads (batch-dense, daemon-small, update-cycle)
// have in common. See README.md for what each workload measures and why.
#ifndef FIXYBENCH_BENCH_H_
#define FIXYBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "core/app_registry.h"
#include "core/engine.h"
#include "data/scene.h"
#include "json/json.h"
#include "scenario/spec.h"
#include "trace.h"

namespace fixybench {

using fixy::Result;
using fixy::Status;

/// Command-line options of `fixybench setup|run`.
struct Options {
  std::string phase;     // "setup" or "run"
  std::string workload;  // batch-dense | daemon-small | update-cycle
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Work directory holding the generated inputs (created by setup).
  std::string dir;
  /// The benchmark's own directory (scenario specs live there).
  std::string bench_dir;
  /// The fixy_cli binary that hosts fixyd.
  std::string cli;
  /// Where the traced run writes its span dump.
  std::string trace_out;
};

/// What one `run` measured: op counts, verdicts, and metrics by name.
struct RunRecord {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// One line per failed verdict; empty means every check passed.
  std::vector<std::string> failures;
  /// End-to-end or per-layer metrics: name -> {"value", "unit"}.
  fixy::json::Object metrics;
  /// Model load, daemon start and warm-up inside the run process: the
  /// part of setup_s that happens after the inputs exist.
  double warmup_s = 0.0;
  /// Free-form details printed by run.py (sample counts, trace summary).
  fixy::json::Object report;

  void Fail(std::string what) {
    ++failed;
    if (failures.size() < 20) failures.push_back(std::move(what));
  }
  void Metric(const std::string& name, double value, const char* unit);
};

// ---- Inputs (inputs.cc) ----

/// A 64-bit seed for one named input stream, derived from the run seed so
/// the same --seed always regenerates the same inputs.
uint64_t DeriveSeed(uint64_t seed, std::string_view stream);

/// Inputs shared by every workload: a learned model and an FXB-cached
/// dataset, both under Options::dir.
struct Layout {
  std::string model;      // <dir>/model.json
  std::string data;       // <dir>/data (scene JSON + dataset.fxb)
  std::string edit_a;     // original bytes of the edited scene's file
  std::string edit_b;     // the relabeled version of that file
  std::string edit_index;  // holds the dataset index of the edited scene
};
Layout LayoutFor(const std::string& dir);

/// The scenario, scene count and seeds of one workload's inputs.
struct InputPlan {
  fixy::scenario::ScenarioSpec spec;
  int train_scenes = 0;
  uint64_t train_seed = 0;
  int data_scenes = 0;
  uint64_t data_seed = 0;
};
Result<InputPlan> PlanInputs(const Options& options);

/// Generates the training set, learns and saves the model, materializes
/// the dataset with its FXB cache, and writes the two versions of the
/// edited scene. Prints how long that took and a digest of the inputs.
Status RunSetup(const Options& options);

/// Regenerates the training dataset in memory (for refit checks).
Result<fixy::Dataset> TrainingSet(const InputPlan& plan);

// ---- Layer replay for the traced run (layers.cc) ----

/// The per-application specs Fixy ranks with, rebuilt from a saved model
/// file the way Fixy::LoadModel does, so each layer's public function can
/// be called on its own.
struct RankLayers {
  fixy::ApplicationRegistry registry = fixy::ApplicationRegistry::Standard();
  fixy::ApplicationOptions options;
  /// Parallel to PaperApps(); the apps point into `registry`.
  std::vector<const fixy::AppSpec*> apps;
  std::vector<fixy::LoaSpec> specs;
};
Result<std::unique_ptr<RankLayers>> LoadRankLayers(const std::string& model);

/// The response worklist fixyd builds for one app of a single-scene rank:
/// TopK(top) serialized with SaveProposals' pretty format.
std::string ResponseWorklist(const std::vector<fixy::ErrorProposal>& ranked,
                             int top);

/// Inside the tracer's current op, ranks `scene` whole (core.rank_scene,
/// via Fixy::RankScene), replays the same rank layer by layer (dsl.assoc,
/// dsl.raw_scores, stats.kde, graph.compile, core.extract) through each
/// layer's public function, and serializes the worklists
/// (json.serialize). Returns the worklists, one per paper app. Fails when
/// the replay's proposals differ from RankScene's.
Result<std::vector<std::string>> TraceRankScene(Tracer& tracer,
                                                const fixy::Fixy& fixy,
                                                const RankLayers& layers,
                                                const fixy::Scene& scene,
                                                int top);

/// Summarizes a traced run into per-layer metrics: each layer's mean self
/// time per op that ran it, counts per op, unaccounted_ms (mean per
/// workload op), residual_ms (the untraced op p50 minus the p50 of the
/// traced spans in `untraced_parts`, which make up the untraced op), and
/// trace.overhead_pct (median traced op against the untraced p50).
/// Writes the span dump to options.trace_out.
Status EmitTraceMetrics(const Options& options, const Tracer& tracer,
                        double untraced_p50_ms,
                        const std::vector<std::string>& untraced_parts,
                        RunRecord& record);

/// The two fixed versions of the scene the update path rewrites.
struct EditScene {
  /// The scene's index in the dataset and its file.
  size_t index = 0;
  std::string path;
  std::string bytes[2];
  fixy::Scene scene[2];
};
Result<EditScene> LoadEditScene(const Options& options);

/// Runs the write path once per probe op on a copy of `base`: rewrite the
/// edit scene (alternating versions), io.update, learn.fold, learn.save.
/// Used by the traced runs of workloads whose ops do not write.
Status TraceWriteProbe(const Options& options, Tracer& tracer,
                       const fixy::Fixy& base, int probes);

// ---- The daemon under test (daemon_proc.cc) ----

/// A `fixy_cli serve` child process with the model loaded. The destructor
/// stops it (shutdown request, then signals) and reaps it.
class DaemonProcess {
 public:
  static Result<std::unique_ptr<DaemonProcess>> Start(const Options& options,
                                                      int worker_threads);
  ~DaemonProcess();
  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;

  const std::string& socket() const { return socket_; }
  /// The daemon's peak resident set so far (VmHWM), in MB.
  Result<double> PeakRssMb() const;
  /// Graceful stop: a shutdown request, then waits for the exit.
  Status Shutdown();

 private:
  DaemonProcess(int pid, std::string socket)
      : pid_(pid), socket_(std::move(socket)) {}

  int pid_ = -1;
  std::string socket_;
};

/// Probe ops of one `status` round trip each to an idle daemon
/// (daemon.status_rtt).
Status TraceStatusProbe(Tracer& tracer, const std::string& socket, int probes);

// ---- Workloads ----

Status RunBatchDense(const Options& options, RunRecord& record);
Status RunDaemonSmall(const Options& options, RunRecord& record);
Status RunUpdateCycle(const Options& options, RunRecord& record);

// ---- Shared helpers ----

/// The three paper applications every workload ranks.
const std::vector<std::string>& PaperApps();

using Clock = std::chrono::steady_clock;
double MsSince(Clock::time_point start);
double SecondsSince(Clock::time_point start);

/// Linear-interpolated percentile (q in [0, 1]); 0 for an empty sample.
double Percentile(std::vector<double> values, double q);

/// Number of usable hardware threads (at least 1).
int HardwareThreads();

/// Peak resident set of this process, in MB.
double SelfPeakRssMb();

Status ReadFile(const std::string& path, std::string* out);
Status WriteFile(const std::string& path, std::string_view bytes);

/// The bytes `SaveProposals` writes for `proposals`.
std::string WorklistBytes(const std::vector<fixy::ErrorProposal>& proposals);

/// Field-by-field equality of two ranked proposal lists.
bool SameProposals(const std::vector<fixy::ErrorProposal>& a,
                   const std::vector<fixy::ErrorProposal>& b);


/// One stretch of the timed loop: the latencies of the ops it finished,
/// the scenes they ranked, and its length.
struct Window {
  std::vector<double> op_ms;
  double scenes = 0.0;
  double seconds = 0.0;
};

/// Emits the end-to-end metrics shared by all workloads — scenes_per_s and
/// op_ms_p50 — each the median over windows of that window's figure, so
/// one slow stretch on a shared host moves them less. The tail (p90 per
/// window, pooled p99) goes to the report.
void EmitOpMetrics(RunRecord& record, const std::vector<Window>& windows);

}  // namespace fixybench

#endif  // FIXYBENCH_BENCH_H_
