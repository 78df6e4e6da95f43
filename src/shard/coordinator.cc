#include "shard/coordinator.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <thread>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#define FIXY_HAVE_FORK 1
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "common/crc32.h"
#include "common/macros.h"
#include "common/process.h"
#include "common/string_util.h"
#include "io/scene_io.h"
#include "obs/metrics.h"
#include "shard/checkpoint.h"
#include "shard/wire.h"

namespace fixy::shard {

void RecordShardMetricsSchema() {
  obs::Count("shard.shards", 0);
  obs::Count("shard.workers_spawned", 0);
  obs::Count("shard.completed", 0);
  obs::Count("shard.retries", 0);
  obs::Count("shard.quarantined", 0);
  obs::Count("shard.heartbeat_kills", 0);
  obs::Count("shard.checkpoints_reused", 0);
  obs::Count("shard.checkpoints_rejected", 0);
  obs::AddTimeNs("shard.total", 0);
  obs::SetGauge("shard.workers", 0.0);
}

#if FIXY_HAVE_FORK

namespace {

using Clock = std::chrono::steady_clock;

struct ShardState {
  enum class Phase { kPending, kRunning, kDone, kQuarantined };

  ShardRange range;
  Phase phase = Phase::kPending;
  int attempts = 0;
  Clock::time_point ready_at = Clock::time_point::min();  // backoff gate
  bool reused_checkpoint = false;
  MultiAppReport part;  // valid when kDone
  Status last_error;
};

struct RunningWorker {
  pid_t pid = -1;
  int fd = -1;
  size_t shard = 0;
  Clock::time_point last_frame;
  FrameParser parser;
  bool done_frame = false;
  bool error_frame = false;
  Status error;
  bool eof = false;
};

std::string ErrnoText() { return std::string(std::strerror(errno)); }

// The reuse gate, shared by the --resume scan and the post-success load:
// a checkpoint is trusted only when it decodes cleanly AND describes
// exactly this run (fingerprint, shard, range, app list).
bool CheckpointUsable(const Result<ShardCheckpoint>& loaded, size_t shard,
                      const ShardRange& range, uint64_t fingerprint,
                      const std::vector<std::string>& apps,
                      std::string* why) {
  if (!loaded.ok()) {
    *why = loaded.status().ToString();
    return false;
  }
  const ShardCheckpoint& cp = loaded.value();
  if (cp.fingerprint != fingerprint) {
    *why = "run fingerprint mismatch (inputs or options changed)";
    return false;
  }
  if (cp.shard_index != shard || cp.range != range) {
    *why = "shard index or scene range mismatch";
    return false;
  }
  if (cp.report.apps != apps) {
    *why = "application list mismatch";
    return false;
  }
  return true;
}

class Coordinator {
 public:
  Coordinator(const std::string& data_dir, const std::string& model_path,
              std::vector<std::string> apps, const ShardOptions& options)
      : data_dir_(data_dir),
        model_path_(model_path),
        apps_(std::move(apps)),
        options_(options) {}

  ~Coordinator() { KillAllRunning(); }

  Result<ShardRunReport> Run();

 private:
  Status Setup();
  void ScanCheckpoints();
  Status Supervise();
  Status SpawnShard(size_t shard);
  void ReadWorker(RunningWorker& worker);
  void FinalizeWorker(RunningWorker& worker, const Status& override_error);
  void FailShard(size_t shard, Status why);
  void KillWorker(RunningWorker& worker);
  void KillAllRunning();
  Result<ShardRunReport> BuildReport();

  size_t RemainingShards() const {
    size_t remaining = 0;
    for (const ShardState& state : states_) {
      if (state.phase == ShardState::Phase::kPending ||
          state.phase == ShardState::Phase::kRunning) {
        ++remaining;
      }
    }
    return remaining;
  }

  const std::string data_dir_;
  const std::string model_path_;
  const std::vector<std::string> apps_;
  const ShardOptions options_;

  ShardSource source_;
  std::vector<ShardState> states_;
  std::vector<RunningWorker> running_;
  int scenes_per_shard_ = 1;
  uint64_t fingerprint_ = 0;
  std::string checkpoint_dir_;
  std::string worker_binary_;
  size_t completed_this_run_ = 0;
};

Result<ShardRunReport> Coordinator::Run() {
  FIXY_RETURN_IF_ERROR(Setup());
  if (options_.resume) ScanCheckpoints();
  FIXY_RETURN_IF_ERROR(Supervise());
  return BuildReport();
}

Status Coordinator::Setup() {
  if (options_.workers < 1) {
    return Status::InvalidArgument("--workers must be >= 1");
  }
  if (options_.max_attempts < 1) {
    return Status::InvalidArgument("--max-attempts must be >= 1");
  }
  if (apps_.empty()) {
    return Status::InvalidArgument("no applications requested");
  }
  FIXY_ASSIGN_OR_RETURN(source_,
                        OpenShardSource(data_dir_, options_.no_cache));
  const size_t scene_count = source_.source->scene_count();
  scenes_per_shard_ =
      ResolveScenesPerShard(scene_count, options_.scenes_per_shard);
  const std::vector<ShardRange> plan =
      PlanShards(scene_count, scenes_per_shard_);
  states_.resize(plan.size());
  for (size_t i = 0; i < plan.size(); ++i) states_[i].range = plan[i];

  RunFingerprintInputs fp_inputs;
  FIXY_ASSIGN_OR_RETURN(fp_inputs.source,
                        io::ComputeSourceFingerprint(data_dir_));
  std::string model_bytes;
  FIXY_RETURN_IF_ERROR(io::ReadFileInto(model_path_, &model_bytes));
  fp_inputs.model_crc = Crc32(model_bytes);
  fp_inputs.model_bytes = model_bytes.size();
  fp_inputs.apps = apps_;
  fp_inputs.top_k_per_class = options_.top_k_per_class;
  fp_inputs.scene_count = scene_count;
  fp_inputs.scenes_per_shard = scenes_per_shard_;
  fingerprint_ = ComputeRunFingerprint(fp_inputs);

  checkpoint_dir_ = options_.checkpoint_dir.empty()
                        ? data_dir_ + "/.fixy-shards"
                        : options_.checkpoint_dir;
  std::error_code ec;
  std::filesystem::create_directories(checkpoint_dir_, ec);
  if (ec) {
    return Status::IoError("cannot create checkpoint directory " +
                           checkpoint_dir_ + ": " + ec.message());
  }
  worker_binary_ =
      options_.worker_binary.empty() ? "/proc/self/exe" : options_.worker_binary;

  obs::Count("shard.shards", states_.size());
  obs::SetGauge("shard.workers", static_cast<double>(options_.workers));
  return Status::Ok();
}

void Coordinator::ScanCheckpoints() {
  for (size_t i = 0; i < states_.size(); ++i) {
    const std::string path = ShardCheckpointPath(checkpoint_dir_, i);
    std::error_code ec;
    if (!std::filesystem::exists(path, ec) || ec) continue;
    Result<ShardCheckpoint> loaded = LoadShardCheckpoint(path);
    std::string why;
    if (CheckpointUsable(loaded, i, states_[i].range, fingerprint_, apps_,
                         &why)) {
      states_[i].phase = ShardState::Phase::kDone;
      states_[i].reused_checkpoint = true;
      states_[i].part = std::move(loaded.value().report);
      obs::Count("shard.checkpoints_reused");
    } else {
      // Corrupt, stale, or foreign: never trusted — the shard re-ranks
      // and its worker atomically overwrites the file.
      obs::Count("shard.checkpoints_rejected");
    }
  }
}

Status Coordinator::SpawnShard(size_t shard) {
  // argv is fully materialized before fork so the child only dup2s and
  // execs (no allocation between fork and exec).
  std::vector<std::string> args = {
      worker_binary_,
      "rank-shard",
      "--data", data_dir_,
      "--model", model_path_,
      "--apps", StrJoin(apps_, ","),
      "--shard", StrFormat("%zu", shard),
      "--shard-scenes", StrFormat("%d", scenes_per_shard_),
      "--checkpoint-dir", checkpoint_dir_,
      "--top-k", StrFormat("%d", options_.top_k_per_class),
      "--threads", StrFormat("%d", options_.worker_threads),
      "--heartbeat-ms", StrFormat("%d", options_.heartbeat_interval_ms),
  };
  if (options_.no_cache) args.push_back("--no-cache");
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);

  int fds[2];
  if (::pipe(fds) != 0) {
    return Status::Internal("pipe() failed: " + ErrnoText());
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return Status::Internal("fork() failed: " + ErrnoText());
  }
  if (pid == 0) {
    // Child: frame channel on stdout, then become the worker.
    ::dup2(fds[1], STDOUT_FILENO);
    ::close(fds[0]);
    ::close(fds[1]);
    ::execv(argv[0], argv.data());
    ::_exit(127);  // exec failed; the parent sees EOF + exit code 127
  }
  ::close(fds[1]);
  ::fcntl(fds[0], F_SETFL, O_NONBLOCK);

  RunningWorker worker;
  worker.pid = pid;
  worker.fd = fds[0];
  worker.shard = shard;
  worker.last_frame = Clock::now();
  running_.push_back(std::move(worker));
  states_[shard].phase = ShardState::Phase::kRunning;
  ++states_[shard].attempts;
  obs::Count("shard.workers_spawned");
  return Status::Ok();
}

void Coordinator::ReadWorker(RunningWorker& worker) {
  char buffer[4096];
  for (;;) {
    const ssize_t n = ::read(worker.fd, buffer, sizeof(buffer));
    if (n > 0) {
      const std::vector<Frame> frames =
          worker.parser.Consume(std::string_view(buffer, static_cast<size_t>(n)));
      if (!frames.empty()) worker.last_frame = Clock::now();
      for (const Frame& frame : frames) {
        switch (frame.type) {
          case FrameType::kDone:
            worker.done_frame = true;
            break;
          case FrameType::kError:
            worker.error_frame = true;
            worker.error = DecodeErrorPayload(frame.payload);
            break;
          case FrameType::kHello:
          case FrameType::kHeartbeat:
          case FrameType::kProgress:
          case FrameType::kRequest:   // daemon-only types; a worker sending
          case FrameType::kResponse:  // them is at least alive
            break;  // liveness only
        }
      }
      if (worker.parser.corrupt()) {
        // Garbage on the frame channel: the worker is not speaking the
        // protocol (or something else owns its stdout). Kill and retry.
        KillWorker(worker);
        worker.eof = true;
        return;
      }
      continue;
    }
    if (n == 0) {
      worker.eof = true;
      return;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    worker.eof = true;  // unexpected read error: treat as a dead pipe
    return;
  }
}

void Coordinator::KillWorker(RunningWorker& worker) {
  if (worker.pid > 0) ::kill(worker.pid, SIGKILL);
}

void Coordinator::FailShard(size_t shard, Status why) {
  ShardState& state = states_[shard];
  state.last_error = std::move(why);
  if (state.attempts >= options_.max_attempts) {
    state.phase = ShardState::Phase::kQuarantined;
    obs::Count("shard.quarantined");
    return;
  }
  // Capped exponential backoff before the next fresh worker: base * 2^n
  // doubles per failed attempt, so a persistently sick shard backs off
  // while healthy shards keep the worker slots busy.
  const int64_t base = std::max(1, options_.backoff_base_ms);
  const int shift = std::min(state.attempts - 1, 20);
  const int64_t delay =
      std::min<int64_t>(base << shift, std::max(1, options_.backoff_cap_ms));
  state.phase = ShardState::Phase::kPending;
  state.ready_at = Clock::now() + std::chrono::milliseconds(delay);
  obs::Count("shard.retries");
}

void Coordinator::FinalizeWorker(RunningWorker& worker,
                                 const Status& override_error) {
  ::close(worker.fd);
  worker.fd = -1;
  int wstatus = 0;
  ::waitpid(worker.pid, &wstatus, 0);
  const bool exited_ok = WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0;
  const size_t shard = worker.shard;

  if (!override_error.ok()) {
    FailShard(shard, override_error);
    return;
  }
  if (worker.done_frame && exited_ok && !worker.parser.corrupt()) {
    // The worker says the checkpoint is durably in place; trust — but
    // verify through the exact same gate a resume would use.
    const std::string path = ShardCheckpointPath(checkpoint_dir_, shard);
    Result<ShardCheckpoint> loaded = LoadShardCheckpoint(path);
    std::string why;
    if (CheckpointUsable(loaded, shard, states_[shard].range, fingerprint_,
                         apps_, &why)) {
      states_[shard].phase = ShardState::Phase::kDone;
      states_[shard].part = std::move(loaded.value().report);
      states_[shard].last_error = Status::Ok();
      ++completed_this_run_;
      obs::Count("shard.completed");
      return;
    }
    FailShard(shard, Status::Internal(
                         "worker reported success but its checkpoint failed "
                         "validation: " +
                         why));
    return;
  }
  if (worker.error_frame) {
    FailShard(shard, worker.error);
    return;
  }
  if (worker.parser.corrupt()) {
    FailShard(shard,
              Status::Internal("worker frame stream was corrupt"));
    return;
  }
  std::string detail;
  if (WIFEXITED(wstatus)) {
    detail = StrFormat("exit code %d", WEXITSTATUS(wstatus));
  } else if (WIFSIGNALED(wstatus)) {
    detail = StrFormat("signal %d", WTERMSIG(wstatus));
  } else {
    detail = "unknown cause";
  }
  FailShard(shard, Status::Internal("worker died before completing its shard ("
                                    + detail + ")"));
}

void Coordinator::KillAllRunning() {
  for (RunningWorker& worker : running_) {
    KillWorker(worker);
    if (worker.fd >= 0) ::close(worker.fd);
    int wstatus = 0;
    ::waitpid(worker.pid, &wstatus, 0);
  }
  running_.clear();
}

Status Coordinator::Supervise() {
  const auto heartbeat_timeout =
      std::chrono::milliseconds(std::max(1, options_.heartbeat_timeout_ms));
  while (RemainingShards() > 0) {
    if (options_.stop_after_shards != 0 &&
        completed_this_run_ >= options_.stop_after_shards) {
      // Simulated coordinator death (tests): abandon the run exactly as
      // a kill -9 would — running workers reaped, checkpoints left on
      // disk for --resume to find.
      KillAllRunning();
      return Status::Internal(StrFormat(
          "shard run interrupted after %zu completed shards (test hook)",
          completed_this_run_));
    }
    const Clock::time_point now = Clock::now();

    // Fill free worker slots with ready shards, lowest index first (so
    // the merge order is also roughly the completion order).
    while (static_cast<int>(running_.size()) < options_.workers) {
      size_t pick = states_.size();
      for (size_t i = 0; i < states_.size(); ++i) {
        if (states_[i].phase == ShardState::Phase::kPending &&
            states_[i].ready_at <= now) {
          pick = i;
          break;
        }
      }
      if (pick == states_.size()) break;
      FIXY_RETURN_IF_ERROR(SpawnShard(pick));
    }

    if (running_.empty()) {
      // Everything outstanding is in a backoff window; sleep toward the
      // earliest retry.
      Clock::time_point earliest = Clock::time_point::max();
      for (const ShardState& state : states_) {
        if (state.phase == ShardState::Phase::kPending) {
          earliest = std::min(earliest, state.ready_at);
        }
      }
      if (earliest == Clock::time_point::max()) continue;  // nothing left
      const auto wait = std::clamp<std::chrono::milliseconds>(
          std::chrono::duration_cast<std::chrono::milliseconds>(earliest -
                                                                now),
          std::chrono::milliseconds(1), std::chrono::milliseconds(100));
      std::this_thread::sleep_for(wait);
      continue;
    }

    // Poll timeout: the nearest of any worker's heartbeat deadline or a
    // pending shard's backoff expiry, clamped to keep the loop lively.
    int64_t timeout_ms = 200;
    for (const RunningWorker& worker : running_) {
      const auto deadline = worker.last_frame + heartbeat_timeout;
      const auto remain =
          std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now)
              .count();
      timeout_ms = std::min(timeout_ms, remain);
    }
    for (const ShardState& state : states_) {
      // Only a shard still in its backoff window has an expiry to wait
      // for; a never-attempted one holds time_point::min(), and min() - now
      // overflows.
      if (state.phase == ShardState::Phase::kPending &&
          state.ready_at > now) {
        const auto remain = std::chrono::duration_cast<std::chrono::milliseconds>(
                                state.ready_at - now)
                                .count();
        timeout_ms = std::min(timeout_ms, remain);
      }
    }
    timeout_ms = std::max<int64_t>(timeout_ms, 1);

    std::vector<pollfd> fds;
    fds.reserve(running_.size());
    for (const RunningWorker& worker : running_) {
      fds.push_back(pollfd{worker.fd, POLLIN, 0});
    }
    const int rc = ::poll(fds.data(), fds.size(),
                          static_cast<int>(timeout_ms));
    if (rc < 0 && errno != EINTR) {
      KillAllRunning();
      return Status::Internal("poll() failed: " + ErrnoText());
    }

    for (size_t w = 0; w < running_.size(); ++w) {
      if (rc > 0 && (fds[w].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        ReadWorker(running_[w]);
      }
    }

    // Heartbeat deadline: a worker silent past the timeout is declared
    // dead (wedged decode, livelock, stopped) and killed; its shard goes
    // through the same retry ladder as a crash.
    const Clock::time_point after_read = Clock::now();
    for (RunningWorker& worker : running_) {
      if (!worker.eof && after_read - worker.last_frame > heartbeat_timeout) {
        KillWorker(worker);
        obs::Count("shard.heartbeat_kills");
        FinalizeWorker(
            worker,
            Status::Internal(StrFormat(
                "worker heartbeat timeout: silent for over %d ms",
                options_.heartbeat_timeout_ms)));
        worker.eof = true;
        worker.fd = -1;  // closed by FinalizeWorker
        worker.pid = -1;
      }
    }

    // Reap EOF'd workers and drop them from the running set.
    for (size_t w = 0; w < running_.size();) {
      if (running_[w].eof) {
        if (running_[w].pid > 0) {
          FinalizeWorker(running_[w], Status::Ok());
        }
        running_.erase(running_.begin() + static_cast<ptrdiff_t>(w));
      } else {
        ++w;
      }
    }
  }
  return Status::Ok();
}

Result<ShardRunReport> Coordinator::BuildReport() {
  ShardRunReport out;
  out.shards.reserve(states_.size());
  for (size_t i = 0; i < states_.size(); ++i) {
    ShardState& state = states_[i];
    ShardOutcome outcome;
    outcome.range = state.range;
    outcome.attempts = state.attempts;
    outcome.reused_checkpoint = state.reused_checkpoint;
    outcome.quarantined = state.phase == ShardState::Phase::kQuarantined;
    outcome.status = outcome.quarantined ? state.last_error : Status::Ok();
    if (outcome.quarantined) {
      ++out.shards_quarantined;
      // A quarantined shard surfaces exactly like quarantined scenes in
      // a keep-going batch: every scene of the range carries an error
      // outcome naming the shard-level cause; no proposals.
      MultiAppReport part;
      part.apps = apps_;
      part.reports.resize(apps_.size());
      const Status scene_status = Status::Internal(StrFormat(
          "shard %zu quarantined after %d attempts: %s", i, state.attempts,
          state.last_error.ToString().c_str()));
      for (BatchReport& report : part.reports) {
        for (size_t s = state.range.begin; s < state.range.end; ++s) {
          SceneOutcome scene;
          scene.scene_name = source_.source->scene_name(s);
          scene.status = scene_status;
          report.outcomes.push_back(std::move(scene));
        }
      }
      FIXY_RETURN_IF_ERROR(AppendShardReport(out.merged, std::move(part)));
    } else {
      ++out.shards_completed;
      if (state.reused_checkpoint) ++out.checkpoints_reused;
      FIXY_RETURN_IF_ERROR(
          AppendShardReport(out.merged, std::move(state.part)));
    }
    out.shards.push_back(std::move(outcome));
  }
  if (out.merged.apps.empty()) {
    // Empty dataset: an ok report with empty per-app outcomes, matching
    // RankDataset on an empty dataset.
    out.merged.apps = apps_;
    out.merged.reports.resize(apps_.size());
  }
  RecomputeReportSummary(out.merged);
  return out;
}

}  // namespace

Result<ShardRunReport> RankDatasetSharded(const std::string& data_dir,
                                          const std::string& model_path,
                                          const std::vector<std::string>& apps,
                                          const ShardOptions& options) {
  const obs::StageTimer total_timer;
  // A worker that dies between poll() and our next pipe write would
  // otherwise kill the coordinator with SIGPIPE instead of an IoError.
  IgnoreSigpipe();
  Coordinator coordinator(data_dir, model_path, apps, options);
  FIXY_ASSIGN_OR_RETURN(ShardRunReport report, coordinator.Run());
  obs::AddTimeNs("shard.total", total_timer.ElapsedNs());
  return report;
}

#else  // !FIXY_HAVE_FORK

Result<ShardRunReport> RankDatasetSharded(const std::string&,
                                          const std::string&,
                                          const std::vector<std::string>&,
                                          const ShardOptions&) {
  return Status::Unimplemented(
      "sharded ranking requires a POSIX platform (fork/exec)");
}

#endif  // FIXY_HAVE_FORK

}  // namespace fixy::shard
