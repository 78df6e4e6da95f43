#include "daemon/server.h"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#endif

#include "common/macros.h"
#include "common/process.h"
#include "common/thread_pool.h"
#include "core/proposal_io.h"
#include "core/ranker.h"
#include "daemon/protocol.h"
#include "io/fxb.h"
#include "io/scene_io.h"
#include "obs/metrics.h"
#include "obs/metrics_json.h"
#include "shard/wire.h"

namespace fixy::daemon {

#if defined(__unix__) || defined(__APPLE__)

namespace {

using Clock = std::chrono::steady_clock;

void SetCloexec(int fd) {
  const int flags = ::fcntl(fd, F_GETFD);
  if (flags >= 0) ::fcntl(fd, F_SETFD, flags | FD_CLOEXEC);
}

/// Writes all of `bytes` to a socket without ever parking the thread on a
/// full send buffer for more than `stall_timeout_ms` at a time: each send
/// is non-blocking, and a would-block waits for POLLOUT with the timeout.
/// A peer that stops draining its socket gets its response dropped (the
/// caller treats any error as a gone peer), instead of wedging a daemon
/// thread forever.
Status SendAll(int fd, std::string_view bytes, int stall_timeout_ms) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
#if defined(MSG_NOSIGNAL)
                             MSG_DONTWAIT | MSG_NOSIGNAL
#else
                             MSG_DONTWAIT
#endif
    );
    if (n >= 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      struct pollfd pfd = {fd, POLLOUT, 0};
      const int ready = ::poll(&pfd, 1, stall_timeout_ms);
      if (ready <= 0) {
        return Status::IoError("peer stopped draining its socket");
      }
      continue;
    }
    return Status::IoError("send failed: " + std::string(std::strerror(errno)));
  }
  return Status::Ok();
}

/// One accepted client connection. The main thread owns the read side
/// (parser); response writes from worker threads serialize on write_mu.
/// The fd closes only in the destructor — after the last worker drops its
/// reference — so a worker can never write to a recycled fd number.
struct Connection {
  int fd = -1;
  shard::FrameParser parser{kMaxRequestPayload};
  std::mutex write_mu;
  bool open = true;  // guarded by write_mu

  ~Connection() {
    if (fd >= 0) ::close(fd);
  }
};

/// A dataset directory held resident: the opened source (mmap'd FXB when
/// fresh, per-file JSON otherwise), the stat-only source records it was
/// opened at (one per scene in manifest order, the manifest last), so an
/// edited dataset transparently reopens, and each scene name's first
/// index. Immutable once published, so requests read it unlocked.
struct ResidentDataset {
  std::unique_ptr<SceneSource> source;
  std::vector<io::FxbSourceRecord> records;
  std::unordered_map<std::string, size_t> scene_by_name;
};

/// A one-scene request's scene: its resident dataset and its index.
struct ResidentScene {
  std::shared_ptr<const ResidentDataset> dataset;
  size_t index = 0;
};

/// Adds its scope's wall time to one `daemon.phase.*` timer of
/// `collector` on every exit path: a failed phase still cost its time.
class PhaseTimer {
 public:
  PhaseTimer(obs::MetricsCollector& collector, std::string_view name)
      : collector_(collector), name_(name) {}
  ~PhaseTimer() { collector_.AddTimeNs(name_, timer_.ElapsedNs()); }

  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

 private:
  obs::MetricsCollector& collector_;
  std::string_view name_;
  obs::StageTimer timer_;
};

/// Whether `record`'s file still has the size and mtime it was recorded
/// with: one stat, and false when it fails.
bool SourceUnchanged(const std::string& data_dir,
                     const io::FxbSourceRecord& record) {
  const Result<io::FxbSourceRecord> current =
      io::StatSourceRecord(data_dir, record.file);
  return current.ok() && *current == record;
}

/// Resolves a one-scene request to an index of `dataset`: by name through
/// the map built when it became resident, or by bounds-checked index.
Result<size_t> ResolveScene(const ResidentDataset& dataset,
                            const Request& request) {
  if (!request.scene.empty()) {
    const auto it = dataset.scene_by_name.find(request.scene);
    if (it == dataset.scene_by_name.end()) {
      return Status::NotFound("no scene named '" + request.scene + "' in " +
                              request.data_dir);
    }
    return it->second;
  }
  const size_t index = static_cast<size_t>(request.scene_index);
  const size_t count = dataset.source->scene_count();
  if (index >= count) {
    return Status::OutOfRange("scene_index " + std::to_string(index) +
                              " out of range (" + std::to_string(count) +
                              " scenes)");
  }
  return index;
}

}  // namespace

struct FixydServer::Impl {
  ServerOptions options;
  std::unique_ptr<Fixy> fixy;
  /// Learn holds it exclusive; rank/status hold it shared.
  std::shared_mutex state_mu;
  bool model_loaded = false;  // guarded by state_mu

  int listen_fd = -1;
  std::unique_ptr<StopPipe> stop_pipe;
  std::atomic<bool> stopping{false};
  std::atomic<int> pending{0};
  Clock::time_point started = Clock::now();
  bool served = false;

  obs::MetricsCollector collector;

  std::mutex datasets_mu;
  std::map<std::string, std::shared_ptr<const ResidentDataset>> datasets;

  ~Impl() {
    if (listen_fd >= 0) ::close(listen_fd);
  }

  // ---- connection plumbing ----

  void WriteToConnection(Connection& conn, std::string_view bytes,
                         int stall_timeout_ms) {
    std::lock_guard<std::mutex> lock(conn.write_mu);
    if (!conn.open) return;
    const PhaseTimer timer(collector, "daemon.phase.write");
    const Status status = SendAll(conn.fd, bytes, stall_timeout_ms);
    if (!status.ok()) conn.open = false;  // peer gone or wedged: stop writing
  }

  void SendErrorFrame(Connection& conn, const Status& status) {
    collector.Count("daemon.errors");
    WriteToConnection(
        conn,
        shard::EncodeFrame(shard::FrameType::kError,
                           shard::EncodeErrorPayload(status)),
        /*stall_timeout_ms=*/50);
  }

  void SendResponse(Connection& conn, const Response& response,
                    int stall_timeout_ms) {
    std::string frame;
    {
      const PhaseTimer timer(collector, "daemon.phase.encode");
      frame = EncodeResponseFrame(response);
    }
    WriteToConnection(conn, frame, stall_timeout_ms);
  }

  // ---- request handling (worker threads) ----

  void HandleRequest(const std::shared_ptr<Connection>& conn, Request request,
                     Clock::time_point enqueued) {
    if (options.test_delay_ms > 0) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(options.test_delay_ms));
    }
    const auto queue_wait = Clock::now() - enqueued;
    const uint64_t queue_wait_ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(queue_wait)
            .count());
    collector.AddTimeNs("daemon.queue_wait", queue_wait_ns);

    Response response;
    response.id = request.id;
    const int64_t waited_ms =
        static_cast<int64_t>(queue_wait_ns / UINT64_C(1000000));
    if (request.deadline_ms > 0 && waited_ms > request.deadline_ms) {
      // The admission ladder's second rung: the request was accepted but
      // sat in the queue past its deadline; running it now would hand the
      // client a result it has already given up on.
      collector.Count("daemon.rejected");
      response.status = Status::Unavailable(
          "deadline exceeded: waited " + std::to_string(waited_ms) +
          " ms in queue (deadline " + std::to_string(request.deadline_ms) +
          " ms)");
      SendResponse(*conn, response, /*stall_timeout_ms=*/50);
      return;
    }

    const obs::StageTimer request_timer;
    Result<json::Value> result = Status::Internal("unhandled request kind");
    switch (request.kind) {
      case RequestKind::kRank:
        result = DoRank(request);
        break;
      case RequestKind::kRankDataset:
        result = DoRankDataset(request);
        break;
      case RequestKind::kLearn:
        result = DoLearn(request);
        break;
      case RequestKind::kStatus:
        result = DoStatus();
        break;
      case RequestKind::kShutdown:
        result = json::Value(json::Object{{"stopping", json::Value(true)}});
        break;
    }
    collector.AddTimeNs("daemon.request", request_timer.ElapsedNs());
    if (result.ok()) {
      response.result = std::move(result).value();
    } else {
      response.status = result.status();
    }
    SendResponse(*conn, response, /*stall_timeout_ms=*/10000);
    if (request.kind == RequestKind::kShutdown && response.status.ok()) {
      Stop();
    }
  }

  // Resolves the requested application names exactly like the CLI: an
  // empty selection means every registered application.
  std::vector<std::string> ResolveApps(const Request& request) {
    return request.apps.empty() ? fixy->applications().names() : request.apps;
  }

  /// The full pass, for rank-dataset and for any one-scene request whose
  /// own sources moved: stats every source file of `data_dir` and reuses
  /// the resident copy only while every record is unchanged.
  Result<std::shared_ptr<const ResidentDataset>> AcquireDataset(
      const std::string& data_dir) {
    if (data_dir.empty()) {
      return Status::InvalidArgument("request needs a dataset directory");
    }
    // Cheap staleness probe (a stat pass over the manifest's files): a
    // resident source is reused only while the JSON sources it was opened
    // from are unchanged. This also rejects non-dataset directories with
    // a clear error before any decode work.
    FIXY_ASSIGN_OR_RETURN(std::vector<io::FxbSourceRecord> records,
                          io::CollectSourceRecords(data_dir));
    std::lock_guard<std::mutex> lock(datasets_mu);
    const auto it = datasets.find(data_dir);
    if (it != datasets.end() && it->second->records == records) {
      return it->second;
    }
    // The sources changed under a resident dataset (or this is the first
    // touch). Report *why* the resident copy went stale (the diff of its
    // records against the ones just taken), refresh an existing cache
    // incrementally (only the changed scenes re-encode — the daemon stays
    // on the mmap path instead of falling back to JSON), then reopen. A
    // dataset that never had a cache is not given one.
    if (it != datasets.end()) {
      collector.Count("daemon.dataset_reopens");
      std::printf(
          "fixyd: dataset %s changed (%s); revalidating\n", data_dir.c_str(),
          io::CompareCacheSources(it->second->records, records)
              .Summary()
              .c_str());
      std::fflush(stdout);
      std::error_code ec;
      if (std::filesystem::exists(io::FxbCachePath(data_dir), ec)) {
        const Result<io::FxbUpdateReport> refreshed =
            io::UpdateFxbCache(data_dir);
        if (!refreshed.ok()) {
          std::printf("fixyd: cache refresh failed (%s); reopening anyway\n",
                      refreshed.status().ToString().c_str());
        } else if (refreshed->staleness.stale()) {
          collector.Count("daemon.cache_refreshes");
          std::printf("fixyd: cache refreshed — %zu scenes (%zu reused, "
                      "%zu re-encoded, %zu dropped%s)\n",
                      refreshed->scenes_total, refreshed->scenes_reused,
                      refreshed->scenes_encoded, refreshed->scenes_dropped,
                      refreshed->rebuilt ? ", full rebuild" : "");
        }
        std::fflush(stdout);
      }
    }
    auto resident = std::make_shared<ResidentDataset>();
    FIXY_ASSIGN_OR_RETURN(resident->source, io::OpenSceneSource(data_dir));
    resident->records = std::move(records);
    const SceneSource& source = *resident->source;
    if (source.scene_count() == 0) {
      return Status::InvalidArgument("dataset contains no scenes: " + data_dir);
    }
    for (size_t i = 0; i < source.scene_count(); ++i) {
      resident->scene_by_name.emplace(source.scene_name(i), i);  // first wins
    }
    datasets[data_dir] = resident;
    return std::shared_ptr<const ResidentDataset>(std::move(resident));
  }

  /// A one-scene request checks only what its answer depends on: the
  /// manifest (which scene it names) and that scene's own file. When
  /// neither moved since the resident copy was opened, the copy is reused
  /// after two stats, whatever the dataset's size; anything else takes
  /// the full pass. An edit to another scene waits for the first request
  /// that touches it.
  Result<ResidentScene> AcquireScene(const Request& request) {
    std::shared_ptr<const ResidentDataset> resident;
    {
      std::lock_guard<std::mutex> lock(datasets_mu);
      const auto it = datasets.find(request.data_dir);
      if (it != datasets.end()) resident = it->second;
    }
    if (resident != nullptr &&
        SourceUnchanged(request.data_dir, resident->records.back())) {
      FIXY_ASSIGN_OR_RETURN(const size_t index,
                            ResolveScene(*resident, request));
      // The bound fails only for a copy opened while its manifest moved.
      if (index + 1 < resident->records.size() &&
          SourceUnchanged(request.data_dir, resident->records[index])) {
        return ResidentScene{std::move(resident), index};
      }
    }
    FIXY_ASSIGN_OR_RETURN(resident, AcquireDataset(request.data_dir));
    FIXY_ASSIGN_OR_RETURN(const size_t index, ResolveScene(*resident, request));
    return ResidentScene{std::move(resident), index};
  }

  /// The response body shared by rank and rank-dataset. `proposals` maps
  /// each application to the EXACT bytes `fixy_cli rank --out` would
  /// write for it (its Worklist, then SaveProposals' pretty
  /// serialization) — the byte-parity contract is "a client writing this
  /// string verbatim produces the CLI's file".
  static json::Value BuildRankResult(const MultiAppReport& report, int top) {
    json::Object result;
    json::Array apps;
    json::Object proposals;
    json::Object counts;
    json::Object failed;
    for (size_t a = 0; a < report.apps.size(); ++a) {
      const std::string& app = report.apps[a];
      apps.emplace_back(app);
      const std::vector<ErrorProposal> all =
          Worklist(report.reports[a], static_cast<size_t>(top));
      proposals[app] =
          json::Value(json::Write(ProposalsToJson(all), /*pretty=*/true));
      counts[app] = json::Value(static_cast<uint64_t>(all.size()));
      failed[app] = json::Value(
          static_cast<uint64_t>(report.reports[a].scenes_failed));
    }
    result["apps"] = json::Value(std::move(apps));
    result["proposals"] = json::Value(std::move(proposals));
    result["counts"] = json::Value(std::move(counts));
    result["failed"] = json::Value(std::move(failed));
    result["scenes"] = json::Value(static_cast<uint64_t>(
        report.reports.empty() ? 0 : report.reports.front().outcomes.size()));
    return json::Value(std::move(result));
  }

  Status CheckLearnedLocked() {
    if (!model_loaded) {
      return Status::FailedPrecondition(
          "daemon has no learned model: start it with --model or send a "
          "learn request first");
    }
    return Status::Ok();
  }

  Result<json::Value> DoRank(const Request& request) {
    std::shared_lock<std::shared_mutex> lock(state_mu);
    FIXY_RETURN_IF_ERROR(CheckLearnedLocked());
    if (!request.scene.empty() && request.scene_index >= 0) {
      return Status::InvalidArgument(
          "pass either scene or scene_index, not both");
    }
    if (request.scene.empty() && request.scene_index < 0) {
      return Status::InvalidArgument(
          "rank needs a scene (by name) or scene_index");
    }
    const std::vector<std::string> apps = ResolveApps(request);
    ResidentScene resident;
    {
      const PhaseTimer timer(collector, "daemon.phase.acquire");
      FIXY_ASSIGN_OR_RETURN(resident, AcquireScene(request));
    }
    Scene scene;
    {
      const PhaseTimer timer(collector, "daemon.phase.decode");
      const SceneSource& source = *resident.dataset->source;
      FIXY_ASSIGN_OR_RETURN(scene, source.DecodeScene(resident.index));
    }
    MultiAppReport report;
    {
      const PhaseTimer timer(collector, "daemon.phase.rank");
      FIXY_ASSIGN_OR_RETURN(report, fixy->RankScene(scene, apps));
    }
    const PhaseTimer timer(collector, "daemon.phase.encode");
    return BuildRankResult(report, request.top);
  }

  Result<json::Value> DoRankDataset(const Request& request) {
    std::shared_lock<std::shared_mutex> lock(state_mu);
    FIXY_RETURN_IF_ERROR(CheckLearnedLocked());
    const std::vector<std::string> apps = ResolveApps(request);
    std::shared_ptr<const ResidentDataset> dataset;
    {
      const PhaseTimer timer(collector, "daemon.phase.acquire");
      FIXY_ASSIGN_OR_RETURN(dataset, AcquireDataset(request.data_dir));
    }
    BatchOptions batch;
    batch.num_threads = options.rank_threads;
    MultiAppReport report;
    {
      const PhaseTimer timer(collector, "daemon.phase.rank");
      FIXY_ASSIGN_OR_RETURN(
          report, fixy->RankDatasetStreaming(*dataset->source, apps, batch));
    }
    const PhaseTimer timer(collector, "daemon.phase.encode");
    return BuildRankResult(report, request.top);
  }

  Result<json::Value> DoLearn(const Request& request) {
    if (request.data_dir.empty()) {
      return Status::InvalidArgument("learn needs a dataset directory");
    }
    // Exclusive: ranking must never observe a half-replaced model.
    std::unique_lock<std::shared_mutex> lock(state_mu);
    FIXY_ASSIGN_OR_RETURN(const Dataset dataset,
                          io::LoadDataset(request.data_dir));
    FIXY_RETURN_IF_ERROR(fixy->Learn(dataset));
    model_loaded = true;
    if (!request.model_out.empty()) {
      FIXY_RETURN_IF_ERROR(fixy->SaveModel(request.model_out));
    }
    json::Object result;
    result["scenes"] =
        json::Value(static_cast<uint64_t>(dataset.scenes.size()));
    result["features"] =
        json::Value(static_cast<uint64_t>(fixy->learned_features().size()));
    return json::Value(std::move(result));
  }

  Result<json::Value> DoStatus() {
    std::shared_lock<std::shared_mutex> lock(state_mu);
    json::Object result;
    result["pid"] = json::Value(static_cast<int64_t>(::getpid()));
    result["uptime_ms"] = json::Value(static_cast<int64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                              started)
            .count()));
    result["model_loaded"] = json::Value(model_loaded);
    json::Array apps;
    for (const std::string& name : fixy->applications().names()) {
      apps.emplace_back(name);
    }
    result["apps"] = json::Value(std::move(apps));
    result["worker_threads"] = json::Value(options.worker_threads);
    result["max_queue_depth"] = json::Value(options.max_queue_depth);
    result["pending"] = json::Value(pending.load());
    {
      std::lock_guard<std::mutex> datasets_lock(datasets_mu);
      result["resident_datasets"] =
          json::Value(static_cast<uint64_t>(datasets.size()));
    }
    result["metrics"] = obs::MetricsToJson(collector.Snapshot());
    return json::Value(std::move(result));
  }

  // ---- main loop (read side) ----

  void Stop() {
    stopping.store(true);
    stop_pipe->Notify();
  }

  Result<Request> ParseRequestPayload(std::string_view payload) {
    const PhaseTimer timer(collector, "daemon.phase.parse");
    const Result<json::Value> body = json::Parse(payload);
    if (!body.ok()) {
      return Status::InvalidArgument(
          "request frame payload is not valid JSON: " +
          body.status().message());
    }
    return RequestFromJson(*body);
  }

  void HandleFrame(ThreadPool& pool, const std::shared_ptr<Connection>& conn,
                   const shard::Frame& frame) {
    if (frame.type != shard::FrameType::kRequest) {
      SendErrorFrame(*conn,
                     Status::InvalidArgument(
                         "unexpected frame type on a daemon connection"));
      return;
    }
    Result<Request> request = ParseRequestPayload(frame.payload);
    if (!request.ok()) {
      SendErrorFrame(*conn, request.status());
      return;
    }
    // Admission ladder, first rung: a bounded pending count (queued +
    // executing). Beyond it the daemon sheds load explicitly instead of
    // queueing work the client will time out on.
    collector.Count("daemon.requests");
    const int depth = pending.fetch_add(1) + 1;
    collector.SetGauge("daemon.queue_depth", static_cast<double>(depth));
    if (stopping.load() || depth > options.max_queue_depth) {
      pending.fetch_sub(1);
      collector.Count("daemon.rejected");
      Response response;
      response.id = request->id;
      response.status = Status::Unavailable(
          stopping.load()
              ? "daemon is draining for shutdown"
              : "daemon overloaded: " + std::to_string(depth - 1) +
                    " requests already pending (max " +
                    std::to_string(options.max_queue_depth) + ")");
      SendResponse(*conn, response, /*stall_timeout_ms=*/50);
      return;
    }
    const Clock::time_point enqueued = Clock::now();
    Impl* impl = this;
    Request req = std::move(request).value();
    pool.Submit([impl, conn, req = std::move(req), enqueued]() mutable {
      impl->HandleRequest(conn, std::move(req), enqueued);
      impl->pending.fetch_sub(1);
    });
  }

  void ReadConnection(ThreadPool& pool, const std::shared_ptr<Connection>& conn,
                      bool& remove) {
    char buffer[4096];
    const ssize_t n = ::read(conn->fd, buffer, sizeof(buffer));
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) return;
      remove = true;
      return;
    }
    if (n == 0) {  // peer closed
      remove = true;
      return;
    }
    const std::vector<shard::Frame> frames =
        conn->parser.Consume(std::string_view(buffer, static_cast<size_t>(n)));
    for (const shard::Frame& frame : frames) HandleFrame(pool, conn, frame);
    if (conn->parser.corrupt()) {
      // A framing violation poisons the whole byte stream (wire.h: no
      // resync). Tell the peer, then drop the connection; in-flight
      // responses on it are abandoned.
      SendErrorFrame(*conn,
                     Status::InvalidArgument(
                         "corrupt frame stream (bad CRC, type, or length)"));
      remove = true;
    }
  }

  Status Serve() {
    if (served) {
      return Status::FailedPrecondition("Serve() may only be called once");
    }
    served = true;

    // SIGTERM/SIGINT → one byte down the stop pipe → graceful drain.
    const ScopedStopSignals stop_signals(*stop_pipe);

    std::map<int, std::shared_ptr<Connection>> connections;
    {
      FIXY_ASSIGN_OR_RETURN(const std::unique_ptr<ThreadPool> pool,
                            ThreadPool::Create(options.worker_threads));
      for (;;) {
        std::vector<struct pollfd> pollfds;
        pollfds.push_back({stop_pipe->read_fd(), POLLIN, 0});
        pollfds.push_back({listen_fd, POLLIN, 0});
        for (const auto& [fd, conn] : connections) {
          pollfds.push_back({fd, POLLIN, 0});
        }
        const int ready =
            ::poll(pollfds.data(), pollfds.size(), /*timeout=*/-1);
        if (ready < 0) {
          if (errno == EINTR) continue;
          break;
        }
        if ((pollfds[0].revents & (POLLIN | POLLERR | POLLHUP)) != 0) break;
        if ((pollfds[1].revents & POLLIN) != 0) {
          const int fd = ::accept(listen_fd, nullptr, nullptr);
          if (fd >= 0) {
            SetCloexec(fd);
            auto conn = std::make_shared<Connection>();
            conn->fd = fd;
            connections[fd] = std::move(conn);
            collector.Count("daemon.connections");
          }
        }
        for (size_t i = 2; i < pollfds.size(); ++i) {
          if ((pollfds[i].revents & (POLLIN | POLLERR | POLLHUP)) == 0) {
            continue;
          }
          const auto it = connections.find(pollfds[i].fd);
          if (it == connections.end()) continue;
          bool remove = false;
          ReadConnection(*pool, it->second, remove);
          if (remove) {
            // Mark closed under the write lock so no worker writes after
            // this; the fd itself closes when the last reference drops.
            // `conn` is declared before the lock so the mutex it owns
            // outlives the unlock even when this is the last reference.
            const std::shared_ptr<Connection> conn = std::move(it->second);
            connections.erase(it);
            const std::lock_guard<std::mutex> lock(conn->write_mu);
            conn->open = false;
          }
        }
      }
      // Graceful drain: stop admitting, stop accepting, let the pool
      // finish (its destructor runs every already-submitted request, and
      // their responses still reach the open connections above).
      stopping.store(true);
      ::close(listen_fd);
      listen_fd = -1;
      ::unlink(options.socket_path.c_str());
    }  // ~ThreadPool: in-flight and queued requests complete here
    for (auto& [fd, conn] : connections) {
      std::lock_guard<std::mutex> lock(conn->write_mu);
      conn->open = false;
    }
    connections.clear();
    return Status::Ok();
  }
};

Result<std::unique_ptr<FixydServer>> FixydServer::Create(
    ServerOptions options) {
  if (options.socket_path.empty()) {
    return Status::InvalidArgument("fixyd needs a socket path");
  }
  if (options.worker_threads < 1) {
    return Status::InvalidArgument("worker_threads must be >= 1");
  }
  if (options.worker_threads > kMaxThreads) {
    return Status::InvalidArgument("worker_threads must be <= " +
                                   std::to_string(kMaxThreads));
  }
  if (options.rank_threads > kMaxThreads) {
    return Status::InvalidArgument("rank_threads must be <= " +
                                   std::to_string(kMaxThreads));
  }
  if (options.max_queue_depth < 1) {
    return Status::InvalidArgument("max_queue_depth must be >= 1");
  }
  struct sockaddr_un address = {};
  if (options.socket_path.size() >= sizeof(address.sun_path)) {
    return Status::InvalidArgument(
        "socket path too long for a unix socket: " + options.socket_path);
  }
  // A worker writing a response to a client that vanished must get
  // EPIPE, not die.
  IgnoreSigpipe();

  auto impl = std::make_unique<Impl>();
  impl->options = std::move(options);
  impl->fixy = std::make_unique<Fixy>(impl->options.engine);
  if (!impl->options.model_path.empty()) {
    FIXY_RETURN_IF_ERROR(impl->fixy->LoadModel(impl->options.model_path));
    impl->model_loaded = true;
  }
  {
    // Pre-register every daemon.* key so the first status snapshot (and
    // the metrics schema golden) sees the full stable key set.
    const obs::MetricsScope scope(&impl->collector);
    RecordDaemonMetricsSchema();
  }

  const std::string& path = impl->options.socket_path;
  address.sun_family = AF_UNIX;
  std::memcpy(address.sun_path, path.c_str(), path.size() + 1);

  // Stale-socket cleanup: a crashed daemon leaves its socket file
  // behind, and bind() would fail on it. Distinguish "stale" from "in
  // use" by connecting: refused/failed means nobody is listening.
  if (::access(path.c_str(), F_OK) == 0) {
    const int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (probe < 0) {
      return Status::IoError("socket() failed: " +
                             std::string(std::strerror(errno)));
    }
    const int connected = ::connect(
        probe, reinterpret_cast<const struct sockaddr*>(&address),
        sizeof(address));
    ::close(probe);
    if (connected == 0) {
      return Status::AlreadyExists("another fixyd is already serving on " +
                                   path);
    }
    ::unlink(path.c_str());
  }

  impl->listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (impl->listen_fd < 0) {
    return Status::IoError("socket() failed: " +
                           std::string(std::strerror(errno)));
  }
  SetCloexec(impl->listen_fd);
  if (::bind(impl->listen_fd,
             reinterpret_cast<const struct sockaddr*>(&address),
             sizeof(address)) != 0) {
    return Status::IoError("bind(" + path + ") failed: " +
                           std::string(std::strerror(errno)));
  }
  if (::listen(impl->listen_fd, 64) != 0) {
    return Status::IoError("listen(" + path + ") failed: " +
                           std::string(std::strerror(errno)));
  }

  FIXY_ASSIGN_OR_RETURN(impl->stop_pipe, StopPipe::Create());
  return std::unique_ptr<FixydServer>(new FixydServer(std::move(impl)));
}

FixydServer::FixydServer(std::unique_ptr<Impl> impl)
    : impl_(std::move(impl)) {}

FixydServer::~FixydServer() {
  if (impl_ != nullptr && impl_->listen_fd >= 0) {
    // Destroyed without Serve() ever draining: release the socket path.
    ::unlink(impl_->options.socket_path.c_str());
  }
}

Status FixydServer::Serve() { return impl_->Serve(); }

void FixydServer::RequestStop() { impl_->Stop(); }

const std::string& FixydServer::socket_path() const {
  return impl_->options.socket_path;
}

#else  // !(__unix__ || __APPLE__)

struct FixydServer::Impl {
  ServerOptions options;
};

Result<std::unique_ptr<FixydServer>> FixydServer::Create(ServerOptions) {
  return Status::Unimplemented("fixyd requires a POSIX platform");
}

FixydServer::FixydServer(std::unique_ptr<Impl> impl)
    : impl_(std::move(impl)) {}
FixydServer::~FixydServer() = default;
Status FixydServer::Serve() {
  return Status::Unimplemented("fixyd requires a POSIX platform");
}
void FixydServer::RequestStop() {}
const std::string& FixydServer::socket_path() const {
  return impl_->options.socket_path;
}

#endif

}  // namespace fixy::daemon
