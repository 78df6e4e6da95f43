// daemon-small: a resident fixyd (`fixy_cli serve`, model loaded) under a
// closed loop of nproc client connections, each waiting for its reply.
// Every request ranks one short, sparse scene for the three paper apps
// with top 10; requests walk a few hundred scenes in a seeded order. An
// op is one request, timed from send to reply.
#include <atomic>
#include <mutex>
#include <thread>

#include "bench.h"
#include "common/macros.h"
#include "daemon/client.h"
#include "daemon/protocol.h"
#include "io/fxb.h"

namespace fixybench {

namespace {

using fixy::daemon::FixydClient;

fixy::daemon::Request RankRequest(const std::string& data, size_t scene) {
  fixy::daemon::Request request;
  request.kind = fixy::daemon::RequestKind::kRank;
  request.data_dir = data;
  request.scene_index = static_cast<int64_t>(scene);
  request.apps = PaperApps();
  request.top = 10;
  return request;
}

// The response's worklist string per paper app; empty on any failure.
std::vector<std::string> ResponseWorklists(
    const Result<fixy::daemon::Response>& response) {
  std::vector<std::string> out;
  if (!response.ok() || !response->status.ok()) return out;
  const fixy::json::Value* proposals = response->result.Find("proposals");
  if (proposals == nullptr) return out;
  for (const std::string& app : PaperApps()) {
    const fixy::json::Value* list = proposals->Find(app);
    if (list == nullptr || !list->is_string()) return {};
    out.push_back(list->AsString());
  }
  return out;
}

// A seeded permutation of [0, n).
std::vector<size_t> SeededOrder(size_t n, uint64_t seed) {
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  // Fisher-Yates over a splitmix64 stream: the same on every platform.
  for (size_t i = n; i > 1; --i) {
    seed = DeriveSeed(seed, "order");
    std::swap(order[i - 1], order[seed % i]);
  }
  return order;
}

}  // namespace

Status RunDaemonSmall(const Options& options, RunRecord& record) {
  const Layout layout = LayoutFor(options.dir);
  const int clients = HardwareThreads();
  const auto setup_start = Clock::now();
  FIXY_ASSIGN_OR_RETURN(const auto daemon,
                        DaemonProcess::Start(options, clients));
  FIXY_ASSIGN_OR_RETURN(const fixy::io::FxbReader reader,
                        fixy::io::FxbReader::Open(
                            fixy::io::FxbCachePath(layout.data)));
  const size_t scene_count = reader.scene_count();
  const std::vector<size_t> order =
      SeededOrder(scene_count, DeriveSeed(options.seed, "requests"));
  std::vector<FixydClient> connections;
  for (int c = 0; c < clients; ++c) {
    FIXY_ASSIGN_OR_RETURN(FixydClient client,
                          FixydClient::Connect(daemon->socket()));
    connections.push_back(std::move(client));
  }

  // first[s]: the worklists of the first answer for scene s; every later
  // answer must repeat them, and they are checked in-process at the end.
  std::vector<std::vector<std::string>> first(scene_count);
  std::vector<uint64_t> served(scene_count, 0);
  // Guards first, served, failed and failures.
  std::mutex mu;
  uint64_t failed = 0;
  std::vector<std::string> failures;

  // A finished request: when its reply arrived and how long it took.
  struct Reply {
    Clock::time_point at;
    double ms = 0.0;
  };
  // Closed loop over the shared request sequence until `until` (or, with
  // `limit`, after that many requests).
  const auto drive = [&](Clock::time_point until, uint64_t limit) {
    std::atomic<uint64_t> next{0};
    std::vector<std::vector<Reply>> replies(clients);
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        while (Clock::now() < until) {
          const uint64_t k = next.fetch_add(1);
          if (limit != 0 && k >= limit) break;
          const size_t scene = order[k % scene_count];
          const auto sent = Clock::now();
          const Result<fixy::daemon::Response> response =
              connections[c].Call(RankRequest(layout.data, scene));
          replies[c].push_back({Clock::now(), MsSince(sent)});
          std::vector<std::string> worklists = ResponseWorklists(response);
          const std::lock_guard<std::mutex> lock(mu);
          ++served[scene];
          if (worklists.empty()) {
            ++failed;
            if (failures.size() < 20) {
              failures.push_back(
                  "request failed: " +
                  (response.ok() ? response->status : response.status())
                      .ToString());
            }
          } else if (first[scene].empty()) {
            first[scene] = std::move(worklists);
          } else if (worklists != first[scene]) {
            ++failed;
            if (failures.size() < 20) {
              failures.push_back("scene " + std::to_string(scene) +
                                 " answered differently");
            }
          }
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    std::vector<Reply> all;
    for (const std::vector<Reply>& mine : replies) {
      all.insert(all.end(), mine.begin(), mine.end());
    }
    return all;
  };

  // Warm-up: every scene once (first-touch FXB open, lazy KDE mode
  // densities, page cache).
  drive(Clock::time_point::max(), scene_count);
  record.warmup_s = SecondsSince(setup_start);
  if (failed != 0) return Status::Internal("warm-up: " + failures.front());
  std::fill(served.begin(), served.end(), 0);

  const auto start = Clock::now();
  const std::vector<Reply> replies = drive(
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(options.seconds)),
      0);
  const double wall_s = SecondsSince(start);
  record.attempted += replies.size();
  // One-second windows by reply time; the last one takes the remainder.
  std::vector<Window> windows(std::max<size_t>(1, static_cast<size_t>(wall_s)));
  for (size_t i = 0; i < windows.size(); ++i) windows[i].seconds = 1.0;
  windows.back().seconds = wall_s - static_cast<double>(windows.size() - 1);
  std::vector<double> req_ms;
  for (const Reply& reply : replies) {
    const size_t i = static_cast<size_t>(
        std::chrono::duration<double>(reply.at - start).count());
    Window& w = windows[std::min(windows.size() - 1, i)];
    w.op_ms.push_back(reply.ms);
    w.scenes += 1.0;
    req_ms.push_back(reply.ms);
  }
  FIXY_ASSIGN_OR_RETURN(const double peak, daemon->PeakRssMb());
  record.Metric("peak_rss_mb", peak, "MB");
  EmitOpMetrics(record, windows);
  record.report["clients"] = fixy::json::Value(clients);

  // Verdict: each scene's answer equals the in-process RankScene, TopK
  // and ProposalsToJson bytes; a wrong answer fails every request for it.
  fixy::Fixy fixy;
  FIXY_RETURN_IF_ERROR(fixy.LoadModel(layout.model));
  for (size_t s = 0; s < scene_count; ++s) {
    if (first[s].empty()) continue;
    FIXY_ASSIGN_OR_RETURN(const fixy::Scene scene, reader.DecodeScene(s));
    FIXY_ASSIGN_OR_RETURN(const fixy::MultiAppReport report,
                          fixy.RankScene(scene, PaperApps()));
    std::vector<std::string> expected;
    for (const fixy::BatchReport& app : report.reports) {
      expected.push_back(
          ResponseWorklist(app.outcomes.front().proposals, 10));
    }
    if (expected != first[s]) {
      failed += served[s];
      failures.push_back("scene " + std::to_string(s) +
                         " differs from in-process RankScene");
    }
  }
  record.failed += failed;
  for (std::string& f : failures) record.failures.push_back(std::move(f));
  failures.clear();

  if (options.trace) {
    // Traced pass: the same request order, one request at a time; each op
    // replays in-process what fixyd does for it, then sends it for real.
    FIXY_ASSIGN_OR_RETURN(const auto layers, LoadRankLayers(layout.model));
    Tracer tracer;
    const auto traced_start = Clock::now();
    for (size_t k = 0; k < order.size(); ++k) {
      if (k > 0 && SecondsSince(traced_start) > options.seconds) break;
      const size_t s = order[k];
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
        scene = reader.DecodeScene(s);
      }
      FIXY_RETURN_IF_ERROR(scene.status());
      const Result<std::vector<std::string>> worklists =
          TraceRankScene(tracer, fixy, *layers, *scene, 10);
      Result<fixy::daemon::Response> response = Status::Internal("not sent");
      {
        Tracer::Scope span(tracer, "daemon.request");
        response = connections.front().Call(RankRequest(layout.data, s));
      }
      if (!worklists.ok()) {
        record.Fail(worklists.status().ToString());
      } else if (ResponseWorklists(response) != *worklists) {
        record.Fail("traced request for scene " + std::to_string(s) +
                    " differs from its replay");
      }
    }
    connections.clear();
    FIXY_RETURN_IF_ERROR(TraceWriteProbe(options, tracer, fixy, 4));
    FIXY_RETURN_IF_ERROR(TraceStatusProbe(tracer, daemon->socket(), 50));
    FIXY_RETURN_IF_ERROR(EmitTraceMetrics(
        options, tracer, Percentile(req_ms, 0.5),
        {"io.fingerprint", "io.decode", "core.rank_scene", "json.serialize"},
        record));
  }
  connections.clear();
  return daemon->Shutdown();
}

}  // namespace fixybench
