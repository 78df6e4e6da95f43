// fixyd: the resident ranking daemon. One process keeps the learned
// model, the ApplicationRegistry, and mmap'd FXB readers alive across
// requests, so a rank query pays only the ranking — not the per-process
// model load, registry build, and cache open the one-shot CLI repeats on
// every invocation (DESIGN.md §13).
//
// Concurrency model: the main thread owns the listening socket and every
// connection's *read* side (one poll loop, incremental FrameParser per
// connection); admitted requests execute on a fixed ThreadPool, and each
// worker writes its response frame directly to the connection under a
// per-connection write lock. Admission control is a bounded pending
// counter: when `max_queue_depth` requests are already queued or
// executing, new ones are rejected immediately with Unavailable rather
// than queued behind work the client may no longer want; a per-request
// deadline_ms bounds queue wait the same way.
#ifndef FIXY_DAEMON_SERVER_H_
#define FIXY_DAEMON_SERVER_H_

#include <memory>
#include <string>

#include "common/result.h"
#include "core/engine.h"

namespace fixy::daemon {

struct ServerOptions {
  /// Path of the unix-domain listening socket. A leftover socket file
  /// from a crashed daemon is detected (connect refused) and replaced; a
  /// *live* daemon on the path fails Create with AlreadyExists.
  std::string socket_path;
  /// Optional model to load at startup; without it the daemon starts
  /// unlearned and serves only learn/status/shutdown until a learn
  /// request succeeds.
  std::string model_path;
  /// Engine configuration. Must match the CLI's (same extra
  /// applications) for daemon responses to be byte-identical to one-shot
  /// CLI runs.
  FixyOptions engine;
  /// Request-executor threads: how many requests run concurrently.
  /// 1..kMaxThreads (common/thread_pool.h); Create rejects other values.
  int worker_threads = 4;
  /// BatchOptions::num_threads used inside a rank-dataset request; above
  /// kMaxThreads Create rejects it.
  int rank_threads = 0;
  /// Admission bound: queued + executing requests beyond this are
  /// rejected with Unavailable.
  int max_queue_depth = 64;
  /// Test hook: every request sleeps this long at execution start,
  /// making overload and deadline rejections deterministic in tests.
  int test_delay_ms = 0;
};

/// A running daemon instance. Create() binds and listens (so clients can
/// connect as soon as it returns); Serve() runs the accept/read/dispatch
/// loop until a shutdown request, RequestStop(), SIGTERM, or SIGINT,
/// then drains in-flight requests, closes connections, and removes the
/// socket file.
class FixydServer {
 public:
  static Result<std::unique_ptr<FixydServer>> Create(ServerOptions options);
  ~FixydServer();

  FixydServer(const FixydServer&) = delete;
  FixydServer& operator=(const FixydServer&) = delete;

  /// Blocks serving requests; returns after the graceful drain. Safe to
  /// call at most once.
  Status Serve();

  /// Asynchronously asks Serve() to drain and return. Safe from any
  /// thread and from signal handlers (it only writes one byte to a
  /// pipe).
  void RequestStop();

  const std::string& socket_path() const;

 private:
  struct Impl;
  explicit FixydServer(std::unique_ptr<Impl> impl);

  std::unique_ptr<Impl> impl_;
};

}  // namespace fixy::daemon

#endif  // FIXY_DAEMON_SERVER_H_
