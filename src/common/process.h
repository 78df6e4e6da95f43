// Process-wide plumbing for fixy's long-running loops and socket users:
//
//  - fixyd (a client disconnects) and its clients (the daemon exits)
//    write to sockets whose peer can vanish. Without SIG_IGN a write to a
//    half-closed descriptor raises SIGPIPE and kills the process; with it
//    the write fails with EPIPE and surfaces as an IoError Status the
//    caller can handle.
//  - fixyd's serve loop and the watch loop stop on a stop pipe, which
//    SIGINT and SIGTERM can be bound to, so ^C or a kill drains them
//    gracefully.
#ifndef FIXY_COMMON_PROCESS_H_
#define FIXY_COMMON_PROCESS_H_

#include <memory>
#include <string_view>

#include "common/result.h"
#include "common/status.h"

namespace fixy {

/// Ignores SIGPIPE for the whole process (idempotent, thread-safe — the
/// handler is installed once). Call before any write whose peer may have
/// gone away; a no-op on platforms without SIGPIPE.
void IgnoreSigpipe();

/// Writes all of `bytes` to `fd`, retrying short writes and EINTR.
/// Errors: IoError naming errno — including EPIPE for a vanished peer,
/// which requires IgnoreSigpipe() to arrive as an error instead of a
/// process-killing signal. Unimplemented on non-POSIX platforms.
Status WriteAllFd(int fd, std::string_view bytes);

/// A self-pipe that carries a stop request from any thread or signal
/// handler to a poll loop: Notify() writes one byte to the non-blocking
/// write end, and the loop polls read_fd() for POLLIN. Both ends are
/// close-on-exec. Nothing drains the pipe: a stop is terminal.
class StopPipe {
 public:
  /// Errors: IoError if pipe() fails; Unimplemented off POSIX.
  static Result<std::unique_ptr<StopPipe>> Create();
  ~StopPipe();

  StopPipe(const StopPipe&) = delete;
  StopPipe& operator=(const StopPipe&) = delete;

  int read_fd() const { return read_fd_; }

  /// Writes one byte; async-signal-safe. A full pipe already holds a
  /// pending stop, so a failed write is dropped.
  void Notify() const;

 private:
  friend class ScopedStopSignals;
  StopPipe(int read_fd, int write_fd)
      : read_fd_(read_fd), write_fd_(write_fd) {}

  int read_fd_;
  int write_fd_;
};

/// Binds SIGINT and SIGTERM to `pipe` for the scope's lifetime: either
/// signal runs a handler that does nothing but write one byte to the
/// pipe. The destructor restores the handlers and the pipe that were
/// bound before, so a bounded run leaves the process as it found it.
/// `pipe` must outlive the binding. A no-op off POSIX.
class ScopedStopSignals {
 public:
  explicit ScopedStopSignals(const StopPipe& pipe);
  ~ScopedStopSignals();

  ScopedStopSignals(const ScopedStopSignals&) = delete;
  ScopedStopSignals& operator=(const ScopedStopSignals&) = delete;

 private:
  struct Saved;
  std::unique_ptr<Saved> saved_;
};

}  // namespace fixy

#endif  // FIXY_COMMON_PROCESS_H_
