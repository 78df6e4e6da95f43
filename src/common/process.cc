#include "common/process.h"

#include <atomic>
#include <cerrno>
#include <cstring>
#include <mutex>
#include <string>

#if defined(__unix__) || defined(__APPLE__)
#include <csignal>
#include <fcntl.h>
#include <unistd.h>
#endif

namespace fixy {

void IgnoreSigpipe() {
#if defined(__unix__) || defined(__APPLE__)
  static std::once_flag once;
  std::call_once(once, [] { std::signal(SIGPIPE, SIG_IGN); });
#endif
}

Status WriteAllFd(int fd, std::string_view bytes) {
#if defined(__unix__) || defined(__APPLE__)
  size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n =
        ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError("write to fd failed: " +
                             std::string(std::strerror(errno)));
    }
    written += static_cast<size_t>(n);
  }
  return Status::Ok();
#else
  (void)fd;
  (void)bytes;
  return Status::Unimplemented("WriteAllFd requires a POSIX platform");
#endif
}

#if defined(__unix__) || defined(__APPLE__)

namespace {

/// Write end of the pipe SIGINT/SIGTERM are bound to; -1 when none is.
std::atomic<int> g_stop_signal_fd{-1};

void WriteStopByte(int fd) {
  const char byte = 's';
  [[maybe_unused]] const ssize_t n = ::write(fd, &byte, 1);
}

extern "C" void StopSignalHandler(int) {
  const int fd = g_stop_signal_fd.load(std::memory_order_relaxed);
  if (fd >= 0) WriteStopByte(fd);
}

/// Sets `flag` in the fd's descriptor flags (get/set = F_GETFD/F_SETFD)
/// or status flags (F_GETFL/F_SETFL).
void AddFdFlag(int fd, int get, int set, int flag) {
  const int flags = ::fcntl(fd, get);
  if (flags >= 0) ::fcntl(fd, set, flags | flag);
}

}  // namespace

struct ScopedStopSignals::Saved {
  int previous_fd = -1;
  struct sigaction previous_int = {};
  struct sigaction previous_term = {};
};

Result<std::unique_ptr<StopPipe>> StopPipe::Create() {
  int fds[2] = {-1, -1};
  if (::pipe(fds) != 0) {
    return Status::IoError("pipe() failed: " +
                           std::string(std::strerror(errno)));
  }
  AddFdFlag(fds[0], F_GETFD, F_SETFD, FD_CLOEXEC);
  AddFdFlag(fds[1], F_GETFD, F_SETFD, FD_CLOEXEC);
  // The write end must never block: signal handlers write to it.
  AddFdFlag(fds[1], F_GETFL, F_SETFL, O_NONBLOCK);
  return std::unique_ptr<StopPipe>(new StopPipe(fds[0], fds[1]));
}

StopPipe::~StopPipe() {
  ::close(read_fd_);
  ::close(write_fd_);
}

void StopPipe::Notify() const { WriteStopByte(write_fd_); }

ScopedStopSignals::ScopedStopSignals(const StopPipe& pipe)
    : saved_(std::make_unique<Saved>()) {
  saved_->previous_fd = g_stop_signal_fd.exchange(pipe.write_fd_);
  struct sigaction action = {};
  action.sa_handler = &StopSignalHandler;
  sigemptyset(&action.sa_mask);
  ::sigaction(SIGINT, &action, &saved_->previous_int);
  ::sigaction(SIGTERM, &action, &saved_->previous_term);
}

ScopedStopSignals::~ScopedStopSignals() {
  ::sigaction(SIGINT, &saved_->previous_int, nullptr);
  ::sigaction(SIGTERM, &saved_->previous_term, nullptr);
  g_stop_signal_fd.store(saved_->previous_fd);
}

#else  // !(__unix__ || __APPLE__)

struct ScopedStopSignals::Saved {};

Result<std::unique_ptr<StopPipe>> StopPipe::Create() {
  return Status::Unimplemented("a stop pipe requires a POSIX platform");
}

StopPipe::~StopPipe() = default;

void StopPipe::Notify() const {}

ScopedStopSignals::ScopedStopSignals(const StopPipe&) {}

ScopedStopSignals::~ScopedStopSignals() = default;

#endif

}  // namespace fixy
