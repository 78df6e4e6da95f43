#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <fstream>
#include <thread>

#include "bench.h"
#include "common/macros.h"
#include "daemon/client.h"
#include "daemon/protocol.h"

namespace fixybench {

namespace {

// Waits up to `timeout_ms` for `pid` to exit; true once it has been reaped.
bool WaitExit(int pid, int timeout_ms) {
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  while (true) {
    int status = 0;
    const pid_t done = ::waitpid(pid, &status, WNOHANG);
    if (done == pid || (done < 0 && errno == ECHILD)) return true;
    if (Clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

}  // namespace

Result<std::unique_ptr<DaemonProcess>> DaemonProcess::Start(
    const Options& options, int worker_threads) {
  const Layout layout = LayoutFor(options.dir);
  // A relative socket path keeps it under the unix-socket length limit
  // however deep the checkout is; the daemon shares this working directory.
  const std::string socket = options.dir + "/fixyd.sock";
  const std::string log = options.dir + "/fixyd.log";
  const std::string threads = std::to_string(worker_threads);
  std::vector<std::string> args = {options.cli, "serve",   "--socket",
                                   socket,      "--model", layout.model,
                                   "--threads", threads};
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) return Status::IoError("fork failed");
  if (pid == 0) {
    const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      ::dup2(fd, STDOUT_FILENO);
      ::dup2(fd, STDERR_FILENO);
      ::close(fd);
    }
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  std::unique_ptr<DaemonProcess> daemon(new DaemonProcess(pid, socket));
  const auto deadline = Clock::now() + std::chrono::seconds(60);
  while (true) {
    if (fixy::daemon::FixydClient::Connect(socket).ok()) return daemon;
    int status = 0;
    if (::waitpid(pid, &status, WNOHANG) == pid) {
      daemon->pid_ = -1;
      return Status::Internal("fixyd exited during start-up; see " + log);
    }
    if (Clock::now() >= deadline) {
      return Status::Unavailable("fixyd did not start listening; see " + log);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

DaemonProcess::~DaemonProcess() {
  if (pid_ < 0) return;
  (void)Shutdown();
  if (pid_ < 0) return;
  ::kill(pid_, SIGTERM);
  if (!WaitExit(pid_, 5000)) {
    ::kill(pid_, SIGKILL);
    WaitExit(pid_, 5000);
  }
}

Result<double> DaemonProcess::PeakRssMb() const {
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return Status::Unavailable("no VmHWM for fixyd");
}

Status DaemonProcess::Shutdown() {
  if (pid_ < 0) return Status::Ok();
  FIXY_ASSIGN_OR_RETURN(fixy::daemon::FixydClient client,
                        fixy::daemon::FixydClient::Connect(socket_));
  fixy::daemon::Request request;
  request.kind = fixy::daemon::RequestKind::kShutdown;
  FIXY_ASSIGN_OR_RETURN(const fixy::daemon::Response response,
                        client.Call(request, 10000));
  FIXY_RETURN_IF_ERROR(response.status);
  if (!WaitExit(pid_, 10000)) {
    return Status::Unavailable("fixyd did not exit after shutdown");
  }
  pid_ = -1;
  return Status::Ok();
}

Status TraceStatusProbe(Tracer& tracer, const std::string& socket,
                        int probes) {
  FIXY_ASSIGN_OR_RETURN(fixy::daemon::FixydClient client,
                        fixy::daemon::FixydClient::Connect(socket));
  fixy::daemon::Request request;
  request.kind = fixy::daemon::RequestKind::kStatus;
  for (int p = 0; p < probes; ++p) {
    Result<fixy::daemon::Response> response = Status::Internal("no call");
    {
      Tracer::Scope op(tracer, "probe.status");
      Tracer::Scope span(tracer, "daemon.status_rtt");
      response = client.Call(request);
    }
    FIXY_RETURN_IF_ERROR(response.status());
    FIXY_RETURN_IF_ERROR(response->status);
  }
  return Status::Ok();
}

}  // namespace fixybench
