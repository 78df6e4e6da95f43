// Process-wide setup for fixy executables that write to sockets whose
// peer can vanish: fixyd (a client disconnects) and its clients (the
// daemon exits). Without SIG_IGN a write to a half-closed descriptor
// raises SIGPIPE and kills the process; with it the write fails with
// EPIPE and surfaces as an IoError Status the caller can handle.
#ifndef FIXY_COMMON_PROCESS_H_
#define FIXY_COMMON_PROCESS_H_

#include <string_view>

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

}  // namespace fixy

#endif  // FIXY_COMMON_PROCESS_H_
