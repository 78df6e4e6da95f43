// Fatal errors and runtime invariant checks. FIXY_LOG_FATAL prints one
// printf-style line to stderr and aborts the process.
#ifndef FIXY_COMMON_LOGGING_H_
#define FIXY_COMMON_LOGGING_H_

namespace fixy::internal_logging {

/// Writes "[FATAL file:line] message" to stderr, then aborts.
[[noreturn]] void LogFatal(const char* file, int line, const char* format,
                           ...) __attribute__((format(printf, 3, 4)));

}  // namespace fixy::internal_logging

#define FIXY_LOG_FATAL(...) \
  ::fixy::internal_logging::LogFatal(__FILE__, __LINE__, __VA_ARGS__)

// Runtime invariant checks; active in all build modes.
#define FIXY_CHECK(cond)                                                     \
  do {                                                                       \
    if (!(cond)) {                                                           \
      FIXY_LOG_FATAL("CHECK failed: %s", #cond);                             \
    }                                                                        \
  } while (0)

#define FIXY_CHECK_MSG(cond, ...)                                            \
  do {                                                                       \
    if (!(cond)) {                                                           \
      FIXY_LOG_FATAL(__VA_ARGS__);                                           \
    }                                                                        \
  } while (0)

#endif  // FIXY_COMMON_LOGGING_H_
