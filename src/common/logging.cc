#include "common/logging.h"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace fixy::internal_logging {

void LogFatal(const char* file, int line, const char* format, ...) {
  char message[2048];
  va_list args;
  va_start(args, format);
  std::vsnprintf(message, sizeof(message), format, args);
  va_end(args);
  // Strip leading directories so the line stays short.
  const char* slash = std::strrchr(file, '/');
  std::fprintf(stderr, "[FATAL %s:%d] %s\n",
               slash != nullptr ? slash + 1 : file, line, message);
  std::abort();
}

}  // namespace fixy::internal_logging
