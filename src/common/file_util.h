// Whole-file reads and atomic whole-file writes, shared by every layer
// that persists a document: scenes and manifests (io), the FXB cache,
// learned models and worklists (core, and `fixy_cli query --out`),
// metrics snapshots (obs), and scenario ledgers, locks and sweep reports.
#ifndef FIXY_COMMON_FILE_UTIL_H_
#define FIXY_COMMON_FILE_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace fixy {

/// Reads the whole file at `path` into `*out` with one sized read,
/// reusing `out`'s existing capacity when it suffices. Errors: IoError.
Status ReadFileInto(const std::string& path, std::string* out);

/// Writes `parts`, concatenated in order, to `path + ".tmp"`, then renames
/// it over `path`, so a concurrent reader (a watch poll, a cache update, a
/// rank loading the model `watch --learn-labels` rewrites) sees the old
/// file or the new one, never a half-written one, and a write that fails
/// part-way leaves the old file in place. A caller with one string passes
/// one part. Errors: IoError.
Status WriteFileAtomic(const std::string& path,
                       const std::vector<std::string_view>& parts);

}  // namespace fixy

#endif  // FIXY_COMMON_FILE_UTIL_H_
