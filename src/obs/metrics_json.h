// Stable JSON schema for PipelineMetrics snapshots, plus the human table
// `fixy_cli rank --verbose-metrics` prints.
//
// Schema (version 1; tools/check.sh diffs the key set against
// tools/metrics_schema.golden so drift is an explicit change):
//
//   {
//     "format": "fixy-metrics",
//     "version": 1,
//     "counters":  {"<name>": <integer>, ...},
//     "timers_ms": {"<name>": <milliseconds>, ...},
//     "gauges":    {"<name>": <value>, ...}
//   }
//
// Keys are emitted sorted (json::Object is a sorted map), so two dumps
// with identical content are byte-identical.
#ifndef FIXY_OBS_METRICS_JSON_H_
#define FIXY_OBS_METRICS_JSON_H_

#include <string>

#include "common/status.h"
#include "json/json.h"
#include "obs/metrics.h"

namespace fixy::obs {

/// Converts a snapshot to its JSON document.
json::Value MetricsToJson(const PipelineMetrics& metrics);

/// Writes a pretty-printed snapshot to `path` through WriteFileAtomic.
/// Errors: IoError.
Status SaveMetrics(const PipelineMetrics& metrics, const std::string& path);

/// Every metric value must be finite, and counters/timers non-negative
/// (counters are unsigned; timers come from a monotonic clock). Returns
/// the first violation — the metrics sweep in tools/check.sh fails on it.
Status ValidateMetrics(const PipelineMetrics& metrics);

/// Human-readable aligned table, one metric per line, sections in
/// counter/timer/gauge order.
std::string FormatMetricsTable(const PipelineMetrics& metrics);

}  // namespace fixy::obs

#endif  // FIXY_OBS_METRICS_JSON_H_
