#include "obs/metrics_json.h"

#include <cmath>

#include "common/file_util.h"
#include "common/string_util.h"

namespace fixy::obs {

namespace {

constexpr const char* kFormatMarker = "fixy-metrics";
constexpr int kFormatVersion = 1;

}  // namespace

json::Value MetricsToJson(const PipelineMetrics& metrics) {
  json::Object counters;
  for (const auto& [name, value] : metrics.counters) {
    counters[name] = value;
  }
  json::Object timers;
  for (const auto& [name, value] : metrics.timers_ms) {
    timers[name] = value;
  }
  json::Object gauges;
  for (const auto& [name, value] : metrics.gauges) {
    gauges[name] = value;
  }
  json::Object doc;
  doc["format"] = kFormatMarker;
  doc["version"] = kFormatVersion;
  doc["counters"] = std::move(counters);
  doc["timers_ms"] = std::move(timers);
  doc["gauges"] = std::move(gauges);
  return doc;
}

Status SaveMetrics(const PipelineMetrics& metrics, const std::string& path) {
  return WriteFileAtomic(
      path, {json::Write(MetricsToJson(metrics), /*pretty=*/true), "\n"});
}

Status ValidateMetrics(const PipelineMetrics& metrics) {
  // Counters are unsigned and cannot be negative or non-finite; timers
  // come from a monotonic clock, so a negative or non-finite value means
  // an instrumentation bug.
  for (const auto& [name, value] : metrics.timers_ms) {
    if (!std::isfinite(value)) {
      return Status::Internal("timer '" + name + "' is not finite");
    }
    if (value < 0.0) {
      return Status::Internal("timer '" + name + "' is negative");
    }
  }
  for (const auto& [name, value] : metrics.gauges) {
    if (!std::isfinite(value)) {
      return Status::Internal("gauge '" + name + "' is not finite");
    }
  }
  return Status::Ok();
}

std::string FormatMetricsTable(const PipelineMetrics& metrics) {
  size_t width = 0;
  for (const auto& [name, value] : metrics.counters) {
    width = std::max(width, name.size());
  }
  for (const auto& [name, value] : metrics.timers_ms) {
    width = std::max(width, name.size());
  }
  for (const auto& [name, value] : metrics.gauges) {
    width = std::max(width, name.size());
  }
  const int name_width = static_cast<int>(width);
  std::string table;
  if (!metrics.counters.empty()) {
    table += "counters:\n";
    for (const auto& [name, value] : metrics.counters) {
      table += StrFormat("  %-*s %12llu\n", name_width, name.c_str(),
                         static_cast<unsigned long long>(value));
    }
  }
  if (!metrics.timers_ms.empty()) {
    table += "timers (ms):\n";
    for (const auto& [name, value] : metrics.timers_ms) {
      table += StrFormat("  %-*s %12.3f\n", name_width, name.c_str(), value);
    }
  }
  if (!metrics.gauges.empty()) {
    table += "gauges:\n";
    for (const auto& [name, value] : metrics.gauges) {
      table += StrFormat("  %-*s %12.3f\n", name_width, name.c_str(), value);
    }
  }
  if (table.empty()) table = "(no metrics recorded)\n";
  return table;
}

}  // namespace fixy::obs
