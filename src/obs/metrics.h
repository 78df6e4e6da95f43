// Pipeline observability: monotonic stage timers, named counters/gauges,
// and a per-scene trace-span API.
//
// The design is pull-free and ambient: instrumentation sites call the
// free helpers (obs::Count, obs::AddTimeNs, ...) which report into the
// collector installed on the *current thread* by a MetricsScope. With no
// scope installed every helper is a thread-local load and a branch, so
// un-instrumented runs pay nothing measurable. The batch ranking path
// installs one collector per scene on the worker that ranks it and merges
// the per-scene snapshots back in dataset order, which makes every
// counter value identical across thread counts (counters are exact event
// counts; only timer *values* vary run to run).
//
// Conventions:
//   counters  — exact, monotonically accumulated event counts
//               ("io.files_read", "stats.kde_evals",
//               "rank.missing-tracks.proposals").
//               Deterministic for a given input at any thread count.
//   timers    — accumulated wall time per stage, steady_clock (monotonic,
//               never negative), exported in milliseconds ("io.load",
//               "rank.track_build", "batch.total").
//   gauges    — point-in-time values merged with max() so aggregation
//               order cannot change the result ("batch.threads",
//               "batch.scene_ms_max").
//   spans     — a TraceSpan named S adds counter "span.S.calls" and timer
//               "span.S" (the per-scene unit of the batch path).
#ifndef FIXY_OBS_METRICS_H_
#define FIXY_OBS_METRICS_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

namespace fixy::obs {

/// A snapshot of everything a pipeline run recorded. Attached to
/// BatchReport and dumped by `fixy_cli rank --metrics-json`; the JSON
/// schema lives in obs/metrics_json.h.
struct PipelineMetrics {
  std::map<std::string, uint64_t, std::less<>> counters;
  std::map<std::string, double, std::less<>> timers_ms;
  std::map<std::string, double, std::less<>> gauges;

  bool empty() const {
    return counters.empty() && timers_ms.empty() && gauges.empty();
  }

  /// Counters and timers accumulate; gauges merge with max(), so merging
  /// per-scene snapshots in any order yields the same result.
  void MergeFrom(const PipelineMetrics& other) {
    for (const auto& [name, value] : other.counters) counters[name] += value;
    for (const auto& [name, value] : other.timers_ms) {
      timers_ms[name] += value;
    }
    for (const auto& [name, value] : other.gauges) {
      auto [it, inserted] = gauges.emplace(name, value);
      if (!inserted) it->second = std::max(it->second, value);
    }
  }
};

/// Thread-safe sink for metric events. The batch path gives each scene
/// its own collector (touched by exactly one worker, so the mutex is
/// uncontended); the CLI keeps one for the whole invocation.
class MetricsCollector {
 public:
  void Count(std::string_view name, uint64_t delta = 1) {
    std::lock_guard<std::mutex> lock(mutex_);
    CounterSlot(name) += delta;
  }

  void AddTimeNs(std::string_view name, uint64_t ns) {
    std::lock_guard<std::mutex> lock(mutex_);
    TimerSlot(name) += static_cast<double>(ns) * 1e-6;
  }

  /// Sets a gauge; repeated sets keep the maximum (merge semantics).
  void SetGauge(std::string_view name, double value) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = metrics_.gauges.find(name);
    if (it == metrics_.gauges.end()) {
      metrics_.gauges.emplace(std::string(name), value);
    } else {
      it->second = std::max(it->second, value);
    }
  }

  void Merge(const PipelineMetrics& other) {
    std::lock_guard<std::mutex> lock(mutex_);
    metrics_.MergeFrom(other);
  }

  PipelineMetrics Snapshot() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return metrics_;
  }

  void Reset() {
    std::lock_guard<std::mutex> lock(mutex_);
    metrics_ = PipelineMetrics();
  }

 private:
  uint64_t& CounterSlot(std::string_view name) {
    auto it = metrics_.counters.find(name);
    if (it == metrics_.counters.end()) {
      it = metrics_.counters.emplace(std::string(name), 0).first;
    }
    return it->second;
  }

  double& TimerSlot(std::string_view name) {
    auto it = metrics_.timers_ms.find(name);
    if (it == metrics_.timers_ms.end()) {
      it = metrics_.timers_ms.emplace(std::string(name), 0.0).first;
    }
    return it->second;
  }

  mutable std::mutex mutex_;
  PipelineMetrics metrics_;
};

namespace internal {
/// The collector the current thread reports into; null means disabled.
inline MetricsCollector*& CurrentSlot() {
  thread_local MetricsCollector* current = nullptr;
  return current;
}
}  // namespace internal

/// The active collector on this thread (null when metrics are off).
inline MetricsCollector* Current() { return internal::CurrentSlot(); }

/// RAII: installs `collector` as this thread's sink for its lifetime and
/// restores the previous one on destruction. Installing nullptr silences
/// metrics for the scope (the batch path uses this so a metrics-off batch
/// behaves identically at every thread count).
class MetricsScope {
 public:
  explicit MetricsScope(MetricsCollector* collector)
      : previous_(internal::CurrentSlot()) {
    internal::CurrentSlot() = collector;
  }
  ~MetricsScope() { internal::CurrentSlot() = previous_; }

  MetricsScope(const MetricsScope&) = delete;
  MetricsScope& operator=(const MetricsScope&) = delete;

 private:
  MetricsCollector* previous_;
};

/// Fire-and-forget helpers: no-ops (one thread-local load + branch) when
/// no collector is installed on the calling thread.
inline void Count(std::string_view name, uint64_t delta = 1) {
  if (MetricsCollector* c = Current()) c->Count(name, delta);
}

inline void AddTimeNs(std::string_view name, uint64_t ns) {
  if (MetricsCollector* c = Current()) c->AddTimeNs(name, ns);
}

inline void SetGauge(std::string_view name, double value) {
  if (MetricsCollector* c = Current()) c->SetGauge(name, value);
}

/// Whether the calling thread currently records metrics — for sites that
/// want to skip snapshot assembly work entirely.
inline bool Enabled() { return Current() != nullptr; }

/// A monotonic stage timer (steady_clock, immune to wall-clock jumps).
class StageTimer {
 public:
  StageTimer() : start_(Clock::now()) {}

  uint64_t ElapsedNs() const {
    const auto delta = Clock::now() - start_;
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(delta).count());
  }

  double ElapsedMs() const { return static_cast<double>(ElapsedNs()) * 1e-6; }

  void Restart() { start_ = Clock::now(); }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// RAII stage timer: adds the scope's wall time to timer `name` on the
/// collector active at destruction.
class ScopedStageTimer {
 public:
  explicit ScopedStageTimer(std::string_view name) : name_(name) {}
  ~ScopedStageTimer() { AddTimeNs(name_, timer_.ElapsedNs()); }

  ScopedStageTimer(const ScopedStageTimer&) = delete;
  ScopedStageTimer& operator=(const ScopedStageTimer&) = delete;

 private:
  std::string name_;
  StageTimer timer_;
};

/// A trace span: one named unit of work (the batch path opens one per
/// scene). Records counter "span.<name>.calls" on entry and accumulates
/// the wall time into timer "span.<name>" on exit.
class TraceSpan {
 public:
  explicit TraceSpan(std::string_view name) : name_(name) {
    Count("span." + name_ + ".calls");
  }
  ~TraceSpan() { AddTimeNs("span." + name_, timer_.ElapsedNs()); }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  double ElapsedMs() const { return timer_.ElapsedMs(); }

 private:
  std::string name_;
  StageTimer timer_;
};

}  // namespace fixy::obs

#endif  // FIXY_OBS_METRICS_H_
