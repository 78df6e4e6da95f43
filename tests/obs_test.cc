// Tests for the observability layer: collector semantics, the ambient
// MetricsScope, merge rules, the JSON document, validation, and the human
// table.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <iterator>
#include <limits>
#include <thread>

#include "json/json.h"
#include "obs/metrics.h"
#include "obs/metrics_json.h"

namespace fixy::obs {
namespace {

TEST(MetricsCollectorTest, CountsAccumulate) {
  MetricsCollector collector;
  collector.Count("io.files_read");
  collector.Count("io.files_read", 3);
  collector.Count("io.bytes_read", 1024);
  const PipelineMetrics snapshot = collector.Snapshot();
  EXPECT_EQ(snapshot.counters.at("io.files_read"), 4u);
  EXPECT_EQ(snapshot.counters.at("io.bytes_read"), 1024u);
}

TEST(MetricsCollectorTest, TimersAccumulateInMilliseconds) {
  MetricsCollector collector;
  collector.AddTimeNs("io.load", 1'500'000);  // 1.5 ms
  collector.AddTimeNs("io.load", 500'000);    // 0.5 ms
  const PipelineMetrics snapshot = collector.Snapshot();
  EXPECT_DOUBLE_EQ(snapshot.timers_ms.at("io.load"), 2.0);
}

TEST(MetricsCollectorTest, GaugesKeepMaximum) {
  MetricsCollector collector;
  collector.SetGauge("batch.scene_ms_max", 3.0);
  collector.SetGauge("batch.scene_ms_max", 1.0);
  collector.SetGauge("batch.scene_ms_max", 7.0);
  EXPECT_DOUBLE_EQ(collector.Snapshot().gauges.at("batch.scene_ms_max"), 7.0);
}

TEST(PipelineMetricsTest, MergeAddsCountersAndTimersMaxesGauges) {
  PipelineMetrics a;
  a.counters["n"] = 2;
  a.timers_ms["t"] = 1.5;
  a.gauges["g"] = 4.0;
  PipelineMetrics b;
  b.counters["n"] = 3;
  b.counters["only_b"] = 1;
  b.timers_ms["t"] = 0.5;
  b.gauges["g"] = 2.0;
  a.MergeFrom(b);
  EXPECT_EQ(a.counters.at("n"), 5u);
  EXPECT_EQ(a.counters.at("only_b"), 1u);
  EXPECT_DOUBLE_EQ(a.timers_ms.at("t"), 2.0);
  EXPECT_DOUBLE_EQ(a.gauges.at("g"), 4.0);
}

TEST(PipelineMetricsTest, MergeIsOrderInsensitive) {
  PipelineMetrics a, b;
  a.counters["n"] = 2;
  a.gauges["g"] = 1.0;
  b.counters["n"] = 5;
  b.gauges["g"] = 3.0;
  PipelineMetrics ab = a;
  ab.MergeFrom(b);
  PipelineMetrics ba = b;
  ba.MergeFrom(a);
  EXPECT_EQ(ab.counters, ba.counters);
  EXPECT_EQ(ab.gauges, ba.gauges);
}

TEST(MetricsScopeTest, HelpersNoOpWithoutScope) {
  ASSERT_EQ(Current(), nullptr);
  EXPECT_FALSE(Enabled());
  // Must not crash; nothing to observe.
  Count("ignored");
  AddTimeNs("ignored", 10);
  SetGauge("ignored", 1.0);
}

TEST(MetricsScopeTest, InstallsAndRestoresNested) {
  MetricsCollector outer, inner;
  ASSERT_EQ(Current(), nullptr);
  {
    const MetricsScope outer_scope(&outer);
    EXPECT_EQ(Current(), &outer);
    Count("seen_by_outer");
    {
      const MetricsScope inner_scope(&inner);
      EXPECT_EQ(Current(), &inner);
      Count("seen_by_inner");
    }
    EXPECT_EQ(Current(), &outer);
    {
      // Null scope silences metrics even inside an active scope.
      const MetricsScope silence(nullptr);
      EXPECT_FALSE(Enabled());
      Count("silenced");
    }
  }
  EXPECT_EQ(Current(), nullptr);
  EXPECT_EQ(outer.Snapshot().counters.count("seen_by_outer"), 1u);
  EXPECT_EQ(outer.Snapshot().counters.count("silenced"), 0u);
  EXPECT_EQ(inner.Snapshot().counters.at("seen_by_inner"), 1u);
  EXPECT_EQ(inner.Snapshot().counters.count("seen_by_outer"), 0u);
}

TEST(MetricsScopeTest, ScopeIsPerThread) {
  MetricsCollector collector;
  const MetricsScope scope(&collector);
  bool other_thread_enabled = true;
  std::thread worker([&other_thread_enabled] {
    // A fresh thread has no ambient collector, regardless of the parent.
    other_thread_enabled = Enabled();
    Count("from_other_thread");
  });
  worker.join();
  EXPECT_FALSE(other_thread_enabled);
  EXPECT_EQ(collector.Snapshot().counters.count("from_other_thread"), 0u);
}

TEST(MetricsScopeTest, CollectorIsThreadSafeWhenShared) {
  MetricsCollector collector;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 1000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&collector] {
      const MetricsScope scope(&collector);
      for (int i = 0; i < kPerThread; ++i) Count("shared");
    });
  }
  for (std::thread& worker : workers) worker.join();
  EXPECT_EQ(collector.Snapshot().counters.at("shared"),
            static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(StageTimerTest, MonotonicNonNegative) {
  const StageTimer timer;
  const uint64_t first = timer.ElapsedNs();
  const uint64_t second = timer.ElapsedNs();
  EXPECT_GE(second, first);
  EXPECT_GE(timer.ElapsedMs(), 0.0);
}

TEST(ScopedStageTimerTest, RecordsOnDestruction) {
  MetricsCollector collector;
  const MetricsScope scope(&collector);
  { const ScopedStageTimer timer("stage.x"); }
  const PipelineMetrics snapshot = collector.Snapshot();
  ASSERT_EQ(snapshot.timers_ms.count("stage.x"), 1u);
  EXPECT_GE(snapshot.timers_ms.at("stage.x"), 0.0);
}

PipelineMetrics SampleMetrics() {
  PipelineMetrics metrics;
  metrics.counters["io.files_read"] = 16;
  metrics.counters["stats.kde_evals"] = 123456;
  metrics.timers_ms["io.load"] = 12.25;
  metrics.timers_ms["batch.total"] = 98.5;
  metrics.gauges["batch.threads"] = 8.0;
  return metrics;
}

TEST(MetricsJsonTest, RoundTripsThroughJsonText) {
  const PipelineMetrics metrics = SampleMetrics();
  // Full fidelity through the real serialization path: value -> text ->
  // parse, checked against the snapshot entry by entry.
  const std::string text = json::Write(MetricsToJson(metrics), true);
  const Result<json::Value> parsed = json::Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(*parsed->GetString("format"), "fixy-metrics");
  EXPECT_EQ(*parsed->GetInt64("version"), 1);
  const json::Value& counters = *parsed->Find("counters");
  ASSERT_EQ(counters.AsObject().size(), metrics.counters.size());
  for (const auto& [name, value] : metrics.counters) {
    EXPECT_EQ(*counters.GetInt64(name), static_cast<int64_t>(value)) << name;
  }
  const json::Value& timers = *parsed->Find("timers_ms");
  ASSERT_EQ(timers.AsObject().size(), metrics.timers_ms.size());
  for (const auto& [name, value] : metrics.timers_ms) {
    EXPECT_EQ(*timers.GetDouble(name), value) << name;
  }
  const json::Value& gauges = *parsed->Find("gauges");
  ASSERT_EQ(gauges.AsObject().size(), metrics.gauges.size());
  for (const auto& [name, value] : metrics.gauges) {
    EXPECT_EQ(*gauges.GetDouble(name), value) << name;
  }
}

TEST(MetricsJsonTest, SerializationIsByteStable) {
  // Two structurally identical snapshots serialize to identical bytes —
  // the property the cross-thread-count CLI acceptance test relies on.
  const std::string a = json::Write(MetricsToJson(SampleMetrics()), true);
  const std::string b = json::Write(MetricsToJson(SampleMetrics()), true);
  EXPECT_EQ(a, b);
}

TEST(MetricsJsonTest, SaveAndLoadRoundTrip) {
  const PipelineMetrics metrics = SampleMetrics();
  const std::string path =
      ::testing::TempDir() + "/obs_test_metrics.json";
  ASSERT_TRUE(SaveMetrics(metrics, path).ok());
  // The file holds the pretty document plus a trailing newline.
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good());
  const std::string saved((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  EXPECT_EQ(saved, json::Write(MetricsToJson(metrics), true) + "\n");
}

TEST(ValidateMetricsTest, AcceptsWellFormedSnapshot) {
  EXPECT_TRUE(ValidateMetrics(SampleMetrics()).ok());
}

TEST(ValidateMetricsTest, RejectsNegativeTimer) {
  PipelineMetrics metrics = SampleMetrics();
  metrics.timers_ms["io.load"] = -1.0;
  EXPECT_FALSE(ValidateMetrics(metrics).ok());
}

TEST(ValidateMetricsTest, RejectsNonFiniteValues) {
  PipelineMetrics with_nan_timer = SampleMetrics();
  with_nan_timer.timers_ms["io.load"] =
      std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(ValidateMetrics(with_nan_timer).ok());

  PipelineMetrics with_inf_gauge = SampleMetrics();
  with_inf_gauge.gauges["batch.threads"] =
      std::numeric_limits<double>::infinity();
  EXPECT_FALSE(ValidateMetrics(with_inf_gauge).ok());
}

TEST(FormatMetricsTableTest, ContainsEveryMetricName) {
  const std::string table = FormatMetricsTable(SampleMetrics());
  EXPECT_NE(table.find("io.files_read"), std::string::npos);
  EXPECT_NE(table.find("stats.kde_evals"), std::string::npos);
  EXPECT_NE(table.find("io.load"), std::string::npos);
  EXPECT_NE(table.find("batch.threads"), std::string::npos);
}

}  // namespace
}  // namespace fixy::obs
