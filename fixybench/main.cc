// fixybench: the benchmark program behind run.py.
//
//   fixybench setup --workload W --seed N --dir D --bench-dir B
//       generates W's inputs into D and prints their digest;
//   fixybench run --workload W --seed N --seconds S --trace 0|1 --dir D
//                 --bench-dir B --cli FIXY_CLI --trace-out FILE
//       times W over the inputs in D and prints one JSON record.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "bench.h"
#include "common/macros.h"
#include "core/proposal_io.h"
#include "stats/simd.h"

#ifndef FIXYBENCH_BUILD_TYPE
#define FIXYBENCH_BUILD_TYPE "unknown"
#endif
#ifndef FIXYBENCH_CXX_FLAGS
#define FIXYBENCH_CXX_FLAGS ""
#endif
#ifndef FIXYBENCH_COMPILER
#define FIXYBENCH_COMPILER "unknown"
#endif

namespace fixybench {

using fixy::json::Object;
using fixy::json::Value;

void RunRecord::Metric(const std::string& name, double value,
                       const char* unit) {
  Object entry;
  entry["value"] = Value(value);
  entry["unit"] = Value(unit);
  metrics[name] = Value(std::move(entry));
}

const std::vector<std::string>& PaperApps() {
  static const std::vector<std::string> apps = {"missing-tracks",
                                                "missing-obs", "model-errors"};
  return apps;
}

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

int HardwareThreads() {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

double SelfPeakRssMb() {
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // kB on Linux
}

Status ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot read " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = std::move(buffer).str();
  return Status::Ok();
}

Status WriteFile(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.flush();
  if (!out) return Status::IoError("cannot write " + path);
  return Status::Ok();
}

std::string WorklistBytes(const std::vector<fixy::ErrorProposal>& proposals) {
  return fixy::json::Write(fixy::ProposalsToJson(proposals), /*pretty=*/true);
}

void EmitOpMetrics(RunRecord& record, const std::vector<Window>& windows) {
  std::vector<double> rate;
  std::vector<double> p50;
  std::vector<double> p90;
  std::vector<double> all;
  double timed_s = 0.0;
  for (const Window& w : windows) {
    if (w.op_ms.empty() || w.seconds <= 0.0) continue;
    rate.push_back(w.scenes / w.seconds);
    p50.push_back(Percentile(w.op_ms, 0.50));
    p90.push_back(Percentile(w.op_ms, 0.90));
    all.insert(all.end(), w.op_ms.begin(), w.op_ms.end());
    timed_s += w.seconds;
  }
  record.Metric("scenes_per_s", Percentile(rate, 0.5), "1/s");
  record.Metric("op_ms_p50", Percentile(p50, 0.5), "ms");
  // The tail is reported, not declared: on a shared host it moves too
  // much from run to run to gate on.
  record.report["op_ms_p90"] = Value(Percentile(p90, 0.5));
  fixy::json::Array window_rates;
  for (const double r : rate) window_rates.emplace_back(r);
  record.report["windows"] = Value(static_cast<uint64_t>(rate.size()));
  record.report["window_rates"] = Value(std::move(window_rates));
  record.report["op_samples"] = Value(static_cast<uint64_t>(all.size()));
  record.report["op_ms_p50_pooled"] = Value(Percentile(all, 0.50));
  record.report["op_ms_p99"] = Value(Percentile(all, 0.99));
  record.report["timed_s"] = Value(timed_s);
}

namespace {

// Layers whose count metric is not a plain count.
const char* CountUnit(const std::string& name) {
  return name == "io.update_mb_written" ? "MB" : "count";
}

}  // namespace

Status EmitTraceMetrics(const Options& options, const Tracer& tracer,
                        double untraced_p50_ms,
                        const std::vector<std::string>& untraced_parts,
                        RunRecord& record) {
  const std::vector<OpBreakdown> ops = tracer.Breakdown();
  std::map<std::string, double> self_sum;
  std::map<std::string, size_t> self_ops;
  std::vector<double> unaccounted;
  std::vector<double> op_total;
  std::vector<double> parts;
  double worst_gap = 0.0;
  fixy::json::Array per_op;
  for (const OpBreakdown& op : ops) {
    double covered = op.unaccounted_ms;
    for (const auto& [name, ms] : op.self_ms) {
      self_sum[name] += ms;
      ++self_ops[name];
      covered += ms;
    }
    // Layer self times plus the unaccounted rest must add up to the op.
    worst_gap = std::max(worst_gap, std::abs(covered - op.total_ms));
    if (op.name != options.workload) continue;
    unaccounted.push_back(op.unaccounted_ms);
    op_total.push_back(op.total_ms);
    double part = 0.0;
    for (const std::string& name : untraced_parts) {
      const auto it = op.self_ms.find(name);
      if (it != op.self_ms.end()) part += it->second;
    }
    parts.push_back(part);
    Object row;
    row["op"] = Value(static_cast<uint64_t>(op.op));
    row["total_ms"] = Value(op.total_ms);
    row["unaccounted_ms"] = Value(op.unaccounted_ms);
    per_op.emplace_back(std::move(row));
  }
  if (unaccounted.empty()) return Status::Internal("traced run has no ops");
  if (worst_gap > 1e-6) {
    record.Fail("trace: layer self times do not add up to an op (gap " +
                std::to_string(worst_gap) + " ms)");
  }
  for (const auto& [name, sum] : self_sum) {
    record.Metric(name + "_ms", sum / static_cast<double>(self_ops[name]), "ms");
  }
  std::map<std::string, double> count_sum;
  std::map<std::string, size_t> count_ops;
  for (const auto& [op, counts] : tracer.counts()) {
    for (const auto& [name, value] : counts) {
      count_sum[name] += value;
      ++count_ops[name];
    }
  }
  for (const auto& [name, sum] : count_sum) {
    record.Metric(name, sum / static_cast<double>(count_ops[name]),
                  CountUnit(name));
  }
  double mean_unaccounted = 0.0;
  for (const double ms : unaccounted) mean_unaccounted += ms;
  mean_unaccounted /= static_cast<double>(unaccounted.size());
  record.Metric("unaccounted_ms", mean_unaccounted, "ms");
  record.Metric("residual_ms", untraced_p50_ms - Percentile(parts, 0.5), "ms");
  const double traced_p50 = Percentile(op_total, 0.5);
  record.Metric("trace.overhead_pct",
                (traced_p50 / untraced_p50_ms - 1.0) * 100.0, "%");

  Object trace;
  trace["traced_ops"] = Value(static_cast<uint64_t>(op_total.size()));
  trace["traced_op_ms_p50"] = Value(traced_p50);
  trace["untraced_op_ms_p50"] = Value(untraced_p50_ms);
  trace["max_sum_gap_ms"] = Value(worst_gap);
  trace["unaccounted_ms_p50"] = Value(Percentile(unaccounted, 0.5));
  trace["unaccounted_ms_max"] =
      Value(*std::max_element(unaccounted.begin(), unaccounted.end()));
  trace["spans"] = Value(static_cast<uint64_t>(tracer.spans().size()));
  trace["dump"] = Value(options.trace_out);
  record.report["trace"] = Value(std::move(trace));

  Object dump;
  dump["workload"] = Value(options.workload);
  dump["seed"] = Value(options.seed);
  dump["ops"] = Value(std::move(per_op));
  dump["spans"] = tracer.Dump();
  return WriteFile(options.trace_out, fixy::json::Write(Value(std::move(dump))));
}

namespace {

bool SanitizedBuild() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#else
  return std::strstr(FIXYBENCH_CXX_FLAGS, "-fsanitize") != nullptr;
#endif
}

Result<Options> ParseArgs(int argc, char** argv) {
  if (argc < 2) return Status::InvalidArgument("usage: fixybench setup|run ...");
  Options options;
  options.phase = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--dir") {
      options.dir = value;
    } else if (flag == "--bench-dir") {
      options.bench_dir = value;
    } else if (flag == "--cli") {
      options.cli = value;
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else {
      return Status::InvalidArgument("unknown flag " + flag);
    }
  }
  if (options.workload.empty() || options.dir.empty()) {
    return Status::InvalidArgument("--workload and --dir are required");
  }
  if (options.seconds <= 0) return Status::InvalidArgument("--seconds <= 0");
  return options;
}

Status Run(const Options& options) {
  RunRecord record;
  Status status;
  if (options.workload == "batch-dense") {
    status = RunBatchDense(options, record);
  } else if (options.workload == "daemon-small") {
    status = RunDaemonSmall(options, record);
  } else if (options.workload == "update-cycle") {
    status = RunUpdateCycle(options, record);
  } else {
    return Status::InvalidArgument("unknown workload " + options.workload);
  }
  FIXY_RETURN_IF_ERROR(status);

  Object stamp;
  stamp["build_type"] = Value(FIXYBENCH_BUILD_TYPE);
  stamp["compiler"] = Value(FIXYBENCH_COMPILER);
  stamp["cxx_flags"] = Value(FIXYBENCH_CXX_FLAGS);
  stamp["simd_kernel"] = Value(fixy::stats::simd::KernelName(
      fixy::stats::simd::ActiveKernel()));
  stamp["nproc"] = Value(HardwareThreads());
  fixy::json::Array failures;
  for (std::string& failure : record.failures) failures.emplace_back(failure);

  Object out;
  out["correct"] = Value(record.failed == 0);
  out["attempted"] = Value(record.attempted);
  out["failed"] = Value(record.failed);
  out["metrics"] = Value(std::move(record.metrics));
  out["warmup_s"] = Value(record.warmup_s);
  out["report"] = Value(std::move(record.report));
  out["failures"] = Value(std::move(failures));
  out["stamp"] = Value(std::move(stamp));
  std::printf("%s\n", fixy::json::Write(Value(std::move(out))).c_str());
  return Status::Ok();
}

}  // namespace
}  // namespace fixybench

int main(int argc, char** argv) {
  using namespace fixybench;
  if (SanitizedBuild()) {
    std::fprintf(stderr, "fixybench: refusing to time a sanitizer build (%s)\n",
                 FIXYBENCH_CXX_FLAGS);
    return 2;
  }
  const Result<Options> options = ParseArgs(argc, argv);
  Status status = options.status();
  if (status.ok()) {
    if (options->phase == "setup") {
      status = RunSetup(*options);
    } else if (options->phase == "run") {
      status = Run(*options);
    } else {
      status = Status::InvalidArgument("unknown phase " + options->phase);
    }
  }
  if (!status.ok()) {
    std::fprintf(stderr, "fixybench: %s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}
