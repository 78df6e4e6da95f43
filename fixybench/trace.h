// In-memory span recorder for the traced run. Spans are opened and closed
// from the benchmark's own code around calls into each layer's public
// function; nothing inside the library is instrumented. A root span is
// one op; every span carries the id of the op it belongs to and the index
// of the span that encloses it.
#ifndef FIXYBENCH_TRACE_H_
#define FIXYBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "json/json.h"

namespace fixybench {

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// Index of the enclosing span, -1 for an op (root) span.
  int parent = -1;
  uint64_t op = 0;
};

/// Per-op breakdown derived from the spans.
struct OpBreakdown {
  std::string name;
  uint64_t op = 0;
  double total_ms = 0.0;
  /// The op's time that no child span covers.
  double unaccounted_ms = 0.0;
  /// Self time of every layer span inside the op, summed by name.
  std::map<std::string, double> self_ms;
};

class Tracer {
 public:
  Tracer();

  /// RAII span: opens on construction, closes on destruction. The first
  /// span opened with no enclosing span starts a new op.
  class Scope {
   public:
    Scope(Tracer& tracer, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    size_t index_;
  };

  /// Records a count on the current op (e.g. tracks built, bytes written).
  void Count(const std::string& name, double value);

  const std::vector<Span>& spans() const { return spans_; }

  /// Self times and unaccounted time per op, in op order.
  std::vector<OpBreakdown> Breakdown() const;

  /// Counts summed per op, keyed by op id then name.
  const std::map<uint64_t, std::map<std::string, double>>& counts() const {
    return counts_;
  }

  /// The span dump: one object per span with times in ms from the first.
  fixy::json::Value Dump() const;

 private:
  int64_t NowNs() const;

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<size_t> open_;
  uint64_t next_op_ = 0;
  std::map<uint64_t, std::map<std::string, double>> counts_;
};

}  // namespace fixybench

#endif  // FIXYBENCH_TRACE_H_
