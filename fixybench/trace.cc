#include "trace.h"

#include <utility>

#include "common/logging.h"

namespace fixybench {

Tracer::Tracer() : origin_(std::chrono::steady_clock::now()) {}

int64_t Tracer::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

Tracer::Scope::Scope(Tracer& tracer, std::string name) : tracer_(tracer) {
  Span span;
  span.name = std::move(name);
  if (tracer_.open_.empty()) {
    span.op = tracer_.next_op_++;
  } else {
    span.parent = static_cast<int>(tracer_.open_.back());
    span.op = tracer_.spans_[tracer_.open_.back()].op;
  }
  index_ = tracer_.spans_.size();
  tracer_.spans_.push_back(std::move(span));
  tracer_.open_.push_back(index_);
  // Read the clock last so span bookkeeping is not charged to the span.
  tracer_.spans_[index_].start_ns = tracer_.NowNs();
}

Tracer::Scope::~Scope() {
  tracer_.spans_[index_].end_ns = tracer_.NowNs();
  FIXY_CHECK(!tracer_.open_.empty() && tracer_.open_.back() == index_);
  tracer_.open_.pop_back();
}

void Tracer::Count(const std::string& name, double value) {
  FIXY_CHECK(!open_.empty());
  counts_[spans_[open_.back()].op][name] += value;
}

std::vector<OpBreakdown> Tracer::Breakdown() const {
  // Self time = own duration minus the durations of direct children.
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ms[static_cast<size_t>(span.parent)] +=
          static_cast<double>(span.end_ns - span.start_ns) / 1e6;
    }
  }
  std::vector<OpBreakdown> ops;
  std::map<uint64_t, size_t> slot;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    const double total = static_cast<double>(span.end_ns - span.start_ns) / 1e6;
    const double self = total - child_ms[i];
    if (span.parent < 0) {
      slot[span.op] = ops.size();
      OpBreakdown op;
      op.name = span.name;
      op.op = span.op;
      op.total_ms = total;
      op.unaccounted_ms = self;
      ops.push_back(std::move(op));
    } else {
      ops[slot.at(span.op)].self_ms[span.name] += self;
    }
  }
  return ops;
}

fixy::json::Value Tracer::Dump() const {
  fixy::json::Array out;
  out.reserve(spans_.size());
  for (const Span& span : spans_) {
    fixy::json::Object entry;
    entry["name"] = fixy::json::Value(span.name);
    entry["start_ms"] = fixy::json::Value(static_cast<double>(span.start_ns) / 1e6);
    entry["end_ms"] = fixy::json::Value(static_cast<double>(span.end_ns) / 1e6);
    entry["parent"] = fixy::json::Value(static_cast<double>(span.parent));
    entry["op"] = fixy::json::Value(static_cast<double>(span.op));
    out.emplace_back(std::move(entry));
  }
  return fixy::json::Value(std::move(out));
}

}  // namespace fixybench
