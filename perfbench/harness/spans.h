// Benchmark-side spans around calls into the library, recorded into an
// obs TraceCollector. Every span of one timed operation carries that
// operation's id as its trace id, and names its enclosing span as parent,
// so run.py can subtract child coverage to get each span's self time.
// With a null collector (the untraced run) a Span records nothing.

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>

#include "loadgen.h"
#include "obs/trace.h"

namespace perfbench {

class Span {
 public:
  // A root span: starts a new operation.
  Span(xmlproj::TraceCollector* trace, const char* name)
      : Span(trace, name, nullptr) {}
  // A child of `parent` within the parent's operation.
  Span(xmlproj::TraceCollector* trace, const char* name, const Span* parent)
      : trace_(trace), name_(name) {
    if (trace_ == nullptr) return;
    context_.trace_id = parent != nullptr ? parent->context_.trace_id
                                          : Hex(NextId(), 32);
    context_.span_id = Hex(NextId(), 16);
    if (parent != nullptr) context_.parent_id = parent->context_.span_id;
    start_ns_ = MonotonicNowNs();
  }
  ~Span() {
    if (trace_ == nullptr) return;
    trace_->AddSpanEvent(name_, "perfbench", start_ns_,
                         MonotonicNowNs() - start_ns_, context_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  static uint64_t NextId() {
    static std::atomic<uint64_t> next{0};
    return next.fetch_add(1) + 1;
  }
  static std::string Hex(uint64_t value, int width) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%0*llx", width,
                  static_cast<unsigned long long>(value));
    return buf;
  }

  xmlproj::TraceCollector* trace_;
  const char* name_;
  xmlproj::SpanContext context_;
  uint64_t start_ns_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
