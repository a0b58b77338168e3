#ifndef CLOUDVIEWS_PERFBENCH_SPAN_LOG_H_
#define CLOUDVIEWS_PERFBENCH_SPAN_LOG_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

// Nanoseconds on the steady clock, relative to an arbitrary process epoch.
int64_t NowNs();

// In-memory span recorder for the traced run. Spans are recorded by the
// benchmark around each call into a layer's public API (and, for per-job
// engine phases, synthesized from the phase durations the engine reports),
// kept in memory, and only written out when the run ends. Single-threaded:
// the benchmark's one thread is the only writer.
class SpanLog {
 public:
  struct Span {
    const char* name = "";
    const char* layer = "";
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int parent = -1;      // index of the enclosing span, -1 for roots
    int64_t job_id = -1;  // -1 when the span is not tied to one job
  };

  // Records a finished span; returns its index (usable as a parent).
  int Add(const char* name, const char* layer, int64_t start_ns,
          int64_t end_ns, int parent = -1, int64_t job_id = -1);

  // Opens a span whose end is filled in by Close (for parents whose
  // children are recorded before they finish).
  int Open(const char* name, const char* layer, int parent = -1);
  void Close(int index);

  const std::vector<Span>& spans() const { return spans_; }
  void Clear() { spans_.clear(); }

  // Exclusive (self) time per span: its duration minus the part of its
  // interval that its children cover. Indexed like spans().
  std::vector<int64_t> SelfNs() const;

  // Sum of self time per layer, in seconds.
  std::map<std::string, double> SelfSecondsByLayer() const;

  // Sum of self time per span name, in seconds.
  std::map<std::string, double> SelfSecondsByName() const;

  // Sum of inclusive time per span name, in seconds.
  std::map<std::string, double> TotalSecondsByName() const;

  // Chrome trace_event JSON ("X" complete events) of the first
  // `max_spans` spans.
  std::string ToChromeTraceJson(size_t max_spans) const;

 private:
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // CLOUDVIEWS_PERFBENCH_SPAN_LOG_H_
