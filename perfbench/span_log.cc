#include "span_log.h"

#include <algorithm>
#include <utility>

#include "obs/json_writer.h"

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

int SpanLog::Add(const char* name, const char* layer, int64_t start_ns,
                 int64_t end_ns, int parent, int64_t job_id) {
  spans_.push_back({name, layer, start_ns, end_ns, parent, job_id});
  return static_cast<int>(spans_.size()) - 1;
}

int SpanLog::Open(const char* name, const char* layer, int parent) {
  int64_t now = NowNs();
  return Add(name, layer, now, now, parent);
}

void SpanLog::Close(int index) {
  spans_[static_cast<size_t>(index)].end_ns = NowNs();
}

std::vector<int64_t> SpanLog::SelfNs() const {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans_.size());
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      children[static_cast<size_t>(span.parent)].emplace_back(span.start_ns,
                                                               span.end_ns);
    }
  }
  std::vector<int64_t> self(spans_.size(), 0);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the parent's.
    int64_t covered = 0;
    int64_t cursor = span.start_ns;
    for (const auto& [start, end] : kids) {
      int64_t lo = std::max(start, cursor);
      int64_t hi = std::min(end, span.end_ns);
      if (hi > lo) {
        covered += hi - lo;
        cursor = hi;
      }
    }
    self[i] = std::max<int64_t>(0, span.end_ns - span.start_ns - covered);
  }
  return self;
}

std::map<std::string, double> SpanLog::SelfSecondsByLayer() const {
  std::vector<int64_t> self = SelfNs();
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    out[spans_[i].layer] += static_cast<double>(self[i]) * 1e-9;
  }
  return out;
}

std::map<std::string, double> SpanLog::SelfSecondsByName() const {
  std::vector<int64_t> self = SelfNs();
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    out[spans_[i].name] += static_cast<double>(self[i]) * 1e-9;
  }
  return out;
}

std::map<std::string, double> SpanLog::TotalSecondsByName() const {
  std::map<std::string, double> out;
  for (const Span& span : spans_) {
    out[span.name] += static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
  }
  return out;
}

std::string SpanLog::ToChromeTraceJson(size_t max_spans) const {
  size_t count = std::min(max_spans, spans_.size());
  int64_t origin = count == 0 ? 0 : spans_.front().start_ns;
  for (size_t i = 0; i < count; ++i) {
    origin = std::min(origin, spans_[i].start_ns);
  }
  cloudviews::obs::JsonWriter json;
  json.BeginObject();
  json.Key("traceEvents").BeginArray();
  for (size_t i = 0; i < count; ++i) {
    const Span& span = spans_[i];
    json.BeginObject()
        .Field("name", span.name)
        .Field("cat", span.layer)
        .Field("ph", "X")
        .Field("ts", static_cast<double>(span.start_ns - origin) * 1e-3)
        .Field("dur", static_cast<double>(span.end_ns - span.start_ns) * 1e-3)
        .Field("pid", 1)
        .Field("tid", 1);
    if (span.job_id >= 0) {
      json.Key("args").BeginObject().Field("job_id", span.job_id).EndObject();
    }
    json.EndObject();
  }
  json.EndArray();
  json.Field("displayTimeUnit", "ms");
  json.EndObject();
  return json.TakeString();
}

}  // namespace perfbench
