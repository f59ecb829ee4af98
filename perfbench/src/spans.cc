#include "spans.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace perfbench {

SpanRecorder::SpanRecorder(size_t expected_spans) {
  spans_.reserve(expected_spans);
}

int SpanRecorder::Begin(const char* name) {
  Span span;
  span.name = name;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.start_ns = NowNs();
  spans_.push_back(span);
  const auto id = static_cast<int32_t>(spans_.size() - 1);
  stack_.push_back(id);
  return id;
}

void SpanRecorder::End(int id) {
  if (stack_.empty() || stack_.back() != id) {
    std::fprintf(stderr, "perfbench: span %d closed out of order\n", id);
    std::abort();
  }
  stack_.pop_back();
  spans_[static_cast<size_t>(id)].end_ns = NowNs();
}

std::string SpanLayer(const char* name) {
  const char* dot = std::strchr(name, '.');
  return dot == nullptr ? std::string(name) : std::string(name, dot);
}

std::string SpanRecorder::ChromeTraceJson() const {
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::string out;
  out.reserve(spans_.size() * 120 + 256);
  out +=
      "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n"
      "{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"process_name\","
      "\"args\":{\"name\":\"mobrep perfbench\"}}";
  char buf[256];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":\"%s\","
                  "\"cat\":\"%s\",\"ts\":%.3f,\"dur\":%.3f,"
                  "\"args\":{\"id\":%zu,\"parent\":%d}}",
                  s.name, SpanLayer(s.name).c_str(),
                  static_cast<double>(s.start_ns - origin) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                  s.parent);
    out += buf;
  }
  out += "\n]}\n";
  return out;
}

std::map<std::string, int64_t> SpanRecorder::SelfTimeByLayer() const {
  std::vector<int64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_ns - spans_[i].start_ns;
  }
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      self[static_cast<size_t>(s.parent)] -= s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, int64_t> by_layer;
  for (size_t i = 0; i < spans_.size(); ++i) {
    by_layer[SpanLayer(spans_[i].name)] += self[i];
  }
  return by_layer;
}

}  // namespace perfbench
