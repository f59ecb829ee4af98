#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// In-memory spans recorded by the benchmark around its calls into each
// layer of the program. Spans nest on the one benchmark thread: a span
// begun while another is open becomes its child. Names are
// "<layer>.<call>" string literals; the layer is the text before the
// first dot.
class SpanRecorder {
 public:
  struct Span {
    const char* name = "";
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int32_t parent = -1;  // index into spans(), -1 for a root
  };

  explicit SpanRecorder(size_t expected_spans = 0);

  // Opens a span under the innermost open one; returns its index.
  int Begin(const char* name);
  // Closes span `id`, which must be the innermost open span.
  void End(int id);

  const std::vector<Span>& spans() const { return spans_; }
  int open_spans() const { return static_cast<int>(stack_.size()); }

  // Chrome trace-event JSON ("X" complete events, one per span, with the
  // span id and parent id in args), loadable in Perfetto.
  std::string ChromeTraceJson() const;

  // Self time per layer in ns: each span's duration minus the time its
  // direct children cover, summed by layer.
  std::map<std::string, int64_t> SelfTimeByLayer() const;

 private:
  std::vector<Span> spans_;
  std::vector<int32_t> stack_;
};

// Opens a span on construction and closes it on destruction; does nothing
// when the recorder is null (the untraced run).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name)
      : recorder_(recorder), id_(recorder ? recorder->Begin(name) : -1) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int id_;
};

// Runs `call` inside a span named `name` and returns the call's own time
// in ns. The clock is read inside the span, so the time leaves out the
// span's own bookkeeping and a traced pass times the same thing as an
// untraced one.
template <typename Call>
int64_t TimedCall(SpanRecorder* spans, const char* name, Call&& call) {
  ScopedSpan span(spans, name);
  const int64_t t0 = NowNs();
  call();
  return NowNs() - t0;
}

// The layer of a span name: the text before the first '.'.
std::string SpanLayer(const char* name);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
