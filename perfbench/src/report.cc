#include <cmath>
#include <cstdio>
#include <fstream>

#include "mobrep/common/random.h"
#include "mobrep/obs/trace.h"
#include "mobrep/obs/trace_kinds.h"
#include "workload.h"

namespace perfbench {

void Report::Set(const std::string& name, double value,
                 const std::string& unit, int64_t samples) {
  metrics.push_back(Metric{name, value, unit, samples, false});
}

void Report::SetCount(const std::string& name, double value,
                      const std::string& unit) {
  metrics.push_back(Metric{name, value, unit, -1, true});
}

void Report::Failure(const std::string& why, int64_t n) {
  tally.Fail(n);
  if (messages.size() < 10) messages.push_back("FAILED: " + why);
}

void Report::Invalid(const std::string& why) {
  invalid = true;
  if (messages.size() < 10) messages.push_back("INVALID: " + why);
}

const Metric* Report::Find(const std::string& name) const {
  for (const Metric& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

SegmentMeter::SegmentMeter(double seconds)
    : segments_(std::max(1, static_cast<int>(
                                std::lround(seconds / kSegmentSeconds)))),
      segment_ns_(static_cast<int64_t>(seconds * 1e9 / segments_)) {}

void SegmentMeter::Start(int64_t start_ns) { segment_start_ = start_ns; }

void SegmentMeter::Record(bool write, int64_t ns, int64_t end_ns) {
  (write ? writes_ : reads_).Add(ns);
  Count(1, end_ns);
}

void SegmentMeter::Count(int64_t n, int64_t end_ns) {
  segment_ops_ += n;
  if (end_ns - segment_start_ >= segment_ns_) Advance(end_ns);
}

void SegmentMeter::Advance(int64_t end_ns) {
  Segment segment;
  segment.ops_per_s = static_cast<double>(segment_ops_) /
                      (static_cast<double>(end_ns - segment_start_) / 1e9);
  segment.read_p50 = reads_.PercentileNs(0.5);
  segment.read_p99 = reads_.PercentileNs(0.99);
  segment.write_p50 = writes_.PercentileNs(0.5);
  segment.write_p99 = writes_.PercentileNs(0.99);
  done_.push_back(segment);
  reads_.Clear();
  writes_.Clear();
  segment_ops_ = 0;
  segment_start_ = end_ns;
  ++closed_;
}

void SegmentMeter::Publish(Report* report) const {
  std::vector<double>& ops = report->series["ops_per_s"];
  for (const Segment& s : done_) ops.push_back(s.ops_per_s);
  const std::pair<const char*, std::optional<double> Segment::*> fields[] = {
      {"read_p50_us", &Segment::read_p50},
      {"read_p99_us", &Segment::read_p99},
      {"write_p50_us", &Segment::write_p50},
      {"write_p99_us", &Segment::write_p99}};
  for (const auto& [name, field] : fields) {
    std::vector<double> values;
    for (const Segment& s : done_) {
      if ((s.*field).has_value()) values.push_back(*(s.*field) / 1e3);
    }
    if (values.size() != done_.size() || values.empty()) {
      report->Invalid(std::string(name) +
                      " withheld: a segment had too few samples");
      continue;
    }
    report->series[name] = std::move(values);
  }
}

void PublishEndToEnd(std::vector<double> setup_s, const SegmentMeter& meter,
                     Report* report) {
  report->series["peak_rss_mb"] = {PeakRssMb()};
  report->series["setup_s"] = std::move(setup_s);
  meter.Publish(report);
}

void TraceTally::Reset() {
  Drain();
  *this = TraceTally();
}

void TraceTally::Drain() {
  mobrep::obs::TraceRecorder* recorder = mobrep::obs::TraceRecorder::Global();
  for (const mobrep::obs::TraceEvent& e : recorder->MergedEvents()) {
    const mobrep::obs::TraceKindInfo& info =
        mobrep::obs::TraceKindInfoFor(e.kind);
    ++by_category_[mobrep::obs::TraceKindCategoryName(info.category)];
    ++by_kind_[info.name];
  }
  dropped_ += recorder->dropped();
  recorder->Clear();
}

int64_t TraceTally::count(const std::string& category) const {
  const auto it = by_category_.find(category);
  return it == by_category_.end() ? 0 : it->second;
}

int64_t TraceTally::kind_count(const std::string& kind) const {
  const auto it = by_kind_.find(kind);
  return it == by_kind_.end() ? 0 : it->second;
}

void SetTracing(bool on) {
  mobrep::obs::TraceRecorder::SetRuntimeEnabled(on);
}

uint64_t DeriveSeed(uint64_t seed, uint64_t salt) {
  mobrep::SplitMix64 mix(seed * 0x9e3779b97f4a7c15ULL + salt);
  return mix.Next();
}

void ReportObservability(const TraceTally& tally, double requests,
                         double untraced_ops_per_s, double traced_ops_per_s,
                         const SpanRecorder& spans, Report* report) {
  for (const char* category : {"net", "arq", "wal", "crash", "lease"}) {
    report->SetCount(std::string("obs.trace_events_per_request.") + category,
                     static_cast<double>(tally.count(category)) / requests);
  }
  report->SetCount("obs.trace_dropped", static_cast<double>(tally.dropped()));
  if (tally.dropped() > 0) {
    report->Invalid("the trace ring dropped " +
                    std::to_string(tally.dropped()) +
                    " events: the per-layer trace counts are short");
  }
  report->Set("obs.trace_overhead_pct",
              TraceOverheadPct(untraced_ops_per_s, traced_ops_per_s), "%");
  const std::map<std::string, int64_t> self = spans.SelfTimeByLayer();
  int64_t total = 0;
  for (const auto& [layer, ns] : self) total += ns;
  for (const char* layer : {"bench", "protocol", "core", "store", "chaos",
                            "trace"}) {
    const auto it = self.find(layer);
    const double ns = it == self.end() ? 0.0 : static_cast<double>(it->second);
    report->Set(std::string(layer) + ".self_time_pct",
                total > 0 ? 100.0 * ns / static_cast<double>(total) : 0.0,
                "%");
  }
}

void ReportAllocations(const mobrep::obs::AllocCounters& alloc,
                       int64_t heap_allocs, double requests, Report* report) {
  const int64_t acquisitions = alloc.msg_reuses + alloc.msg_slab_allocs;
  report->SetCount("net.msg_pool_reuse_share",
                   acquisitions > 0 ? static_cast<double>(alloc.msg_reuses) /
                                          static_cast<double>(acquisitions)
                                    : 0.0,
                   "ratio");
  report->SetCount("net.event_heap_spills",
                   static_cast<double>(alloc.event_heap));
  report->SetCount("net.window_spills",
                   static_cast<double>(alloc.window_spills));
  report->SetCount("net.heap_allocs_per_request",
                   static_cast<double>(heap_allocs) / requests);
}

bool WriteSpanFile(const SpanRecorder& spans, const std::string& path,
                   Report* report) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << spans.ChromeTraceJson();
  out.close();
  if (!out) {
    report->Invalid("cannot write span file " + path);
    return false;
  }
  return true;
}

}  // namespace perfbench
