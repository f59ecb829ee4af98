#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "mobrep/obs/alloc_stats.h"
#include "spans.h"
#include "stats.h"

namespace perfbench {

struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10.0;
  // false: the end-to-end run (untraced, measures for `seconds`).
  // true: the per-layer run (fixed work, once untraced and once traced).
  bool trace = false;
  // Directory for journals and the span file; created by the caller.
  std::string scratch_dir = ".";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  int64_t samples = -1;        // samples behind a percentile; -1 otherwise
  bool deterministic = false;  // a count that must repeat for one seed
};

// Everything one workload run reports: metrics, the operation tally and
// the reasons for any failure.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit,
           int64_t samples = -1);
  // A deterministic count: it must repeat exactly for one seed.
  void SetCount(const std::string& name, double value,
                const std::string& unit = "count");
  // `n` operations failed for `why` (first few reasons kept).
  void Failure(const std::string& why, int64_t n = 1);
  // A benchmark-level error: the run measured nothing trustworthy.
  void Invalid(const std::string& why);

  const Metric* Find(const std::string& name) const;

  FailureTally tally;
  std::vector<Metric> metrics;
  std::vector<std::string> messages;
  // The end-to-end run's raw values, by metric name: one per segment, per
  // set-up or (peak_rss_mb) per process. run.py pools them over the
  // processes of one run.
  std::map<std::string, std::vector<double>> series;
  bool invalid = false;
};

// The end-to-end measurement window of one process, cut into segments of
// about one second. Each segment yields its own throughput and read/write
// p50 and p99; run.py pools the segments of all processes of a run and
// reduces them to the reported values (README.md, "End-to-end metrics").
class SegmentMeter {
 public:
  static constexpr double kSegmentSeconds = 1.0;

  explicit SegmentMeter(double seconds);

  // Opens the window at `start_ns`.
  void Start(int64_t start_ns);
  // One timed request of `ns` that ended at `end_ns`.
  void Record(bool write, int64_t ns, int64_t end_ns);
  // `n` requests that completed by `end_ns` without a latency of their own.
  void Count(int64_t n, int64_t end_ns);
  // False once every segment has closed.
  bool open() const { return closed_ < segments_; }

  // Adds the per-segment series ops_per_s and read_/write_ p50 and p99 in
  // us; a latency that some segment had too few samples for invalidates the
  // run.
  void Publish(Report* report) const;

 private:
  struct Segment {
    double ops_per_s = 0.0;
    std::optional<double> read_p50, read_p99, write_p50, write_p99;
  };
  void Advance(int64_t end_ns);

  int segments_;
  int64_t segment_ns_;
  int closed_ = 0;
  int64_t segment_start_ = 0;
  int64_t segment_ops_ = 0;
  LatencyRecorder reads_, writes_;  // the open segment's samples
  std::vector<Segment> done_;
};

// Per-category counts of the program's own trace events, drained from the
// global trace ring between timed sections so the ring never wraps.
class TraceTally {
 public:
  // Empties the ring and zeroes the counts.
  void Reset();
  // Moves every buffered event into the tally and clears the ring.
  void Drain();
  int64_t count(const std::string& category) const;
  int64_t kind_count(const std::string& kind) const;
  int64_t dropped() const { return dropped_; }

 private:
  std::map<std::string, int64_t> by_category_;
  std::map<std::string, int64_t> by_kind_;
  int64_t dropped_ = 0;
};

// Turns the runtime trace gate on or off for this process.
void SetTracing(bool on);

// Heap allocations counted by the operator new this binary interposes.
int64_t HeapAllocCount();

// A seed derived from the run seed for one named input stream.
uint64_t DeriveSeed(uint64_t seed, uint64_t salt);

// Builds a workload's inputs `repeats` times with `setup()` into `*out`
// and returns the time of each build in s. The previous build is destroyed
// before the clock starts.
template <typename T, typename Setup>
std::vector<double> TimeSetups(int repeats, T* out, Setup&& setup) {
  std::vector<double> seconds;
  for (int rep = 0; rep < repeats; ++rep) {
    *out = T();
    const int64_t t0 = NowNs();
    T built = setup();
    seconds.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    *out = std::move(built);
  }
  return seconds;
}

// Publishes an end-to-end run: its set-up times, the meter's segments and
// this process's peak RSS so far. Called right after the measured loop, so
// the output checks' memory does not count.
void PublishEndToEnd(std::vector<double> setup_s, const SegmentMeter& meter,
                     Report* report);

// The allocation metrics of a traced run's untraced pass: message-pool
// reuse, event-callback and window spills, and interposed heap allocations
// per request.
void ReportAllocations(const mobrep::obs::AllocCounters& alloc,
                       int64_t heap_allocs, double requests, Report* report);

// Per-layer metrics shared by all traced runs: trace counts per request,
// trace loss, tracing overhead and self time per layer.
void ReportObservability(const TraceTally& tally, double requests,
                         double untraced_ops_per_s, double traced_ops_per_s,
                         const SpanRecorder& spans, Report* report);

// Writes the span file of a traced run; false (noted in the report) on
// I/O failure.
bool WriteSpanFile(const SpanRecorder& spans, const std::string& path,
                   Report* report);

Report RunFanout(const RunOptions& options);
Report RunLossyPair(const RunOptions& options);
Report RunChaos(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
