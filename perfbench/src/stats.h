#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstdint>
#include <optional>
#include <vector>

namespace perfbench {

// Samples above the nearest rank of quantile `q` (in (0, 1)) among `n`
// samples. A percentile is reported only when at least 10 samples lie
// beyond it: a p99 needs 1,000 samples, a p50 needs 20.
int64_t SamplesBeyond(int64_t n, double q);

// Zipf(s) sampler over ranks 0..n-1: P(rank r) is proportional to
// 1 / (r + 1)^s. Inversion over a precomputed CDF; `Sample` takes one
// uniform draw in [0, 1).
class ZipfSampler {
 public:
  ZipfSampler(int n, double s);

  int Sample(double uniform) const;
  // Probability of rank `r`.
  double Probability(int r) const;
  int size() const { return static_cast<int>(cdf_.size()); }

 private:
  std::vector<double> cdf_;
};

// Operations attempted and failed by one benchmark run. An operation fails
// on an invariant violation, a non-OK Status, an armed crash point that is
// never reached or a wire-count mismatch. An abort fails every operation
// of the run, including those it never reached.
class FailureTally {
 public:
  void Attempt(int64_t n = 1) { attempted_ += n; }
  void Fail(int64_t n = 1) { failed_ += n; }
  void Abort() { aborted_ = true; }

  int64_t attempted() const { return attempted_ < 1 ? 1 : attempted_; }
  int64_t failed() const {
    return aborted_ || failed_ > attempted() ? attempted() : failed_;
  }
  bool aborted() const { return aborted_; }
  double failed_share() const {
    return static_cast<double>(failed()) / static_cast<double>(attempted());
  }
  bool ok() const { return failed() == 0; }

 private:
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  bool aborted_ = false;
};

// Tracing overhead in percent: the extra time the traced run spends per
// operation, relative to the untraced run's time per operation. Both rates
// are operations per second of the same work.
double TraceOverheadPct(double untraced_ops_per_s, double traced_ops_per_s);

// Exact latency distribution at 1 ns resolution below 64 us and with every
// longer sample kept, so percentiles need no per-sample vector for the
// millions of sub-microsecond requests of a run.
class LatencyRecorder {
 public:
  LatencyRecorder();
  void Add(int64_t ns);
  int64_t count() const { return count_; }
  void Clear();
  // Nearest-rank percentile in ns, withheld (nullopt) unless at least
  // `min_beyond` samples lie beyond it.
  std::optional<double> PercentileNs(double q, int64_t min_beyond = 10) const;

 private:
  static constexpr int64_t kExactLimitNs = 1 << 16;
  std::vector<int64_t> buckets_;
  mutable std::vector<double> overflow_;
  int64_t count_ = 0;
};

// Peak resident set size of this process so far, in MB (VmHWM: unlike
// getrusage's ru_maxrss it does not inherit the parent's peak across exec).
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
