#include "stats.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <string>

namespace perfbench {

int64_t SamplesBeyond(int64_t n, double q) {
  if (n <= 0) return 0;
  // Nearest rank (1-based): ceil(q * n). The small epsilon keeps exact
  // products such as 0.99 * 1000 from rounding up to the next rank.
  const auto rank = static_cast<int64_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  return n - std::max<int64_t>(rank, 1);
}

ZipfSampler::ZipfSampler(int n, double s) {
  cdf_.reserve(static_cast<size_t>(n));
  double total = 0.0;
  for (int r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
  cdf_.back() = 1.0;
}

int ZipfSampler::Sample(double uniform) const {
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), uniform);
  return static_cast<int>(
      std::min<ptrdiff_t>(it - cdf_.begin(), size() - 1));
}

double ZipfSampler::Probability(int r) const {
  return r == 0 ? cdf_[0] : cdf_[static_cast<size_t>(r)] -
                                cdf_[static_cast<size_t>(r - 1)];
}

LatencyRecorder::LatencyRecorder()
    : buckets_(static_cast<size_t>(kExactLimitNs), 0) {}

void LatencyRecorder::Add(int64_t ns) {
  ++count_;
  if (ns < 0) ns = 0;
  if (ns < kExactLimitNs) {
    ++buckets_[static_cast<size_t>(ns)];
  } else {
    overflow_.push_back(static_cast<double>(ns));
  }
}

void LatencyRecorder::Clear() {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  overflow_.clear();
  count_ = 0;
}

std::optional<double> LatencyRecorder::PercentileNs(double q,
                                                    int64_t min_beyond) const {
  if (count_ == 0 || SamplesBeyond(count_, q) < min_beyond) {
    return std::nullopt;
  }
  // 0-based index of the nearest-rank sample.
  int64_t index = count_ - SamplesBeyond(count_, q) - 1;
  for (int64_t ns = 0; ns < kExactLimitNs; ++ns) {
    index -= buckets_[static_cast<size_t>(ns)];
    if (index < 0) return static_cast<double>(ns);
  }
  std::nth_element(overflow_.begin(), overflow_.begin() + index,
                   overflow_.end());
  return overflow_[static_cast<size_t>(index)];
}

double TraceOverheadPct(double untraced_ops_per_s, double traced_ops_per_s) {
  if (untraced_ops_per_s <= 0.0 || traced_ops_per_s <= 0.0) return 0.0;
  return (untraced_ops_per_s / traced_ops_per_s - 1.0) * 100.0;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  return 0.0;
}

}  // namespace perfbench
