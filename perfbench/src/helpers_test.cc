// Tests of the benchmark's own helpers: the percentile rule, the latency
// recorder, the per-segment meter, the Zipf client sampler, failure
// accounting, the tracing overhead arithmetic and span self time. Build and run:
//
//   cmake -S perfbench -B .bench_build/perfbench
//   cmake --build .bench_build/perfbench --target perfbench_helpers_test
//   .bench_build/perfbench/perfbench_helpers_test

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "mobrep/common/random.h"
#include "spans.h"
#include "stats.h"
#include "workload.h"

namespace perfbench {
namespace {

LatencyRecorder RampRecorder(int n, bool reversed = false) {
  LatencyRecorder recorder;
  for (int i = 1; i <= n; ++i) recorder.Add(reversed ? n + 1 - i : i);
  return recorder;
}

TEST(PercentileTest, P99IsWithheldBelowOneThousandSamples) {
  EXPECT_FALSE(RampRecorder(999).PercentileNs(0.99).has_value());
  // Nearest rank 990 of 1..1000, with exactly ten samples beyond it.
  EXPECT_EQ(RampRecorder(1000).PercentileNs(0.99), 990.0);
  EXPECT_EQ(SamplesBeyond(1000, 0.99), 10);
  EXPECT_EQ(SamplesBeyond(999, 0.99), 9);
}

TEST(PercentileTest, P50NeedsTwentySamples) {
  EXPECT_FALSE(RampRecorder(19).PercentileNs(0.5).has_value());
  EXPECT_EQ(RampRecorder(20).PercentileNs(0.5), 10.0);
}

TEST(PercentileTest, IgnoresInputOrder) {
  const LatencyRecorder recorder = RampRecorder(2000, /*reversed=*/true);
  EXPECT_EQ(recorder.PercentileNs(0.5), 1000.0);
  EXPECT_EQ(recorder.PercentileNs(0.99), 1980.0);
}

TEST(LatencyRecorderTest, MatchesSortedSamples) {
  mobrep::Rng rng(7);
  LatencyRecorder recorder;
  std::vector<double> samples;
  for (int i = 0; i < 20000; ++i) {
    // Mostly sub-64 us values, with a tail that lands in the overflow list.
    const auto ns = static_cast<int64_t>(
        rng.Bernoulli(0.05) ? 70000 + rng.UniformInt(1000000)
                            : rng.UniformInt(65536));
    recorder.Add(ns);
    samples.push_back(static_cast<double>(ns));
  }
  std::sort(samples.begin(), samples.end());
  const auto n = static_cast<int64_t>(samples.size());
  EXPECT_EQ(recorder.count(), n);
  for (const double q : {0.5, 0.9, 0.99, 0.999}) {
    const int64_t index = n - SamplesBeyond(n, q) - 1;
    EXPECT_EQ(recorder.PercentileNs(q), samples[static_cast<size_t>(index)])
        << q;
  }
  recorder.Clear();
  EXPECT_EQ(recorder.count(), 0);
  EXPECT_FALSE(recorder.PercentileNs(0.5).has_value());
}

TEST(SegmentMeterTest, PublishesOneValuePerSegment) {
  // Ten 1-second segments; segment s completes 1000 * (s + 1) reads of
  // (s + 1) * 100 ns and 1000 writes of 5 us.
  SegmentMeter meter(10.0);
  meter.Start(0);
  for (int64_t s = 0; s < 10; ++s) {
    const int64_t t = s * 1'000'000'000LL + 1;
    for (int i = 0; i < 1000 * (s + 1); ++i) {
      meter.Record(false, (s + 1) * 100, t);
    }
    for (int i = 0; i < 1000; ++i) meter.Record(true, 5000, t);
    ASSERT_TRUE(meter.open());
    meter.Count(0, (s + 1) * 1'000'000'000LL);
  }
  EXPECT_FALSE(meter.open());
  Report report;
  meter.Publish(&report);
  EXPECT_FALSE(report.invalid);
  EXPECT_TRUE(report.metrics.empty());  // run.py reduces the series
  const std::vector<double>& ops = report.series.at("ops_per_s");
  ASSERT_EQ(ops.size(), 10u);
  EXPECT_DOUBLE_EQ(ops[0], 2000.0);
  EXPECT_DOUBLE_EQ(ops[9], 11000.0);
  const std::vector<double>& read_p50 = report.series.at("read_p50_us");
  ASSERT_EQ(read_p50.size(), 10u);
  EXPECT_DOUBLE_EQ(read_p50[0], 0.1);
  EXPECT_DOUBLE_EQ(read_p50[9], 1.0);
  EXPECT_DOUBLE_EQ(report.series.at("read_p99_us")[4], 0.5);
  EXPECT_DOUBLE_EQ(report.series.at("write_p99_us")[0], 5.0);
}

TEST(SegmentMeterTest, SegmentsCoverTheWholeWindow) {
  // 3.75 s cut into four segments of 0.9375 s.
  SegmentMeter meter(3.75);
  meter.Start(0);
  for (int64_t s = 0; s < 4; ++s) {
    ASSERT_TRUE(meter.open());
    meter.Count(1, (s + 1) * 937'500'000LL);
  }
  EXPECT_FALSE(meter.open());
}

TEST(SegmentMeterTest, TooFewSamplesInASegmentInvalidateTheRun) {
  SegmentMeter meter(2.0);
  meter.Start(0);
  for (int64_t s = 0; s < 2; ++s) {
    for (int i = 0; i < 1999; ++i) {
      meter.Record(i % 2 == 1, 100, s * 1'000'000'000LL + 1);
    }
    meter.Count(0, (s + 1) * 1'000'000'000LL);
  }
  Report report;
  meter.Publish(&report);
  EXPECT_TRUE(report.invalid);
  EXPECT_EQ(report.series.count("read_p99_us"), 1u);   // 1000 reads a segment
  EXPECT_EQ(report.series.count("write_p99_us"), 0u);  // 999 writes
}

TEST(ZipfSamplerTest, ProbabilitiesFollowOneOverRank) {
  const ZipfSampler zipf(10000, 1.0);
  double total = 0.0;
  for (int r = 0; r < zipf.size(); ++r) total += zipf.Probability(r);
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_NEAR(zipf.Probability(0) / zipf.Probability(1), 2.0, 1e-9);
  EXPECT_NEAR(zipf.Probability(0) / zipf.Probability(9), 10.0, 1e-9);
  EXPECT_EQ(zipf.Sample(0.0), 0);
  EXPECT_EQ(zipf.Sample(0.9999999999), 9999);
}

TEST(ZipfSamplerTest, EmpiricalFrequenciesMatch) {
  const ZipfSampler zipf(10000, 1.0);
  mobrep::Rng rng(11);
  const int draws = 200000;
  std::vector<int> hits(3);
  for (int i = 0; i < draws; ++i) {
    const int r = zipf.Sample(rng.NextDouble());
    ASSERT_GE(r, 0);
    ASSERT_LT(r, zipf.size());
    if (r < 3) ++hits[static_cast<size_t>(r)];
  }
  for (int r = 0; r < 3; ++r) {
    EXPECT_NEAR(hits[static_cast<size_t>(r)] / static_cast<double>(draws),
                zipf.Probability(r), 0.005)
        << "rank " << r;
  }
}

TEST(FailureTallyTest, FailedShareCountsFailedOperations) {
  FailureTally tally;
  tally.Attempt(200);
  EXPECT_TRUE(tally.ok());
  EXPECT_EQ(tally.failed_share(), 0.0);
  tally.Fail(5);
  EXPECT_FALSE(tally.ok());
  EXPECT_EQ(tally.failed(), 5);
  EXPECT_DOUBLE_EQ(tally.failed_share(), 0.025);
}

TEST(FailureTallyTest, AbortFailsEveryOperation) {
  FailureTally tally;
  tally.Attempt(48);
  tally.Fail(1);
  tally.Abort();
  EXPECT_TRUE(tally.aborted());
  EXPECT_EQ(tally.failed(), 48);
  EXPECT_EQ(tally.failed_share(), 1.0);
}

TEST(FailureTallyTest, ARunThatAbortsBeforeAnyOperationStillFails) {
  FailureTally tally;
  EXPECT_EQ(tally.attempted(), 1);
  tally.Abort();
  EXPECT_EQ(tally.failed(), 1);
  EXPECT_EQ(tally.failed_share(), 1.0);
}

TEST(TraceOverheadTest, IsExtraTimePerOperation) {
  // Half the rate traced: each operation takes twice as long.
  EXPECT_DOUBLE_EQ(TraceOverheadPct(1000.0, 500.0), 100.0);
  EXPECT_DOUBLE_EQ(TraceOverheadPct(1000.0, 1000.0), 0.0);
  EXPECT_NEAR(TraceOverheadPct(1.25e6, 1.0e6), 25.0, 1e-9);
  EXPECT_EQ(TraceOverheadPct(0.0, 1000.0), 0.0);
  EXPECT_EQ(TraceOverheadPct(1000.0, 0.0), 0.0);
}

TEST(SpanRecorderTest, SelfTimeSubtractsChildren) {
  SpanRecorder spans;
  const int root = spans.Begin("bench.pass");
  for (int i = 0; i < 3; ++i) {
    ScopedSpan child(&spans, "protocol.Step");
    ScopedSpan grandchild(&spans, "core.CostMeter.OnRequest");
  }
  spans.End(root);
  ASSERT_EQ(spans.spans().size(), 7u);
  EXPECT_EQ(spans.spans()[1].parent, root);
  EXPECT_EQ(spans.spans()[2].parent, 1);
  EXPECT_EQ(spans.open_spans(), 0);
  int64_t total = 0;
  for (const auto& [layer, ns] : spans.SelfTimeByLayer()) {
    EXPECT_GE(ns, 0) << layer;
    total += ns;
  }
  const auto& r = spans.spans()[0];
  EXPECT_EQ(total, r.end_ns - r.start_ns);
  EXPECT_EQ(SpanLayer("store.WriteAheadLog.Recover"), "store");
  const std::string json = spans.ChromeTraceJson();
  size_t complete = 0;
  for (size_t at = 0; (at = json.find("\"ph\":\"X\"", at)) != std::string::npos;
       ++at) {
    ++complete;
  }
  EXPECT_EQ(complete, 7u);
}

}  // namespace
}  // namespace perfbench
