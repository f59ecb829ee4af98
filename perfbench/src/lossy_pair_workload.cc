// lossy_pair: one MC/SC ProtocolSimulation under sw:101, stepped request
// by request over links with 10% loss, 5% duplication and 0.5 ms jitter.
// Requests come from GeneratePeriodWorkload with theta ~ U[0,1] redrawn
// every 100 requests (the regime of the paper's AVG measure). No fan-out:
// every request crosses ARQ retransmission, dedup and reorder, the event
// queue and the message pool, and each handover moves a k=101 window.

#include <memory>

#include "mobrep/common/random.h"
#include "mobrep/core/cost_simulator.h"
#include "mobrep/core/policy_factory.h"
#include "mobrep/obs/alloc_stats.h"
#include "mobrep/protocol/protocol_sim.h"
#include "mobrep/trace/generators.h"
#include "workload.h"

namespace perfbench {
namespace {

using mobrep::ProtocolSimulation;

constexpr const char* kSpec = "sw:101";
constexpr double kDrop = 0.10;
constexpr double kDuplicate = 0.05;
constexpr double kJitter = 0.0005;  // 0.5 ms at the 1 ms link latency
constexpr int64_t kPeriodLength = 100;
// 10^6 pre-generated requests, cycled (a whole number of periods).
constexpr int64_t kPeriods = 10000;
constexpr int64_t kScheduleLength = kPeriods * kPeriodLength;
// Requests stepped during set-up, so pools and caches are warm.
constexpr int64_t kWarmup = 100000;
constexpr int kSetupRepeats = 3;
// Fixed work of the traced run (each of its two passes).
constexpr int64_t kTracedRequests = 100000;
constexpr int kDrainEvery = 1024;

struct Instance {
  mobrep::Schedule schedule;
  std::unique_ptr<ProtocolSimulation> sim;
};

Instance Setup(uint64_t seed, SpanRecorder* spans) {
  ScopedSpan span(spans, "bench.setup");
  Instance instance;
  {
    ScopedSpan generate(spans, "trace.GeneratePeriodWorkload");
    mobrep::Rng rng(DeriveSeed(seed, 1));
    instance.schedule =
        mobrep::GeneratePeriodWorkload(kPeriods, kPeriodLength, &rng);
  }
  mobrep::ProtocolConfig config;
  config.spec = *mobrep::ParsePolicySpec(kSpec);
  config.fault.drop_probability = kDrop;
  config.fault.duplicate_probability = kDuplicate;
  config.fault.max_jitter = kJitter;
  config.fault.seed = DeriveSeed(seed, 2);
  {
    ScopedSpan construct(spans, "protocol.ProtocolSimulation");
    instance.sim = std::make_unique<ProtocolSimulation>(config);
  }
  ScopedSpan warmup(spans, "protocol.Step.warmup");
  for (int64_t k = 0; k < kWarmup; ++k) {
    instance.sim->Step(instance.schedule[static_cast<size_t>(k)]);
  }
  return instance;
}

mobrep::Op OpAt(const mobrep::Schedule& schedule, int64_t k) {
  return schedule[static_cast<size_t>(k % kScheduleLength)];
}

// Checks the paper counters of the simulation against a CostMeter replay
// of the same `n` requests (the schedule, cycled). With `per_request` the
// replay calls CostMeter::OnRequest once per request and returns its time
// in ns; otherwise it takes the batched path.
int64_t CheckPaperCounters(const ProtocolSimulation& sim,
                           const mobrep::Schedule& schedule, int64_t n,
                           bool per_request, SpanRecorder* spans,
                           Report* report) {
  const auto policy = mobrep::CreatePolicy(*mobrep::ParsePolicySpec(kSpec));
  const mobrep::CostModel model = mobrep::CostModel::Connection();
  mobrep::CostMeter meter(policy.get(), &model);
  int64_t ns = 0;
  {
    ScopedSpan span(spans, "core.CostMeter.OnRequest");
    const int64_t t0 = NowNs();
    double total = 0.0;
    for (int64_t done = 0; done < n;) {
      const int64_t chunk = std::min(kScheduleLength, n - done);
      if (per_request) {
        for (int64_t k = 0; k < chunk; ++k) {
          meter.OnRequest(schedule[static_cast<size_t>(k)]);
        }
      } else {
        total = meter.OnRequestBatch(schedule.data(), chunk, total);
      }
      done += chunk;
    }
    ns = NowNs() - t0;
  }
  const mobrep::CostBreakdown& expect = meter.breakdown();
  const mobrep::ProtocolMetrics got = sim.metrics();
  report->tally.Attempt(n);
  if (got.requests != n || got.data_messages != expect.data_messages ||
      got.control_messages != expect.control_messages ||
      got.allocations != expect.allocations ||
      got.deallocations != expect.deallocations) {
    report->Failure(
        "paper counters differ from the CostMeter replay (data " +
            std::to_string(got.data_messages) + " vs " +
            std::to_string(expect.data_messages) + ", control " +
            std::to_string(got.control_messages) + " vs " +
            std::to_string(expect.control_messages) + ")",
        n);
  }
  return ns;
}

Report EndToEnd(const RunOptions& options) {
  Report report;
  Instance instance;
  std::vector<double> setup_s =
      TimeSetups(kSetupRepeats, &instance,
                 [&] { return Setup(options.seed, nullptr); });
  ProtocolSimulation& sim = *instance.sim;

  SegmentMeter meter(options.seconds);
  int64_t n = 0;
  int64_t t_prev = NowNs();
  meter.Start(t_prev);
  for (; meter.open(); ++n) {
    const mobrep::Op op = OpAt(instance.schedule, kWarmup + n);
    sim.Step(op);
    const int64_t t = NowNs();
    meter.Record(op == mobrep::Op::kWrite, t - t_prev, t);
    t_prev = t;
  }
  PublishEndToEnd(std::move(setup_s), meter, &report);

  CheckPaperCounters(sim, instance.schedule, kWarmup + n,
                     /*per_request=*/false, nullptr, &report);
  return report;
}

// Link-layer and paper counters of one simulation at one instant.
struct Counters {
  mobrep::ProtocolMetrics paper;
  int64_t frames_sent = 0;       // first sends + retransmissions
  int64_t frames_delivered = 0;  // exactly-once deliveries to the nodes

  explicit Counters(const ProtocolSimulation& sim) : paper(sim.metrics()) {
    for (const mobrep::Channel* channel :
         {static_cast<const mobrep::Channel*>(sim.uplink_faults()),
          static_cast<const mobrep::Channel*>(sim.downlink_faults())}) {
      frames_sent += channel->messages_sent() + channel->retransmissions_sent();
    }
    frames_delivered = sim.mc_link()->delivered() + sim.sc_link()->delivered();
  }
};

Report Traced(const RunOptions& options) {
  Report report;
  SetTracing(false);
  const auto requests = static_cast<double>(kTracedRequests);

  // Pass A, untraced: per-layer counts and timings of the fixed work.
  int64_t untraced_ns = 0;
  mobrep::ProtocolMetrics pass_a;
  {
    Instance instance = Setup(options.seed, nullptr);
    ProtocolSimulation& sim = *instance.sim;
    const Counters before(sim);
    mobrep::obs::ResetAllocCounters();
    int64_t heap = 0, handovers = 0;
    LatencyRecorder handover_steps;
    for (int64_t k = 0; k < kTracedRequests; ++k) {
      const bool had_copy = sim.mc_has_copy();
      const int64_t allocs0 = HeapAllocCount();
      const int64_t t0 = NowNs();
      sim.Step(OpAt(instance.schedule, kWarmup + k));
      const int64_t dt = NowNs() - t0;
      heap += HeapAllocCount() - allocs0;
      untraced_ns += dt;
      if (sim.mc_has_copy() != had_copy) {
        ++handovers;
        handover_steps.Add(dt);
      }
    }
    const mobrep::obs::AllocCounters alloc =
        mobrep::obs::AggregateAllocCounters();
    const Counters after(sim);
    pass_a = after.paper;
    const int64_t decision_ns =
        CheckPaperCounters(sim, instance.schedule, kWarmup + kTracedRequests,
                           /*per_request=*/true, nullptr, &report);

    const mobrep::ProtocolMetrics& p0 = before.paper;
    const mobrep::ProtocolMetrics& p1 = after.paper;
    const int64_t writes = p1.writes - p0.writes;
    const int64_t reads = kTracedRequests - writes;
    report.SetCount("protocol.fanout_per_write",
                    writes > 0 ? static_cast<double>(p1.propagations -
                                                     p0.propagations) /
                                     static_cast<double>(writes)
                               : 0.0);
    report.SetCount("protocol.remote_read_share",
                    reads > 0 ? static_cast<double>(p1.remote_reads -
                                                    p0.remote_reads) /
                                    static_cast<double>(reads)
                              : 0.0,
                    "ratio");
    report.SetCount("protocol.msgs_per_request",
                    static_cast<double>(p1.data_messages - p0.data_messages +
                                        p1.control_messages -
                                        p0.control_messages) /
                        requests);
    report.SetCount("protocol.handovers", static_cast<double>(handovers));
    if (const auto p50 = handover_steps.PercentileNs(0.5)) {
      report.Set("protocol.handover_step_p50_us", *p50 / 1e3, "us",
                 handover_steps.count());
    }
    report.Set("core.decision_ns",
               static_cast<double>(decision_ns) /
                   static_cast<double>(kWarmup + kTracedRequests),
               "ns", kWarmup + kTracedRequests);
    report.SetCount("net.retransmissions_per_request",
                    static_cast<double>(p1.retransmissions -
                                        p0.retransmissions) /
                        requests);
    report.SetCount("net.timeouts",
                    static_cast<double>(p1.timeouts - p0.timeouts));
    report.SetCount("net.duplicates_dropped",
                    static_cast<double>(p1.duplicates_dropped -
                                        p0.duplicates_dropped));
    report.SetCount("net.frame_yield",
                    static_cast<double>(after.frames_delivered -
                                        before.frames_delivered) /
                        static_cast<double>(after.frames_sent -
                                            before.frames_sent),
                    "ratio");
    ReportAllocations(alloc, heap, requests, &report);
  }

  // Pass B, traced: the same work with the trace gate on and a span around
  // every Step.
  SpanRecorder spans(static_cast<size_t>(kTracedRequests + 64));
  TraceTally tally;
  int64_t traced_ns = 0;
  {
    ScopedSpan root(&spans, "bench.traced_pass");
    Instance instance = Setup(options.seed, &spans);
    ProtocolSimulation& sim = *instance.sim;
    tally.Reset();
    SetTracing(true);
    for (int64_t k = 0; k < kTracedRequests; ++k) {
      traced_ns += TimedCall(&spans, "protocol.Step", [&] {
        sim.Step(OpAt(instance.schedule, kWarmup + k));
      });
      if (k % kDrainEvery == kDrainEvery - 1) tally.Drain();
    }
    tally.Drain();
    SetTracing(false);
    const mobrep::ProtocolMetrics pass_b = sim.metrics();
    if (pass_b.data_messages != pass_a.data_messages ||
        pass_b.control_messages != pass_a.control_messages ||
        pass_b.retransmissions != pass_a.retransmissions) {
      report.Failure("tracing changed the protocol's message counts",
                     kTracedRequests);
    }
    CheckPaperCounters(sim, instance.schedule, kWarmup + kTracedRequests,
                       /*per_request=*/true, &spans, &report);
  }
  WriteSpanFile(spans, options.scratch_dir + "/spans.json", &report);
  ReportObservability(tally, requests,
                      requests / (static_cast<double>(untraced_ns) / 1e9),
                      requests / (static_cast<double>(traced_ns) / 1e9),
                      spans, &report);
  return report;
}

}  // namespace

Report RunLossyPair(const RunOptions& options) {
  return options.trace ? Traced(options) : EndToEnd(options);
}

}  // namespace perfbench
