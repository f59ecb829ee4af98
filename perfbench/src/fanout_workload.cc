// fanout: one MultiClientSimulation with 10,000 mobile computers under
// sw:9 over perfect links. 5% of requests are writes at the SC; reads are
// spread over the clients by Zipf(s=1.0), so a few hot clients hold
// replicas and a write's paper cost is tiny while its CPU cost today walks
// every client (ROADMAP item 1).

#include <memory>
#include <vector>

#include "mobrep/common/random.h"
#include "mobrep/core/cost_simulator.h"
#include "mobrep/core/policy_factory.h"
#include "mobrep/obs/alloc_stats.h"
#include "mobrep/protocol/multi_client_sim.h"
#include "workload.h"

namespace perfbench {
namespace {

using mobrep::MultiClientSimulation;

constexpr int kClients = 10000;
constexpr const char* kSpec = "sw:9";
constexpr double kWriteShare = 0.05;
constexpr double kZipfS = 1.0;
constexpr int32_t kWrite = -1;
// Pre-generated requests, cycled; 2^20 covers a 10 s run at ~40k ops/s.
constexpr size_t kStreamLength = size_t{1} << 20;
constexpr int kSetupRepeats = 3;
// Fixed work of the traced run (each of its two passes).
constexpr int64_t kTracedRequests = 20000;
constexpr int kDrainEvery = 64;

using Stream = std::vector<int32_t>;  // a read's client, or kWrite

Stream GenerateStream(uint64_t seed, SpanRecorder* spans) {
  ScopedSpan span(spans, "bench.GenerateZipfStream");
  mobrep::Rng rng(DeriveSeed(seed, 1));
  const ZipfSampler zipf(kClients, kZipfS);
  Stream stream(kStreamLength);
  for (int32_t& op : stream) {
    op = rng.Bernoulli(kWriteShare) ? kWrite : zipf.Sample(rng.NextDouble());
  }
  return stream;
}

// Constructs the simulation and gives every client one touch read.
std::unique_ptr<MultiClientSimulation> SetupSimulation(SpanRecorder* spans) {
  ScopedSpan span(spans, "bench.setup");
  MultiClientSimulation::Options options;
  options.num_clients = kClients;
  options.spec = *mobrep::ParsePolicySpec(kSpec);
  std::unique_ptr<MultiClientSimulation> sim;
  {
    ScopedSpan construct(spans, "protocol.MultiClientSimulation");
    sim = std::make_unique<MultiClientSimulation>(options);
  }
  for (int c = 0; c < kClients; ++c) {
    ScopedSpan read(spans, "protocol.StepRead");
    sim->StepRead(c);
  }
  return sim;
}

struct Instance {
  Stream stream;
  std::unique_ptr<MultiClientSimulation> sim;
};

Instance Setup(uint64_t seed) {
  Instance instance;
  instance.stream = GenerateStream(seed, nullptr);
  instance.sim = SetupSimulation(nullptr);
  return instance;
}

void Step(MultiClientSimulation* sim, int32_t op) {
  if (op == kWrite) {
    sim->StepWrite();
  } else {
    sim->StepRead(op);
  }
}

struct Replay {
  int64_t decisions = 0;
  int64_t ns = 0;  // time in CostMeter::OnRequest; per-request replay only
};

// Checks every client's wireless traffic against a CostMeter replay of its
// marginal stream: its touch read, then its reads interleaved with all
// writes of stream[0, n). With `per_request` the replay calls
// CostMeter::OnRequest once per request and is timed; otherwise it takes
// the batched path.
Replay CheckClientTraffic(const MultiClientSimulation& sim,
                          const Stream& stream, int64_t n, bool per_request,
                          SpanRecorder* spans, Report* report) {
  std::vector<std::vector<int32_t>> reads_at(kClients);  // writes before
  int32_t writes = 0;
  for (int64_t k = 0; k < n; ++k) {
    const int32_t op = stream[static_cast<size_t>(k) % kStreamLength];
    if (op == kWrite) {
      ++writes;
    } else {
      reads_at[static_cast<size_t>(op)].push_back(writes);
    }
  }
  const mobrep::PolicySpec spec = *mobrep::ParsePolicySpec(kSpec);
  const mobrep::CostModel model = mobrep::CostModel::Connection();
  Replay replay;
  mobrep::Schedule ops;
  for (int c = 0; c < kClients; ++c) {
    const std::vector<int32_t>& reads = reads_at[static_cast<size_t>(c)];
    ops.assign(1, mobrep::Op::kRead);
    int32_t done = 0;
    for (const int32_t before : reads) {
      ops.insert(ops.end(), static_cast<size_t>(before - done),
                 mobrep::Op::kWrite);
      done = before;
      ops.push_back(mobrep::Op::kRead);
    }
    ops.insert(ops.end(), static_cast<size_t>(writes - done),
               mobrep::Op::kWrite);
    const auto policy = mobrep::CreatePolicy(spec);
    mobrep::CostBreakdown expect;
    if (per_request) {
      ScopedSpan span(spans, "core.CostMeter.OnRequest");
      mobrep::CostMeter meter(policy.get(), &model);
      const int64_t t0 = NowNs();
      for (const mobrep::Op op : ops) meter.OnRequest(op);
      replay.ns += NowNs() - t0;
      expect = meter.breakdown();
    } else {
      expect = mobrep::SimulateScheduleBatch(policy.get(), ops, model);
    }
    replay.decisions += static_cast<int64_t>(ops.size());
    if (sim.client_data_messages(c) != expect.data_messages ||
        sim.client_control_messages(c) != expect.control_messages) {
      report->Failure("fanout client " + std::to_string(c) +
                          " traffic differs from its CostMeter replay",
                      static_cast<int64_t>(reads.size()) + 1);
    }
  }
  report->tally.Attempt(kClients + n);
  return replay;
}

Report EndToEnd(const RunOptions& options) {
  Report report;
  Instance instance;
  std::vector<double> setup_s = TimeSetups(
      kSetupRepeats, &instance, [&] { return Setup(options.seed); });
  const Stream& stream = instance.stream;
  MultiClientSimulation* sim = instance.sim.get();

  SegmentMeter meter(options.seconds);
  int64_t n = 0;
  int64_t t_prev = NowNs();
  meter.Start(t_prev);
  for (; meter.open(); ++n) {
    const int32_t op = stream[static_cast<size_t>(n) % kStreamLength];
    Step(sim, op);
    const int64_t t = NowNs();
    meter.Record(op == kWrite, t - t_prev, t);
    t_prev = t;
  }
  PublishEndToEnd(std::move(setup_s), meter, &report);

  CheckClientTraffic(*sim, stream, n, /*per_request=*/false, nullptr,
                     &report);
  return report;
}

Report Traced(const RunOptions& options) {
  Report report;
  SetTracing(false);
  const Stream stream = GenerateStream(options.seed, nullptr);

  // Pass A, untraced: per-layer counts and timings of the fixed work.
  int64_t untraced_ns = 0;
  int64_t msgs = 0;
  {
    const auto sim = SetupSimulation(nullptr);
    const int64_t msgs0 = sim->data_messages() + sim->control_messages();
    const int64_t events0 = sim->queue().executed();
    mobrep::obs::ResetAllocCounters();
    int64_t heap = 0, fanout = 0, writes = 0, remote = 0, handovers = 0;
    LatencyRecorder handover_steps;
    for (int64_t k = 0; k < kTracedRequests; ++k) {
      const int32_t op = stream[static_cast<size_t>(k)];
      const int before = op == kWrite ? sim->SubscriberCount()
                                      : static_cast<int>(sim->HasCopy(op));
      const int64_t allocs0 = HeapAllocCount();
      const int64_t t0 = NowNs();
      Step(sim.get(), op);
      const int64_t dt = NowNs() - t0;
      heap += HeapAllocCount() - allocs0;
      untraced_ns += dt;
      const int after = op == kWrite ? sim->SubscriberCount()
                                     : static_cast<int>(sim->HasCopy(op));
      if (op == kWrite) {
        ++writes;
        fanout += before;
      } else if (before == 0) {
        ++remote;
      }
      if (after != before) {
        ++handovers;
        handover_steps.Add(dt);
      }
    }
    const mobrep::obs::AllocCounters alloc =
        mobrep::obs::AggregateAllocCounters();
    msgs = sim->data_messages() + sim->control_messages() - msgs0;
    const Replay replay = CheckClientTraffic(
        *sim, stream, kTracedRequests, /*per_request=*/true, nullptr, &report);

    const auto requests = static_cast<double>(kTracedRequests);
    report.SetCount("protocol.fanout_per_write",
                    writes > 0 ? static_cast<double>(fanout) / writes : 0.0);
    report.SetCount("protocol.remote_read_share",
                    static_cast<double>(remote) /
                        static_cast<double>(kTracedRequests - writes),
                    "ratio");
    report.SetCount("protocol.msgs_per_request",
                    static_cast<double>(msgs) / requests);
    report.SetCount("protocol.handovers", static_cast<double>(handovers));
    if (const auto p50 = handover_steps.PercentileNs(0.5)) {
      report.Set("protocol.handover_step_p50_us", *p50 / 1e3, "us",
                 handover_steps.count());
    }
    report.Set("core.decision_ns",
               static_cast<double>(replay.ns) /
                   static_cast<double>(replay.decisions),
               "ns", replay.decisions);
    report.SetCount("net.events_per_request",
                    static_cast<double>(sim->queue().executed() - events0) /
                        requests);
    report.SetCount("net.peak_live_events",
                    static_cast<double>(sim->queue().peak_pending()));
    ReportAllocations(alloc, heap, requests, &report);
  }

  // Pass B, traced: the same work with the trace gate on and spans around
  // every call into the program.
  SpanRecorder spans(static_cast<size_t>(4 * (kClients + kTracedRequests)));
  TraceTally tally;
  int64_t traced_ns = 0;
  {
    ScopedSpan root(&spans, "bench.traced_pass");
    const auto sim = SetupSimulation(&spans);
    const int64_t msgs0 = sim->data_messages() + sim->control_messages();
    tally.Reset();
    SetTracing(true);
    for (int64_t k = 0; k < kTracedRequests; ++k) {
      const int32_t op = stream[static_cast<size_t>(k)];
      traced_ns += TimedCall(
          &spans, op == kWrite ? "protocol.StepWrite" : "protocol.StepRead",
          [&] { Step(sim.get(), op); });
      if (k % kDrainEvery == kDrainEvery - 1) tally.Drain();
    }
    tally.Drain();
    SetTracing(false);
    if (sim->data_messages() + sim->control_messages() - msgs0 != msgs) {
      report.Failure("tracing changed the protocol's message count",
                     kTracedRequests);
    }
    CheckClientTraffic(*sim, stream, kTracedRequests, /*per_request=*/true,
                       &spans, &report);
  }
  WriteSpanFile(spans, options.scratch_dir + "/spans.json", &report);
  const auto requests = static_cast<double>(kTracedRequests);
  ReportObservability(tally, requests,
                      requests / (static_cast<double>(untraced_ns) / 1e9),
                      requests / (static_cast<double>(traced_ns) / 1e9),
                      spans, &report);
  return report;
}

}  // namespace

Report RunFanout(const RunOptions& options) {
  return options.trace ? Traced(options) : EndToEnd(options);
}

}  // namespace perfbench
