// chaos: crash cells and partition cells, both over links with 5% loss.
//
// Crash cells: 64 seeded 48-request Bernoulli(0.5) schedules under sw:9,
// st2 and t1:3. Set-up enumerates each cell's crash points with a
// crash-free counting pass; each point is then one armed
// CrashableSimulation (crash, WAL recovery, resync, invariants). Each
// request of an armed run is one CrashableSimulation::Run call and is timed
// on its own, so the request that hits the crash point carries the crash
// and its recovery.
//
// Partition cells: one PartitionedSimulation::Run per (3 shapes x 3
// durations x seed), leases on, interleaved one per armed crash run. They
// run without random loss: with loss on top of a healing partition the
// harness's final settle check fails for some seeds (frames still in
// retransmission at the horizon; `mobrep_cli partition --policy st2
// --drop 0.05 --seed 11` reproduces it), so lossy partition cells would
// fail operations that are not the benchmark's to judge.
//
// Journals live in the run's scratch directory with the default
// WalOptions: no fsync per append.

#include <cmath>
#include <filesystem>
#include <memory>
#include <vector>

#include "mobrep/chaos/crashable_sim.h"
#include "mobrep/chaos/partitioned_sim.h"
#include "mobrep/common/random.h"
#include "mobrep/core/cost_simulator.h"
#include "mobrep/core/policy_factory.h"
#include "mobrep/obs/alloc_stats.h"
#include "mobrep/store/write_ahead_log.h"
#include "mobrep/trace/generators.h"
#include "workload.h"

namespace perfbench {
namespace {

constexpr const char* kPolicies[] = {"sw:9", "st2", "t1:3"};
constexpr int kPolicyCount = 3;
// With 16 schedules one seed's mix of reads and writes moved the p50s by up
// to a third against another seed's.
constexpr int kSchedules = 64;
constexpr int64_t kRequests = 48;
constexpr double kTheta = 0.5;
constexpr double kDrop = 0.05;
constexpr mobrep::PartitionShape kShapes[] = {
    mobrep::PartitionShape::kSymmetric, mobrep::PartitionShape::kUplinkOnly,
    mobrep::PartitionShape::kDownlinkOnly};
// Shorter than a lease term, several terms, and never healing.
constexpr double kDurations[] = {0.05, 0.4, -1.0};
constexpr double kPartitionStart = 0.35;
constexpr int kPartitionCellsPerSeed = 9;
constexpr int kSetupRepeats = 3;
constexpr double kGolden = 0.6180339887498949;
// Fixed work of the traced run (each of its two passes): the crash cells of
// the first two schedules, and enough partition runs for a p99.
constexpr int kTracedSchedules = 2;
constexpr int kTracedCells = kTracedSchedules * kPolicyCount;
constexpr int64_t kTracedPartitionRuns = 112 * kPartitionCellsPerSeed;

struct CrashCell {
  mobrep::Schedule schedule;
  mobrep::CrashSimConfig config;
  int points = 0;
};

std::vector<CrashCell> Setup(const RunOptions& options, SpanRecorder* spans,
              Report* report) {
  ScopedSpan span(spans, "bench.setup");
  std::vector<CrashCell> cells;
  mobrep::Rng rng(DeriveSeed(options.seed, 1));
  for (int s = 0; s < kSchedules; ++s) {
    mobrep::Schedule schedule;
    {
      ScopedSpan generate(spans, "trace.GenerateBernoulliSchedule");
      schedule = mobrep::GenerateBernoulliSchedule(kRequests, kTheta, &rng);
    }
    for (const char* policy : kPolicies) {
      CrashCell cell;
      cell.schedule = schedule;
      cell.config.spec = *mobrep::ParsePolicySpec(policy);
      cell.config.fault.drop_probability = kDrop;
      cell.config.fault.seed = DeriveSeed(options.seed, 100 + s);
      cell.config.mc_wal_path = options.scratch_dir + "/mc.wal";
      cell.config.sc_wal_path = options.scratch_dir + "/sc.wal";
      // Counting pass: the crash-free run enumerates the reachable points.
      mobrep::CrashScheduler counting;
      ScopedSpan count(spans, "chaos.CrashableSimulation.Run");
      mobrep::CrashableSimulation sim(cell.config, &counting);
      const mobrep::Status status = sim.Run(cell.schedule);
      if (!status.ok()) {
        // Without a clean baseline the crash points cannot be enumerated:
        // the run is aborted, failing every operation.
        report->Failure(std::string("crash-free baseline of ") + policy +
                        " failed: " + status.message());
        report->tally.Abort();
      }
      cell.points = counting.points_seen();
      cells.push_back(std::move(cell));
    }
  }
  return cells;
}

mobrep::PartitionSimConfig PartitionCell(uint64_t seed, int64_t j) {
  const int64_t in_seed = j % kPartitionCellsPerSeed;
  const int64_t seed_index = j / kPartitionCellsPerSeed;
  mobrep::PartitionSimConfig config;
  config.spec = *mobrep::ParsePolicySpec(
      kPolicies[static_cast<size_t>(seed_index % kPolicyCount)]);
  config.fault.seed =
      DeriveSeed(seed, 1000 + static_cast<uint64_t>(seed_index));
  config.plan.shape = kShapes[static_cast<size_t>(in_seed % 3)];
  config.plan.start = kPartitionStart;
  config.plan.duration = kDurations[static_cast<size_t>(in_seed / 3)];
  return config;
}

// Accounting of the runs of one pass.
struct Tally {
  int64_t requests = 0;
  int64_t busy_ns = 0;  // time inside the program's calls
  int64_t crash_runs = 0;
  int64_t partition_runs = 0;
  int64_t recoveries = 0;
  int64_t resyncs = 0;
  int64_t reissued_reads = 0;
  int64_t reclaims = 0;
  int64_t abandoned = 0;
  int64_t retransmissions = 0;
  int64_t timeouts = 0;
  int64_t duplicates = 0;
  int64_t heap_allocs = 0;
  int64_t wal_bytes = 0;
  int64_t recover_ns = 0;
  int64_t decisions = 0;
  int64_t decision_ns = 0;
  LatencyRecorder crash_run, partition_run;
  SegmentMeter* meter = nullptr;  // the end-to-end run's window
};

// One armed crash run: every request is one timed Run call.
void RunCrashPoint(const CrashCell& cell, int point, bool per_layer,
                   SpanRecorder* spans, Tally* tally, Report* report) {
  const int64_t allocs0 = HeapAllocCount();
  mobrep::CrashScheduler scheduler;
  scheduler.Arm(point);
  std::unique_ptr<mobrep::CrashableSimulation> sim;
  int64_t run_ns = TimedCall(spans, "chaos.CrashableSimulation", [&] {
    sim = std::make_unique<mobrep::CrashableSimulation>(cell.config,
                                                        &scheduler);
  });
  mobrep::Schedule one(1);
  int64_t done = 0;
  bool ok = true;
  for (const mobrep::Op op : cell.schedule) {
    one[0] = op;
    mobrep::Status status;
    const int64_t ns = TimedCall(spans, "chaos.CrashableSimulation.Run",
                                 [&] { status = sim->Run(one); });
    run_ns += ns;
    if (tally->meter != nullptr) {
      tally->meter->Record(op == mobrep::Op::kWrite, ns, NowNs());
    }
    ++done;
    if (!status.ok()) {
      report->Failure("crash point " + std::to_string(point) + ": " +
                          status.message(),
                      kRequests);
      ok = false;
      break;
    }
  }
  if (ok && !scheduler.fired()) {
    report->Failure("armed crash point " + std::to_string(point) +
                        " never reached",
                    kRequests);
  }
  tally->busy_ns += run_ns;
  tally->crash_run.Add(run_ns);
  tally->heap_allocs += HeapAllocCount() - allocs0;
  tally->requests += done;
  report->tally.Attempt(kRequests);
  ++tally->crash_runs;
  if (!per_layer) return;

  tally->recoveries += sim->recoveries();
  tally->resyncs += sim->server().resyncs_served();
  tally->reissued_reads += sim->reissued_reads();
  for (const mobrep::ReliableLink* link : {&sim->mc_link(), &sim->sc_link()}) {
    tally->retransmissions += link->retransmissions();
    tally->timeouts += link->timeouts();
    tally->duplicates += link->duplicates_dropped();
  }
  sim.reset();
  // The journals the run left behind.
  for (const std::string* path :
       {&cell.config.mc_wal_path, &cell.config.sc_wal_path}) {
    std::error_code error;
    const auto bytes = std::filesystem::file_size(*path, error);
    if (!error) tally->wal_bytes += static_cast<int64_t>(bytes);
    mobrep::Status recovered;
    tally->recover_ns += TimedCall(spans, "store.WriteAheadLog.Recover", [&] {
      recovered = mobrep::WriteAheadLog::Recover(*path).status();
    });
    if (!recovered.ok()) {
      report->Failure("journal " + *path + " does not recover: " +
                      recovered.message());
    }
  }
  // The decisions of the cell's stream, replayed through CostMeter.
  const auto policy = mobrep::CreatePolicy(cell.config.spec);
  const mobrep::CostModel model = mobrep::CostModel::Connection();
  mobrep::CostMeter meter(policy.get(), &model);
  tally->decision_ns += TimedCall(spans, "core.CostMeter.OnRequest", [&] {
    for (const mobrep::Op op : cell.schedule) meter.OnRequest(op);
  });
  tally->decisions += kRequests;
}

void RunPartition(uint64_t seed, int64_t j, bool per_layer,
                  SpanRecorder* spans, Tally* tally, Report* report) {
  const mobrep::PartitionSimConfig config = PartitionCell(seed, j);
  const int64_t allocs0 = HeapAllocCount();
  std::unique_ptr<mobrep::PartitionedSimulation> sim;
  mobrep::Status status;
  const int64_t run_ns =
      TimedCall(spans, "chaos.PartitionedSimulation", [&] {
        sim = std::make_unique<mobrep::PartitionedSimulation>(config);
      }) +
      TimedCall(spans, "chaos.PartitionedSimulation.Run",
                [&] { status = sim->Run(); });
  tally->busy_ns += run_ns;
  tally->partition_run.Add(run_ns);
  tally->heap_allocs += HeapAllocCount() - allocs0;
  const int64_t requests =
      sim->reads_issued() + sim->server().writes_committed();
  tally->requests += requests;
  if (tally->meter != nullptr) tally->meter->Count(requests, NowNs());
  report->tally.Attempt(requests);
  if (!status.ok()) {
    report->Failure("partition cell " + std::to_string(j) + ": " +
                        status.message(),
                    requests);
  }
  ++tally->partition_runs;
  if (!per_layer) return;
  tally->reclaims += sim->server().lease_reclaims();
  tally->abandoned += sim->abandoned_frames();
  for (const mobrep::ReliableLink* link : {&sim->mc_link(), &sim->sc_link()}) {
    tally->retransmissions += link->retransmissions();
    tally->timeouts += link->timeouts();
    tally->duplicates += link->duplicates_dropped();
  }
}

Report EndToEnd(const RunOptions& options) {
  Report report;
  std::vector<CrashCell> cells;
  // Every set-up repeats the same counting passes; the last one's verdict
  // stands.
  std::vector<double> setup_s = TimeSetups(kSetupRepeats, &cells, [&] {
    report = Report();
    return Setup(options, nullptr, &report);
  });
  if (report.tally.aborted()) return report;

  // Crash runs visit the cells round-robin, and round r arms point
  // frac(r * golden ratio) of each cell: every process of a run samples
  // every cell, and the points it reaches spread over the whole schedule.
  SegmentMeter meter(options.seconds);
  Tally tally;
  tally.meter = &meter;
  size_t cell = 0;
  int64_t round = 0;
  meter.Start(NowNs());
  while (meter.open()) {
    if (tally.partition_runs < tally.crash_runs) {
      RunPartition(options.seed, tally.partition_runs, false, nullptr, &tally,
                   &report);
    } else {
      const CrashCell& c = cells[cell];
      const double position =
          std::fmod(static_cast<double>(round) * kGolden, 1.0);
      RunCrashPoint(c, static_cast<int>(position * c.points), false, nullptr,
                    &tally, &report);
      if (++cell == cells.size()) {
        cell = 0;
        ++round;
      }
    }
  }
  PublishEndToEnd(std::move(setup_s), meter, &report);
  return report;
}

// The fixed work of the traced run: every point of the first kTracedCells
// crash cells, with kTracedPartitionRuns partition runs spread evenly
// between them. `trace`, when set, is drained after every run.
void FixedWork(const RunOptions& options,
               const std::vector<CrashCell>& cells,
               bool per_layer, SpanRecorder* spans, Tally* tally,
               TraceTally* trace, Report* report) {
  int64_t crash_total = 0;
  for (int c = 0; c < kTracedCells; ++c) {
    crash_total += cells[static_cast<size_t>(c)].points;
  }
  for (int c = 0; c < kTracedCells; ++c) {
    const CrashCell& cell = cells[static_cast<size_t>(c)];
    for (int point = 0; point < cell.points; ++point) {
      RunCrashPoint(cell, point, per_layer, spans, tally, report);
      if (trace != nullptr) trace->Drain();
      while (tally->partition_runs * crash_total <
             kTracedPartitionRuns * tally->crash_runs) {
        RunPartition(options.seed, tally->partition_runs, per_layer, spans,
                     tally, report);
        if (trace != nullptr) trace->Drain();
      }
    }
  }
}

Report Traced(const RunOptions& options) {
  Report report;
  SetTracing(false);
  const std::vector<CrashCell> cells = Setup(options, nullptr, &report);

  // Pass A, untraced: per-layer counts and timings of the fixed work.
  Tally a;
  mobrep::obs::ResetAllocCounters();
  FixedWork(options, cells, /*per_layer=*/true, nullptr, &a, nullptr,
            &report);
  const mobrep::obs::AllocCounters alloc =
      mobrep::obs::AggregateAllocCounters();
  const auto requests = static_cast<double>(a.requests);
  const auto crash_runs = static_cast<double>(a.crash_runs);
  report.SetCount("net.retransmissions_per_request",
                  static_cast<double>(a.retransmissions) / requests);
  report.SetCount("net.timeouts", static_cast<double>(a.timeouts));
  report.SetCount("net.duplicates_dropped", static_cast<double>(a.duplicates));
  ReportAllocations(alloc, a.heap_allocs, requests, &report);
  report.SetCount("store.wal_bytes_per_run",
                  static_cast<double>(a.wal_bytes) / crash_runs, "bytes");
  report.Set("store.recover_ms",
             static_cast<double>(a.recover_ns) / 1e6 / crash_runs, "ms",
             a.crash_runs);
  report.Set("core.decision_ns",
             static_cast<double>(a.decision_ns) /
                 static_cast<double>(a.decisions),
             "ns", a.decisions);
  // Each schedule's points summed over its three policy cells.
  report.SetCount("chaos.crash_points_per_schedule",
                  crash_runs / static_cast<double>(kTracedSchedules));
  report.SetCount("chaos.recoveries", static_cast<double>(a.recoveries));
  report.SetCount("chaos.resyncs_per_run",
                  static_cast<double>(a.resyncs) / crash_runs);
  report.SetCount("chaos.reissued_reads",
                  static_cast<double>(a.reissued_reads));
  report.SetCount("chaos.partition_reclaims", static_cast<double>(a.reclaims));
  report.SetCount("chaos.abandoned_frames", static_cast<double>(a.abandoned));
  for (const auto& [name, recorder] :
       {std::pair{"chaos.crash_run", &a.crash_run},
        std::pair{"chaos.partition_run", &a.partition_run}}) {
    for (const auto& [q, tag] :
         {std::pair{0.5, "_p50_ms"}, std::pair{0.99, "_p99_ms"}}) {
      const std::string metric = std::string(name) + tag;
      if (const auto ns = recorder->PercentileNs(q)) {
        report.Set(metric, *ns / 1e6, "ms", recorder->count());
      } else {
        report.Invalid(metric + " withheld: only " +
                       std::to_string(recorder->count()) + " runs");
      }
    }
  }

  // Pass B, traced: the same work with the trace gate on and spans around
  // every call into the program.
  SpanRecorder spans(static_cast<size_t>(64 * a.crash_runs +
                                         4 * a.partition_runs + 64));
  TraceTally trace;
  Tally b;
  {
    ScopedSpan root(&spans, "bench.traced_pass");
    trace.Reset();
    SetTracing(true);
    FixedWork(options, cells, /*per_layer=*/true, &spans, &b, &trace,
              &report);
    trace.Drain();
    SetTracing(false);
  }
  if (b.recoveries != a.recoveries || b.requests != a.requests ||
      b.retransmissions != a.retransmissions) {
    report.Failure("tracing changed the chaos runs' counts", a.requests);
  }
  report.SetCount("store.wal_appends_per_run",
                  static_cast<double>(trace.kind_count("wal_append") +
                                      trace.kind_count("wal_snapshot")) /
                      crash_runs);
  WriteSpanFile(spans, options.scratch_dir + "/spans.json", &report);
  ReportObservability(trace, requests,
                      requests / (static_cast<double>(a.busy_ns) / 1e9),
                      requests / (static_cast<double>(b.busy_ns) / 1e9),
                      spans, &report);
  return report;
}

}  // namespace

Report RunChaos(const RunOptions& options) {
  return options.trace ? Traced(options) : EndToEnd(options);
}

}  // namespace perfbench
