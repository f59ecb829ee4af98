// The MobRep benchmark binary. One process executes one workload (fanout,
// lossy_pair or chaos) for one seed, then prints one JSON result line:
//
//   mobrep_perfbench --workload fanout --seed 1 --seconds 10 --trace 0
//       --scratch DIR
//
// --trace 0 is one process of an end-to-end run: untraced, it measures for
// --seconds and its result carries the raw "series" (per segment, per
// set-up, per process) that run.py pools over the processes of the run and
// reduces to the end-to-end metrics.
// --trace 1 is the per-layer run: a fixed amount of work, once untraced
// and once with the program's trace gate on and the benchmark's spans
// recorded, so its counts repeat exactly for one seed. It prints every
// per-layer metric by name and unit. See README.md.

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>

#include "mobrep/obs/trace.h"
#include "workload.h"

// ---------------------------------------------------------------------------
// Every heap allocation of this binary funnels through here, so
// net.heap_allocs_per_request counts what the program really allocates.
// All forms are replaced, nothrow ones included, so that every pointer
// freed here was allocated here.
namespace {
std::atomic<int64_t> g_heap_allocs{0};

void* CountedAlloc(std::size_t size) noexcept {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}

void* CountedAlignedAlloc(std::size_t size, std::align_val_t align) noexcept {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  return std::aligned_alloc(a, ((size ? size : 1) + a - 1) & ~(a - 1));
}

void* OrThrow(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t size) { return OrThrow(CountedAlloc(size)); }
void* operator new[](std::size_t size) { return OrThrow(CountedAlloc(size)); }
void* operator new(std::size_t size, std::align_val_t align) {
  return OrThrow(CountedAlignedAlloc(size, align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return OrThrow(CountedAlignedAlloc(size, align));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return CountedAlignedAlloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return CountedAlignedAlloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace perfbench {

int64_t HeapAllocCount() {
  return g_heap_allocs.load(std::memory_order_relaxed);
}

namespace {

struct CatalogEntry {
  const char* name;
  const char* unit;
};

// The per-layer metrics every workload reports in its traced run
// (BENCHMARK.json "per_layer", same order). A metric that does not apply
// to a workload reads 0 there; README.md maps each one to its workloads.
constexpr CatalogEntry kPerLayer[] = {
    {"protocol.fanout_per_write", "count"},
    {"protocol.remote_read_share", "ratio"},
    {"protocol.msgs_per_request", "count"},
    {"protocol.handovers", "count"},
    {"protocol.handover_step_p50_us", "us"},
    {"core.decision_ns", "ns"},
    {"net.events_per_request", "count"},
    {"net.peak_live_events", "count"},
    {"net.retransmissions_per_request", "count"},
    {"net.timeouts", "count"},
    {"net.duplicates_dropped", "count"},
    {"net.frame_yield", "ratio"},
    {"net.msg_pool_reuse_share", "ratio"},
    {"net.event_heap_spills", "count"},
    {"net.window_spills", "count"},
    {"net.heap_allocs_per_request", "count"},
    {"store.wal_appends_per_run", "count"},
    {"store.wal_bytes_per_run", "bytes"},
    {"store.recover_ms", "ms"},
    {"chaos.crash_points_per_schedule", "count"},
    {"chaos.recoveries", "count"},
    {"chaos.resyncs_per_run", "count"},
    {"chaos.reissued_reads", "count"},
    {"chaos.partition_reclaims", "count"},
    {"chaos.abandoned_frames", "count"},
    {"chaos.crash_run_p50_ms", "ms"},
    {"chaos.crash_run_p99_ms", "ms"},
    {"chaos.partition_run_p50_ms", "ms"},
    {"chaos.partition_run_p99_ms", "ms"},
    {"obs.trace_events_per_request.net", "count"},
    {"obs.trace_events_per_request.arq", "count"},
    {"obs.trace_events_per_request.wal", "count"},
    {"obs.trace_events_per_request.crash", "count"},
    {"obs.trace_events_per_request.lease", "count"},
    {"obs.trace_dropped", "count"},
    {"obs.trace_overhead_pct", "%"},
    {"bench.self_time_pct", "%"},
    {"protocol.self_time_pct", "%"},
    {"core.self_time_pct", "%"},
    {"store.self_time_pct", "%"},
    {"chaos.self_time_pct", "%"},
    {"trace.self_time_pct", "%"},
};

int Usage(const char* why) {
  std::fprintf(stderr,
               "mobrep_perfbench: %s\nusage: mobrep_perfbench --workload "
               "fanout|lossy_pair|chaos --seed N --seconds S --trace 0|1 "
               "--scratch DIR\n",
               why);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload;
  RunOptions options;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
      have_seed = *end == '\0';
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, &end);
      have_seconds = *end == '\0' && options.seconds > 0.0;
    } else if (flag == "--trace") {
      have_trace = std::strcmp(value, "0") == 0 || std::strcmp(value, "1") == 0;
      options.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--scratch") {
      options.scratch_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return Usage("--seed, --seconds and --trace are required");
  }
  // The trace gate comes from the MOBREP_TRACE environment variable, as for
  // every program of the repository: on for the traced run, off otherwise.
  if (mobrep::obs::TracingEnabled() != options.trace) {
    return Usage(options.trace
                     ? "--trace 1 needs MOBREP_TRACE=1"
                     : "--trace 0 needs MOBREP_TRACE unset or 0");
  }

  Report report;
  if (workload == "fanout") {
    report = RunFanout(options);
  } else if (workload == "lossy_pair") {
    report = RunLossyPair(options);
  } else if (workload == "chaos") {
    report = RunChaos(options);
  } else {
    return Usage(("unknown workload '" + workload + "'").c_str());
  }

  std::printf("# build %s, %s, MOBREP_TRACING=%d\n", PERFBENCH_BUILD_TYPE,
              __VERSION__, MOBREP_TRACING);
  for (const std::string& message : report.messages) {
    std::printf("# %s\n", message.c_str());
  }
  std::printf("# attempted %lld, failed %lld, failed_share %.6g%s\n",
              static_cast<long long>(report.tally.attempted()),
              static_cast<long long>(report.tally.failed()),
              report.tally.failed_share(),
              report.tally.aborted() ? " (aborted)" : "");

  std::string fields;
  if (options.trace) {
    for (const CatalogEntry& entry : kPerLayer) {
      const Metric* m = report.Find(entry.name);
      const double value = m != nullptr ? m->value : 0.0;
      std::printf("metric %-36s %.6g %s", entry.name, value, entry.unit);
      if (m != nullptr && m->samples >= 0) {
        std::printf("  (n=%lld)", static_cast<long long>(m->samples));
      }
      if (m != nullptr && m->deterministic) std::printf("  [count]");
      if (m == nullptr) std::printf("  [n/a]");
      std::printf("\n");
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    fields.empty() ? "" : ", ", entry.name, value, entry.unit);
      fields += buf;
    }
    fields = "\"metrics\": {" + fields + "}";
  } else {
    for (const auto& [name, values] : report.series) {
      fields += fields.empty() ? "" : ", ";
      fields += "\"" + name + "\": [";
      for (size_t i = 0; i < values.size(); ++i) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%s%.17g", i ? ", " : "", values[i]);
        fields += buf;
      }
      fields += "]";
    }
    fields = "\"series\": {" + fields + "}";
  }
  const bool correct = !report.invalid && report.tally.ok();
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "%s}\n",
              correct ? "true" : "false",
              static_cast<long long>(report.tally.attempted()),
              static_cast<long long>(report.tally.failed()), fields.c_str());
  return correct ? 0 : 1;
}
