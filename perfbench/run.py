#!/usr/bin/env python3
"""Builds and runs one workload of the MobRep benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload fanout|lossy_pair|chaos \
        --seed N --seconds S --trace 0|1

The first run configures and builds perfbench/ (the library sources of the
checkout plus the benchmark binary) into .bench_build/perfbench; later runs
only check that the build is current. The run itself is single-threaded
(MOBREP_THREADS=1) and closed-loop. --trace 0 measures the end-to-end
metrics for S seconds with tracing off; --trace 1 runs the per-layer pass
with the program's MOBREP_TRACE gate on, writes the benchmark's spans as
Chrome-trace JSON and checks them with tools/validate_trace.py.

Every metric is printed by name and unit, the host stamp on a "# host"
line, and the last line of stdout is the JSON result. The exit code is 0
only when every output check passed. A copy of each result, stamped with
the host, lands in .bench_build/perfbench-results/.
"""

import argparse
import hashlib
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORK_DIR = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(WORK_DIR, "perfbench")
RESULTS_DIR = os.path.join(WORK_DIR, "perfbench-results")
BINARY = os.path.join(BUILD_DIR, "mobrep_perfbench")
WORKLOADS = ("fanout", "lossy_pair", "chaos")
RUN_TIMEOUT_S = 170
# Processes that share the window of an end-to-end run.
SLICES = 8


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def run_logged(cmd, env):
    """Runs a build step with its output on stderr; True on success."""
    result = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                            stderr=sys.stderr, check=False)
    return result.returncode == 0


def build():
    tmp = os.path.join(WORK_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        if not run_logged(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                           "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], env):
            return False
    return run_logged(["cmake", "--build", BUILD_DIR, "--target",
                       "mobrep_perfbench", "-j", "4"], env)


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_commit():
    """The checkout's commit, or None outside a git work tree."""
    env = dict(os.environ,
               GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                env=env, capture_output=True, text=True,
                                check=False, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if result.returncode != 0:
        return None
    return result.stdout.strip() or None


def source_digest():
    """SHA-256 over the library sources, which identifies the code measured
    even where the checkout is not a git repository."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()


def host_stamp(args, build_line):
    # "# build RelWithDebInfo, 12.2.0, MOBREP_TRACING=1"
    match = re.match(r"# build (\S+), (.*), MOBREP_TRACING=(\d)", build_line)
    return {
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "compiler": f"g++ {match.group(2)}" if match else "unknown",
        "build_type": match.group(1) if match else "unknown",
        "mobrep_tracing": int(match.group(3)) if match else None,
        "threads": 1,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def expected_metrics(trace):
    spec = benchmark_spec()
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def validate_spans(path):
    """Runs the repository's trace validator on the span file."""
    validator = os.path.join(ROOT, "tools", "validate_trace.py")
    if not os.path.exists(validator):
        return False, "tools/validate_trace.py not found"
    result = subprocess.run([sys.executable, validator, "--require-spans",
                             path], capture_output=True, text=True,
                            check=False)
    return result.returncode == 0, (result.stdout + result.stderr).strip()


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    started = time.monotonic()
    if not build():
        log("build failed")
        return 1
    log(f"build ready in {time.monotonic() - started:.1f} s")

    scratch = os.path.join(WORK_DIR, "perfbench-scratch",
                           f"{args.workload}-{os.getpid()}")
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    try:
        outcome = measure(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if outcome is None:
        return 1
    lines, result = outcome

    build_line = next((l for l in lines if l.startswith("# build ")), "")
    stamp = host_stamp(args, build_line)
    for line in lines:
        print(line)
    print("# host " + json.dumps(stamp, sort_keys=True))
    os.makedirs(RESULTS_DIR, exist_ok=True)
    deterministic = [l.split()[1] for l in lines
                     if l.startswith("metric ") and l.endswith("[count]")]
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(RESULTS_DIR, name), "w", encoding="utf-8") as f:
        json.dump({"host": stamp, "result": result,
                   "deterministic": deterministic}, f, indent=1,
                  sort_keys=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_binary(args, seconds, scratch, timeout, cpu=None):
    """One benchmark process, pinned to `cpu` when given; (stdout lines,
    result) or None."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("MOBREP_")}
    env.update(MOBREP_THREADS="1", MOBREP_TRACE=str(args.trace))
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", str(args.trace),
           "--scratch", scratch]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(timeout, 1), check=False,
            preexec_fn=None if cpu is None else
            lambda: os.sched_setaffinity(0, {cpu}))
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        log(f"benchmark binary exited with {proc.returncode} and no result")
        return None
    result = json.loads(lines[-1])
    if proc.returncode != 0:
        result["correct"] = False
    return lines[:-1], result


def slow_decile(values, higher_is_better):
    """The nearest-rank value that 9 of 10 `values` reach: the 10th
    percentile of a rate, the 90th of a latency."""
    ordered = sorted(values)
    share = 0.1 if higher_is_better else 0.9
    rank = max(1, math.ceil(share * len(ordered) - 1e-9))
    return ordered[rank - 1]


def reduce_series(name, values, higher_is_better):
    """One end-to-end metric from the values the processes of a run pooled:
    the largest peak_rss_mb, the median setup_s and p99, and the slow
    decile of ops_per_s and the p50s (README.md, "End-to-end metrics")."""
    if name == "peak_rss_mb":
        return max(values)
    if name == "setup_s" or name.endswith("_p99_us"):
        return statistics.median(values)
    return slow_decile(values, higher_is_better)


def combine(results, end_to_end):
    """One result from the processes of an end-to-end run, with the metrics
    `end_to_end` lists (BENCHMARK.json). A metric that some process did not
    report, or that is not positive, makes the result incorrect."""
    correct = all(r["correct"] for r in results)
    metrics = {}
    for spec in end_to_end:
        name = spec["name"]
        if any(not r["series"].get(name) for r in results):
            correct = False
        pooled = [v for r in results for v in r["series"].get(name, [])]
        value = (reduce_series(name, pooled, spec["better"] == "higher")
                 if pooled else 0.0)
        correct = correct and value > 0
        metrics[name] = {"value": value, "unit": spec["unit"]}
    return {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }


def measure(args, scratch):
    """Runs the workload; (printable lines, result) or None."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    if args.trace:
        outcome = run_binary(args, args.seconds, scratch, RUN_TIMEOUT_S)
        if outcome is None:
            return None
        lines, result = outcome
        ok, message = validate_spans(os.path.join(scratch, "spans.json"))
        lines.append(f"# span file: {message}")
        if ok:
            os.makedirs(RESULTS_DIR, exist_ok=True)
            shutil.copyfile(os.path.join(scratch, "spans.json"),
                            os.path.join(RESULTS_DIR,
                                         f"{args.workload}-spans.json"))
        else:
            result["correct"] = False
    else:
        # SLICES fresh processes share the window, pinned in turn to each
        # CPU this run may use: the CPUs of a shared host run at different
        # speeds, so every run samples all of them alike (README.md).
        cpus = sorted(os.sched_getaffinity(0))
        slices = []
        for i in range(SLICES):
            outcome = run_binary(args, args.seconds / SLICES, scratch,
                                 deadline - time.monotonic(),
                                 cpus[i % len(cpus)])
            if outcome is None:
                return None
            slices.append(outcome)
        result = combine([r for _, r in slices],
                         benchmark_spec()["end_to_end"])
        lines = []
        for i, (slice_lines, _) in enumerate(slices):
            lines += [f"# slice {i}: {l.lstrip('# ')}" for l in slice_lines
                      if not l.startswith("# build ") or i == 0]
        lines.insert(0, slices[0][0][0])  # the "# build" line
        for name, metric in result["metrics"].items():
            lines.append(f"metric {name:<36} {metric['value']:.6g} "
                         f"{metric['unit']}  (over {SLICES} slices)")
    if list(result["metrics"]) != expected_metrics(args.trace):
        lines.append("# INVALID: metrics differ from BENCHMARK.json")
        result["correct"] = False
    return lines, result


if __name__ == "__main__":
    sys.exit(main())
