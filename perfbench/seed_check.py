#!/usr/bin/env python3
"""Checks that the seed reaches the benchmark's input generators and that
its deterministic per-layer counts do not depend on timing.

For each workload it makes three traced runs (--trace 1): two with one seed
and one with another. Every count the benchmark marks as deterministic
("[count]" on its metric line: messages, events, handovers, crash points,
WAL appends, trace events, ...) must repeat exactly between the two runs
with one seed, and some of them must differ under the other seed, because
the inputs differ.

Usage (from the root of a checkout):

    python3 perfbench/seed_check.py

Exit code 0 when every workload passes.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("fanout", "lossy_pair", "chaos")
SEED = 1
OTHER_SEED = 2


def traced_run(workload, seed):
    """Returns (ok, {count name: value}) for one traced run."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, check=False)
    lines = proc.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stdout + proc.stderr)
        return False, {}
    result = json.loads(lines[-1])
    names = [line.split()[1] for line in lines
             if line.startswith("metric ") and line.endswith("[count]")]
    counts = {name: result["metrics"][name]["value"] for name in names}
    return proc.returncode == 0 and result["correct"], counts


def main():
    failed = False
    for workload in WORKLOADS:
        ok_a, first = traced_run(workload, SEED)
        ok_b, again = traced_run(workload, SEED)
        ok_c, other = traced_run(workload, OTHER_SEED)
        problems = []
        if not (ok_a and ok_b and ok_c):
            problems.append("a traced run failed its output checks")
        if not first:
            problems.append("no deterministic counts reported")
        unstable = sorted(k for k in first if again.get(k) != first[k])
        if unstable:
            problems.append("counts differ under one seed: " +
                            ", ".join(f"{k} {first[k]!r} vs {again.get(k)!r}"
                                      for k in unstable))
        moved = sorted(k for k in first if other.get(k) != first[k])
        if first and not moved:
            problems.append(f"seed {OTHER_SEED} gives the same counts "
                            f"as seed {SEED}: the seed does not reach "
                            "the inputs")
        status = "FAIL" if problems else "ok"
        print(f"{workload}: {status}: {len(first)} counts repeat under seed "
              f"{SEED}; {len(moved)} differ under seed "
              f"{OTHER_SEED}")
        for problem in problems:
            print(f"  {problem}")
        failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
