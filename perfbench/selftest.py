#!/usr/bin/env python3
"""Checks of the serving benchmark itself.

    python3 perfbench/selftest.py

1. Exact repeat: every workload runs traced twice on the same seed, and
   the deterministic counts must be identical between the two runs.
2. Unseen seed: every workload runs untraced on a seed drawn now, so no
   earlier run can have used it, and every output must be correct.

Exit status 0 when every check passes, 1 otherwise.
"""

import json
import os
import random
import subprocess
import sys

from run import HERE, ROOT, WORKLOADS

REPEAT_SEED = 7
SECONDS = 2

# Per-layer metrics that are counts of deterministic work on the pool
# inputs: the same seed must reproduce them exactly.
EXACT = (
    "service.sharded.critical_beats",
    "service.sharded.total_beats",
    "service.sharded.overlap_checks",
    "service.sharded.shard_retries",
    "service.batch.passes_per_bundle",
    "service.batch.width_mean",
    "service.batch.rejected",
    "service.stream.degradations",
    "core.simd.word_ops_per_char",
    "core.simd.planes",
    "core.batch.fill_ratio",
    "multipattern.planes_per_chunk",
    "multipattern.sweeps_per_chunk",
    "multipattern.hits",
    "gate.sim_beats_per_char",
    "gate.device_evals_per_char",
)


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(SECONDS),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d trace %d exited %d:\n%s%s"
                           % (workload, seed, trace, proc.returncode,
                              proc.stdout[-2000:], proc.stderr[-2000:]))
    return json.loads(lines[-1])


def main():
    failures = []

    for w in WORKLOADS:
        before = len(failures)
        first = run(w, REPEAT_SEED, 1)
        second = run(w, REPEAT_SEED, 1)
        for key in EXACT:
            a = first["metrics"][key]["value"]
            b = second["metrics"][key]["value"]
            if a != b:
                failures.append("%s: %s differs between runs: %r vs %r"
                                % (w, key, a, b))
        for r in (first, second):
            if not r["correct"] or r["failed"]:
                failures.append("%s: traced run reported failures" % w)
        print("exact repeat %-12s %s"
              % (w, "ok" if len(failures) == before else "FAILED"))

    seed = random.SystemRandom().randrange(1 << 31)
    print("unseen seed %d" % seed)
    for w in WORKLOADS:
        r = run(w, seed, 0)
        ok = r["correct"] and r["failed"] == 0 and r["attempted"] > 0
        if not ok:
            failures.append("%s: seed %d failed %d of %d"
                            % (w, seed, r["failed"], r["attempted"]))
        print("unseen seed  %-12s %s" % (w, "ok" if ok else "FAILED"))

    for f in failures:
        print("FAIL " + f)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
