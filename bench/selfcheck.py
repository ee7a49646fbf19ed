#!/usr/bin/env python3
"""Determinism gate of the benchmark itself.

    python3 bench/selfcheck.py

For each workload, two traced runs at seed 2026 must agree on everything but
time: output-file digests, quality metrics, per-layer counts, and the stage
list of each input's first traced call. A run at seed 7 must pass every output
check. Runs are one second long, so every input runs once untraced and once
traced. Exits 0 when every workload passes.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMPARED = ("digests", "quality", "counts", "stages")
SEED, SECOND_SEED = 2026, 7
SECONDS = 1
WORKLOADS = ("experiment", "segment", "register", "anneal")


def traced_record(workload, seed):
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "1"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
    path = ROOT / ".bench_run" / f"{workload}-{seed}-t1" / "record.json"
    return json.loads(path.read_text(encoding="utf-8"))


def main():
    all_ok = True
    for workload in WORKLOADS:
        first = traced_record(workload, SEED)
        again = traced_record(workload, SEED)
        other = traced_record(workload, SECOND_SEED)
        problems = [f"{key} differs between runs at seed {SEED}"
                    for key in COMPARED if first[key] != again[key]]
        for rec in (first, again):
            if any(len(d) != 1 for d in rec["digests"]):
                problems.append("an input gave different outputs traced and untraced")
        for rec, seed in ((first, SEED), (other, SECOND_SEED)):
            if not rec["passed"]:
                problems.append(f"output checks failed at seed {seed}")
        status = "PASS" if not problems else "FAIL"
        print(f"{status} {workload}: quality {first['quality']}")
        for line in problems:
            print(f"    {line}")
        all_ok = all_ok and not problems
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
