#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize each metric.

    python3 bench/baseline.py --seeds 1-10 [--out bench/BASELINE.json]

Each (workload, seed) is one untraced ``bench/run.py`` process, run one after
another over every workload in BENCHMARK.json with its ``run_seconds``. For every metric the summary gives
the median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread, (q3 - q1) / median, next to the metric's bound. With ``--out`` the
runs and the summary are written as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(spec, workload, seed):
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    started = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    meta = json.loads(lines[-2])["meta"]
    meta["process_s"] = time.perf_counter() - started
    return meta, json.loads(lines[-1])


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else 0.0}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--out", default=None)
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    seeds = parse_seeds(args.seeds)
    runs, summary, ok = [], {}, True
    for name in names:
        per_metric = {}
        for seed in seeds:
            meta, result = run_once(spec, name, seed)
            ok = ok and result["correct"] and result["failed"] == 0
            runs.append({"workload": name, "seed": seed, "meta": meta, "result": result})
            for metric, entry in result["metrics"].items():
                per_metric.setdefault(metric, (entry["unit"], []))[1].append(entry["value"])
            print(f"{name} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"process {meta['process_s']:.1f}s",
                  file=sys.stderr, flush=True)
        summary[name] = {}
        for metric, (unit, values) in per_metric.items():
            s = summarize(values) if len(values) > 1 else {"median": values[0]}
            s["unit"] = unit
            summary[name][metric] = s
            bound = bounds.get(metric)
            spread = s.get("spread", 0.0)
            flag = "" if bound is None else f"bound {bound:<5} {'OK' if spread < bound / 3 else 'WIDE'}"
            print(f"{name:>10} {metric:<30} {s['median']:>14.6g} {unit:<10} "
                  f"spread {spread:8.4f}  {flag}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"run_seconds": spec["run_seconds"], "seeds": seeds, "trace": 0,
             "summary": summary, "runs": runs}, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
