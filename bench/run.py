#!/usr/bin/env python3
"""scenegame benchmark: one closed-loop client driving ``scenegame.cli.main``.

    python3 bench/run.py --workload segment --seed 2026 --seconds 20 --trace 0

Run from the repository root (any directory works; paths are resolved from
this file). The workload's inputs are generated from ``--seed`` and written
under ``.bench_run/``; then CLI calls run back to back, cycling over the
workload's inputs, until ``--seconds`` have passed. Outputs are checked after
the timed loop. The last stdout line is the result JSON; the line before it
holds run metadata.

``--seconds`` defaults to ``run_seconds`` in BENCHMARK.json. ``--trace 0``
reports the end-to-end metrics; ``wall_s`` and ``setup_s`` are scaled by a
reference workload timed between calls (see ``SpeedCorrector``).
``--trace 1`` alternates
untraced and traced calls and reports the per-layer metrics (self times and
counts from spans recorded by ``spans.Tracer``).
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DEFAULT_SEED = 2026          # the criterion-9 master seed
SETUP_ROUNDS = 5
BLAS_THREADS = "1"           # <= nproc; one thread keeps timings steady
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS")
NOT_APPLICABLE = 1.0         # value of a quality metric a workload does not measure

# name, unit; "better" and bounds live in BENCHMARK.json
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("pass_frac", "ratio"),
    ("accuracy", "ratio"),
    ("energy_drop_per_px", "energy/px"),
    ("equilibrium", "ratio"),
    ("recovery_frac", "ratio"),
)
QUALITY = ("accuracy", "energy_drop_per_px", "equilibrium", "recovery_frac")

PER_LAYER = (
    ("image.gen_scene_s", "s"), ("image.gen_scene_calls", "count"),
    ("image.pnm_s", "s"),
    ("preprocess.equalize_s", "s"), ("preprocess.equalize_calls", "count"),
    ("gmm.fit_s", "s"), ("gmm.em_iters", "count"), ("gmm.em_iter_s", "s"),
    ("gmm.e_step_s", "s"), ("gmm.m_step_s", "s"), ("gmm.loglik_s", "s"),
    ("gmm.converged", "ratio"),
    ("mrf.build_s", "s"), ("mrf.solve_s", "s"), ("mrf.sweeps", "count"),
    ("mrf.sweep_s", "s"), ("mrf.site_label_evals", "count"),
    ("mrf.site_label_evals_per_s", "1/s"), ("mrf.changed_frac", "ratio"),
    ("mrf.energy_of_s", "s"), ("mrf.energy_of_calls", "count"),
    ("mrf.nash_check_s", "s"),
    ("net.train_s", "s"), ("net.train_steps", "count"),
    ("net.conv1.fwd_s", "s"), ("net.conv1.bwd_s", "s"),
    ("net.conv2.fwd_s", "s"), ("net.conv2.bwd_s", "s"),
    ("net.conv_macs", "count"), ("net.conv_gmacs_per_s", "GMAC/s"),
    ("net.pool.fwd_s", "s"), ("net.pool.bwd_s", "s"),
    ("net.dense.fwd_s", "s"), ("net.dense.bwd_s", "s"), ("net.relu_s", "s"),
    ("net.mine_triplets_s", "s"), ("net.triplets", "count"),
    ("net.loss_s", "s"), ("net.predict_s", "s"), ("net.predict_calls", "count"),
    ("features.extract_s", "s"), ("features.extract_calls", "count"),
    ("features.select_s", "s"), ("features.weights_s", "s"),
    ("cli.self_s", "s"),
    ("trace.overhead_s", "s"),
)
# Counts computed from shapes, spans and the solver trace CSV, not read from
# any counter inside the program.
COMPUTED = ("gmm.em_iters", "gmm.converged", "mrf.sweeps", "mrf.site_label_evals",
            "mrf.site_label_evals_per_s", "mrf.changed_frac", "net.train_steps",
            "net.conv_macs", "net.conv_gmacs_per_s", "net.triplets")

# Reference work: a fixed mix of pure-Python float loops and small numpy
# kernels, like the pipeline's. Timed once between untraced calls (and between
# set-up rounds); a call's time is scaled by REFERENCE_S / (the mean of the
# reference timings on either side of it). This cancels the machine's speed
# swings (co-tenants on shared cores move every timing by 20-30% over
# minutes) while a change to scenegame moves only the call's time.
REFERENCE_S = 0.1            # the reference time on a quiet 2.1 GHz Xeon core


class Reference:
    """The reference work, with its inputs built once."""

    def __init__(self, np):
        rng = np.random.default_rng(0)
        self.np = np
        self.a = rng.random((64, 64))
        self.v = rng.random(16384)
        self.values = self.v.tolist()

    def seconds(self):
        np, a, v = self.np, self.a, self.v
        started = time.perf_counter()
        acc = 0.0
        for _ in range(18):
            for x in self.values:
                if x * 1.5 < acc:
                    acc -= x
                else:
                    acc += x * 0.5
            for _ in range(20):
                (np.exp(-a) @ a).argmin(axis=0)
            for _ in range(5):
                np.log(np.exp(-(v[:, None] - a[0, :3]) ** 2).sum(axis=1)).sum()
        return time.perf_counter() - started


class SpeedCorrector:
    """Times the reference once before the first measurement and once after
    each; the timing after one measurement is the timing before the next."""

    def __init__(self, reference):
        self.reference = reference
        self.before = None

    def __call__(self, measure):
        """Run ``measure()``; return its result, its seconds, and its seconds
        scaled to the reference speed."""
        if self.before is None:
            self.before = self.reference.seconds()
        result, secs = measure()
        after = self.reference.seconds()
        scale = REFERENCE_S / ((self.before + after) / 2.0)
        self.before = after
        return result, secs, secs * scale


IMPORT_PROBE = ("import time; t = time.perf_counter(); import scenegame.cli; "
                "print(time.perf_counter() - t)")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("experiment", "segment", "register", "anneal"))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=None,
                   help="default: run_seconds in BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def git_commit():
    """HEAD commit read from .git without running git; 'unknown' elsewhere."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_info(np):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        return "unknown"


def child_import_seconds():
    """Import time of scenegame.cli in a fresh interpreter (numpy included)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def timed_call(main, argv):
    started = time.perf_counter()
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse rejects arguments this way
        code = exc.code
    return code, time.perf_counter() - started


def median_per_input(samples):
    """Mean over inputs of each input's median: spreads the seed's influence
    over several inputs and the machine's noise over several calls."""
    return statistics.fmean(statistics.median(v) for v in samples.values())


def layer_metrics(tracer, spans_mod, call, figures):
    """Per-layer metrics of one traced CLI call; ``figures`` are the output
    check's counts for the call's input."""
    spans = tracer.call_spans(call)
    own = spans_mod.self_times(spans)
    self_s, incl_s, n, counts = {}, {}, {}, {}
    for s in spans:
        bucket = s[3]
        self_s[bucket] = self_s.get(bucket, 0.0) + own[s[0]]
        incl_s[bucket] = incl_s.get(bucket, 0.0) + (s[5] - s[4])
        n[bucket] = n.get(bucket, 0) + 1
        for key, value in (s[6] or {}).items():
            counts[key] = counts.get(key, 0) + value
    t = lambda b: self_s.get(b, 0.0)
    rate = lambda num, den: num / den if den > 0 else 0.0
    sweeps = figures.get("sweeps", 0)
    sites = figures.get("sites", 0)
    evals = sweeps * sites * figures.get("labels", 0)
    conv_s = sum(t(f"net.conv{i}.{d}") for i in (1, 2) for d in ("fwd", "bwd"))
    fits = n.get("gmm.fit", 0)
    m = {
        "image.gen_scene_s": t("image.gen_scene"),
        "image.gen_scene_calls": n.get("image.gen_scene", 0),
        "image.pnm_s": t("image.pnm"),
        "preprocess.equalize_s": t("preprocess.equalize"),
        "preprocess.equalize_calls": n.get("preprocess.equalize", 0),
        "gmm.fit_s": t("gmm.fit"),
        "gmm.em_iters": counts.get("em_iters", 0),
        "gmm.em_iter_s": rate(incl_s.get("gmm.fit", 0.0), counts.get("em_iters", 0)),
        "gmm.e_step_s": t("gmm.e_step"),
        "gmm.m_step_s": t("gmm.m_step"),
        "gmm.loglik_s": t("gmm.loglik"),
        "gmm.converged": rate(counts.get("converged", 0), fits),
        "mrf.build_s": t("mrf.build"),
        "mrf.solve_s": t("mrf.solve"),
        "mrf.sweeps": sweeps,
        "mrf.sweep_s": rate(incl_s.get("mrf.solve", 0.0), sweeps),
        "mrf.site_label_evals": evals,
        "mrf.site_label_evals_per_s": rate(evals, t("mrf.solve")),
        "mrf.changed_frac": rate(figures.get("changed", 0), sweeps * sites),
        "mrf.energy_of_s": t("mrf.energy_of"),
        "mrf.energy_of_calls": n.get("mrf.energy_of", 0),
        "mrf.nash_check_s": figures.get("nash_check_s", 0.0),
        "net.train_s": t("net.train"),
        "net.train_steps": n.get("net.conv1.bwd", 0),
        "net.conv1.fwd_s": t("net.conv1.fwd"),
        "net.conv1.bwd_s": t("net.conv1.bwd"),
        "net.conv2.fwd_s": t("net.conv2.fwd"),
        "net.conv2.bwd_s": t("net.conv2.bwd"),
        "net.conv_macs": counts.get("macs", 0),
        "net.conv_gmacs_per_s": rate(counts.get("macs", 0) / 1e9, conv_s),
        "net.pool.fwd_s": t("net.pool.fwd"),
        "net.pool.bwd_s": t("net.pool.bwd"),
        "net.dense.fwd_s": t("net.dense.fwd"),
        "net.dense.bwd_s": t("net.dense.bwd"),
        "net.relu_s": t("net.relu"),
        "net.mine_triplets_s": t("net.mine_triplets"),
        "net.triplets": counts.get("triplets", 0),
        "net.loss_s": t("net.loss"),
        "net.predict_s": t("net.predict"),
        "net.predict_calls": n.get("net.predict", 0),
        "features.extract_s": t("features.extract"),
        "features.extract_calls": n.get("features.extract", 0),
        "features.select_s": t("features.select"),
        "features.weights_s": t("features.weights"),
        "cli.self_s": t("cli"),
    }
    if any("conv_other" in b for b in self_s):
        raise RuntimeError("a Conv2D outside default_net ran; conv1/conv2 are ambiguous")
    return m, sum(own.values())


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "scenegame" / "cli.py").is_file():
        print(f"error: no scenegame sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds is None:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        args.seconds = float(spec["run_seconds"])
    for var in BLAS_VARS:  # before numpy loads its BLAS
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    started = time.perf_counter()
    import numpy as np
    import scenegame.cli  # noqa: F401  (imports every scenegame module)
    import scenegame as sg
    first_import_s = time.perf_counter() - started
    import spans as spans_mod
    from workloads import WORKLOADS, CheckFailed, digest

    wl = WORKLOADS[args.workload]
    workdir = ROOT / ".bench_run" / f"{wl.name}-{args.seed}-t{args.trace}"
    workdir.mkdir(parents=True, exist_ok=True)
    for stale in workdir.iterdir():
        stale.unlink()

    # Set-up: fresh-interpreter import plus input generation and writing,
    # repeated; the median is reported.
    speed_corrected = SpeedCorrector(Reference(np))

    def set_up():
        import_s = child_import_seconds()
        t0 = time.perf_counter()
        made = wl.make_inputs(sg, args.seed, workdir)
        return made, import_s + time.perf_counter() - t0

    setup, setup_raw = [], []
    for _ in range(SETUP_ROUNDS):
        inputs, raw_s, secs = speed_corrected(set_up)
        setup.append(secs)
        setup_raw.append(raw_s)

    # Timed closed loop: one client, each call waits for the previous one.
    tracer = spans_mod.Tracer(sg)
    calls = []  # (input index, traced, seconds, exit code, digest, root span)
    corrected = {}  # input index -> speed-corrected seconds of untraced calls
    loop_start = time.perf_counter()
    k = 0
    while k < len(inputs) or time.perf_counter() - loop_start < args.seconds:
        i = k % len(inputs)
        for traced in ((False, True) if args.trace else (False,)):
            root = None
            if traced:
                tracer.install()
                try:
                    code, secs = timed_call(sg.cli.main, inputs[i].argv)
                finally:
                    tracer.uninstall()
                root = tracer.calls()[-1]
            elif args.trace:
                code, secs = timed_call(sg.cli.main, inputs[i].argv)
            else:
                code, secs, scaled = speed_corrected(
                    lambda: timed_call(sg.cli.main, inputs[i].argv))
                corrected.setdefault(i, []).append(scaled)
            out_digest = digest(inputs[i].outputs) if code == 0 else None
            calls.append((i, traced, secs, code, out_digest, root))
        k += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Output checks, once per input on the files its calls left behind.
    figures, problems = {}, []
    failed = sum(1 for c in calls if c[3] != 0)
    for i, inp in enumerate(inputs):
        mine = [c for c in calls if c[0] == i]
        codes = {c[3] for c in mine}
        digests = {c[4] for c in mine}
        try:
            if codes != {0}:
                raise CheckFailed(f"exit codes {sorted(codes, key=str)}")
            if len(digests) != 1:
                raise CheckFailed(f"{len(digests)} different outputs from one input")
            figures[i] = wl.check(sg, inp)
        except Exception as exc:  # a failed check marks the input's calls failed
            problems.append(f"input {i}: {type(exc).__name__}: {exc}")
            failed += sum(1 for c in mine if c[3] == 0)

    attempted = len(calls)
    quality = {
        name: statistics.fmean(figures[i][name] if i in figures else 0.0
                               for i in range(len(inputs)))
        if name in wl.metrics else NOT_APPLICABLE
        for name in QUALITY
    }
    if args.trace == 0:
        untraced = {}
        for i, _, secs, *_ in calls:
            untraced.setdefault(i, []).append(secs)
        values = {
            "wall_s": median_per_input(corrected),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb,
            "pass_frac": (attempted - failed) / attempted,
            **quality,
        }
        result = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        record_counts, stages = {}, []
        raw = {"wall_s": median_per_input(untraced), "setup_s": statistics.median(setup_raw)}
    else:
        per_input, plain, traced_s, accounted = {}, {}, {}, []
        stages, record_counts = [], {}
        for i, traced, secs, code, _, root in calls:
            if not traced:
                plain.setdefault(i, []).append(secs)
                continue
            traced_s.setdefault(i, []).append(secs)
            m, self_sum = layer_metrics(tracer, spans_mod, root, figures.get(i, {}))
            accounted.append(self_sum / secs)
            if i not in per_input:
                stages.append(spans_mod.stage_list(tracer.call_spans(root)))
            per_input.setdefault(i, []).append(m)
        values = {}
        for name in (n for n, _ in PER_LAYER if n != "trace.overhead_s"):
            values[name] = statistics.fmean(
                statistics.median(m[name] for m in ms) for ms in per_input.values())
        values["trace.overhead_s"] = median_per_input(traced_s) - median_per_input(plain)
        result = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
        record_counts = {name: values[name] for name, unit in PER_LAYER
                         if unit in ("count", "ratio")}
        with open(workdir / "spans.json", "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "parent", "call", "bucket", "start", "end", "counts"],
                       "spans": tracer.spans}, fh)

    meta = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": len(inputs),
        "call_seconds": [[c[2] for c in calls if c[0] == i] for i in range(len(inputs))],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(np),
        "blas_threads": int(BLAS_THREADS),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "first_import_s": first_import_s,
        "not_applicable": [q for q in QUALITY if q not in wl.metrics],
        "computed": list(COMPUTED) if args.trace else [],
        "problems": problems,
    }
    if args.trace:
        meta["self_time_share_of_traced_wall"] = statistics.median(accounted)
    else:
        meta["uncorrected"] = raw
    record = {
        "workload": wl.name, "seed": args.seed,
        "digests": [sorted({c[4] for c in calls if c[0] == i}, key=str)
                    for i in range(len(inputs))],
        "quality": quality, "counts": record_counts, "stages": stages,
        "passed": failed == 0,
    }
    (workdir / "record.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    for name, entry in result.items():
        print(f"{wl.name:>10}  {name:<30} {entry['value']:>14.6g} {entry['unit']}",
              file=sys.stderr)
    for line in problems:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({"meta": meta}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
