"""The four benchmark workloads: seeded inputs, CLI arguments and output
checks.

Each workload writes its inputs under a work directory and drives
``scenegame.cli.main`` with them; the program sees only those files. A
workload has several distinct inputs so that its timings and quality figures
average over inputs rather than hang on one draw of the seed.

Output checks raise ``CheckFailed``; the caller turns that into a failed call
instead of a crashed run. Quality figures are exact functions of the seed.
"""

import csv
import hashlib
import re
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# The criterion-9 report row: level, size, complexity, noise, accuracy,
# robustness (same pattern as the acceptance suite).
ROW_PATTERN = re.compile(
    r"^[1-5],\d+\*\d+,1,[1-3],(0\.\d{4}|1\.0000),\d+\.\d{2}±\d+\.\d{2}$"
)
FEATURE_HEADER = "input_size,noise_level,trial,selected,weights,objective"

SCENE_CLASS = 0      # living_room: three intensity levels, one per component
COMPONENTS = 3
REG_SIZE = 96
REG_RADIUS = 3
REG_SHIFT = (2, -1)  # (dx, dy) of the moving image relative to the fixed one
REG_NOISE = 8.0
REG_PRIOR = 20.0


class CheckFailed(Exception):
    pass


@dataclass
class Input:
    argv: list
    outputs: list            # files whose bytes form the call's digest
    shape: tuple = None      # (h, w) the output label image must have
    files: dict = field(default_factory=dict)


def digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes())
    return h.hexdigest()


def read_trace_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise CheckFailed(f"{path.name}: empty solver trace")
    return rows


# The output checks below recompute energies and local costs from the model's
# arrays with numpy, apart from the solver's code, so that a wrong solver
# kernel cannot pass them by sharing its arithmetic. Sums run in another
# order than the solver's, so comparisons allow for rounding.
RTOL = 1e-9


def close(a, b) -> bool:
    return abs(a - b) <= RTOL * max(1.0, abs(a), abs(b))


def _edge_weights(model):
    h, w, _ = model.data_costs.shape
    wx = np.ones((h, w - 1)) if model.edge_weights_x is None else model.edge_weights_x
    wy = np.ones((h - 1, w)) if model.edge_weights_y is None else model.edge_weights_y
    return wx, wy


def total_energy(model, labels) -> float:
    """Data costs of the labels plus the weighted pairwise prior."""
    wx, wy = _edge_weights(model)
    pair = model.pair_cost
    data = np.take_along_axis(model.data_costs, labels[:, :, None], axis=2).sum()
    prior = ((wx * pair[labels[:, :-1], labels[:, 1:]]).sum()
             + (wy * pair[labels[:-1, :], labels[1:, :]]).sum())
    return float(data + model.prior_weight * prior)


def deviation(model, labels):
    """First (row, col) whose cost, with its neighbours' labels held fixed, is
    strictly lower (beyond rounding) on another label; None if there is none."""
    wx, wy = _edge_weights(model)
    near = model.pair_cost[labels]  # [r, c, l]: pair cost of l against labels[r, c]
    local = model.data_costs.copy()
    k = model.prior_weight
    local[:, 1:] += k * wx[:, :, None] * near[:, :-1]   # left neighbour
    local[:, :-1] += k * wx[:, :, None] * near[:, 1:]   # right neighbour
    local[1:, :] += k * wy[:, :, None] * near[:-1, :]   # upper neighbour
    local[:-1, :] += k * wy[:, :, None] * near[1:, :]   # lower neighbour
    own = np.take_along_axis(local, labels[:, :, None], axis=2)[:, :, 0]
    slack = RTOL * np.maximum(1.0, np.abs(own))
    worse = local.min(axis=2) < own - slack
    if not worse.any():
        return None
    return tuple(int(v) for v in np.argwhere(worse)[0])


class Workload:
    name = ""
    inputs = 1
    metrics = ()  # quality metrics this workload measures

    def make_inputs(self, sg, seed: int, workdir: Path) -> list:
        raise NotImplementedError

    def check(self, sg, inp: Input) -> dict:
        """Verify the outputs on disk; return quality and count figures."""
        raise NotImplementedError


class Experiment(Workload):
    """Criterion-9 accuracy experiment plus feature selection."""

    name = "experiment"
    inputs = 1
    metrics = ("accuracy",)

    def make_inputs(self, sg, seed, workdir):
        cfg = workdir / "experiment.cfg"
        cfg.write_text(
            "sizes = 20\nnoise_levels = 1\nimages_per_class = 200\n"
            "trials = 1\nholdout = 0.2\nepochs = 12\nlearning_rate = 0.05\n"
            f"batch_size = 25\nfeature_select = on\nseed = {seed}\n",
            encoding="utf-8")
        report = workdir / "report.csv"
        sidecar = workdir / "report.csv.features.csv"
        return [Input(argv=["experiment", "--config", str(cfg), "--out", str(report)],
                      outputs=[report, sidecar],
                      files={"report": report, "sidecar": sidecar})]

    def check(self, sg, inp):
        lines = inp.files["report"].read_text(encoding="utf-8").splitlines()
        if not lines or lines[0] != sg.cli.REPORT_HEADER:
            raise CheckFailed("report header differs from cli.REPORT_HEADER")
        if len(lines) != 2 or not ROW_PATTERN.match(lines[1]):
            raise CheckFailed(f"report rows do not match the criterion-9 pattern: {lines[1:]}")
        side = inp.files["sidecar"].read_text(encoding="utf-8").splitlines()
        if len(side) != 2 or side[0] != FEATURE_HEADER:
            raise CheckFailed("feature sidecar is not one header plus one row")
        return {"accuracy": float(lines[1].split(",")[4])}


class _Labeling(Workload):
    """Shared checks of the three labeling-game workloads."""

    metrics = ("energy_drop_per_px", "equilibrium")

    def build_model(self, sg, inp):
        raise NotImplementedError

    def label_count(self):
        raise NotImplementedError

    def quality(self, labels) -> dict:
        """Workload-specific figures computed from the output labels."""
        return {}

    def check(self, sg, inp):
        out = sg.image.read_pnm(inp.files["out"].read_bytes())
        if (out.height, out.width) != inp.shape or out.channels != 1:
            raise CheckFailed(f"output is {out.width}x{out.height}x{out.channels}, "
                              f"input is {inp.shape[1]}x{inp.shape[0]}")
        count = self.label_count()
        scale = 255.0 / (count - 1)
        labels = np.rint(out.plane() / scale).astype(np.int64)
        if np.any(np.rint(labels * scale) != out.plane()) or labels.max() >= count:
            raise CheckFailed("output pixels are not a label image")
        model = self.build_model(sg, inp)
        rows = read_trace_csv(inp.files["trace"])
        energy = total_energy(model, labels)
        if not close(float(rows[-1]["energy"]), energy):
            raise CheckFailed(f"trace energy {rows[-1]['energy']} is not the "
                              f"energy {energy!r} of the written labels")
        site = deviation(model, labels)
        if site is not None:
            raise CheckFailed(f"labels are not an equilibrium: pixel {site} can "
                              "lower its cost alone")
        # Timed for mrf.nash_check_s; the equilibrium figure does not rest on it.
        field_ = sg.image.LabelField(labels=labels, label_count=count)
        started = time.perf_counter()
        ok, witness = sg.mrf.nash_check(model, field_)
        nash_s = time.perf_counter() - started
        if not ok:
            raise CheckFailed(f"mrf.nash_check rejects the labels: {witness}")
        h, w = inp.shape
        # Reference: every pixel on its own best data label, no game played.
        alone = np.argmin(model.data_costs, axis=2)
        return {
            "energy_drop_per_px": (total_energy(model, alone) - energy) / (h * w),
            "equilibrium": 1.0,
            "sweeps": len(rows),
            "changed": sum(int(r["changed"]) for r in rows),
            "sites": h * w,
            "labels": count,
            "nash_check_s": nash_s,
            **self.quality(labels),
        }


class Segment(_Labeling):
    """128x128 scene, GMM data costs, Potts prior, ICM."""

    name = "segment"
    inputs = 4
    size = 128
    solver_args = ("--solver", "icm")

    def label_count(self):
        return COMPONENTS

    def make_inputs(self, sg, seed, workdir):
        made = []
        for i in range(self.inputs):
            scene = sg.image.gen_scene(SCENE_CLASS, self.size, 2, seed * 100 + i)
            src = workdir / f"scene{i}.pgm"
            src.write_bytes(sg.image.write_pnm(scene))
            out, trace = workdir / f"labels{i}.pgm", workdir / f"trace{i}.csv"
            argv = ["segment", "--input", str(src), "--components", str(COMPONENTS),
                    "--prior", "potts", *self.solver_args,
                    "--out", str(out), "--trace", str(trace)]
            made.append(Input(argv=argv, outputs=[out, trace], shape=(self.size, self.size),
                              files={"in": src, "out": out, "trace": trace}))
        return made

    def build_model(self, sg, inp):
        img = sg.image.read_pnm(inp.files["in"].read_bytes())
        data = img.plane().astype(np.float64).ravel() / 255.0
        params, _ = sg.gmm.fit(data, COMPONENTS)
        return sg.mrf.build_segmentation_game(img, params, 1.0, "potts")


class Anneal(Segment):
    """64x64 scene through the annealed Gibbs solver."""

    name = "anneal"
    inputs = 8
    size = 64
    solver_args = ("--solver", "anneal", "--max-sweeps", "60")


class Register(_Labeling):
    """96x96 texture against a shifted, noisy copy; radius 3 (49 labels)."""

    name = "register"
    inputs = 8
    metrics = ("energy_drop_per_px", "equilibrium", "recovery_frac")

    def label_count(self):
        return (2 * REG_RADIUS + 1) ** 2

    def make_inputs(self, sg, seed, workdir):
        made = []
        n = REG_SIZE
        sx, sy = REG_SHIFT
        rows, cols = np.indices((n, n))
        for i in range(self.inputs):
            rng = np.random.default_rng([seed, i])
            base = rng.integers(0, 256, (n, n)).astype(np.uint8)
            shifted = base[np.clip(rows - sy, 0, n - 1), np.clip(cols - sx, 0, n - 1)]
            noisy = shifted + rng.normal(0.0, REG_NOISE, (n, n))
            moving = np.clip(np.rint(noisy), 0, 255).astype(np.uint8)
            fixed_p, moving_p = workdir / f"fixed{i}.pgm", workdir / f"moving{i}.pgm"
            fixed_p.write_bytes(sg.image.write_pnm(sg.image.Image(base)))
            moving_p.write_bytes(sg.image.write_pnm(sg.image.Image(moving)))
            out, trace = workdir / f"disp{i}.pgm", workdir / f"trace{i}.csv"
            argv = ["register", "--fixed", str(fixed_p), "--moving", str(moving_p),
                    "--radius", str(REG_RADIUS), "--prior-weight", str(REG_PRIOR),
                    "--solver", "icm", "--out", str(out), "--trace", str(trace)]
            made.append(Input(argv=argv, outputs=[out, trace], shape=(n, n),
                              files={"fixed": fixed_p, "moving": moving_p,
                                     "out": out, "trace": trace}))
        return made

    def build_model(self, sg, inp):
        fixed = sg.image.read_pnm(inp.files["fixed"].read_bytes())
        moving = sg.image.read_pnm(inp.files["moving"].read_bytes())
        label_set = sg.image.DisplacementLabelSet.dense(REG_RADIUS)
        smooth = sg.mrf.SmoothnessField.identity(fixed.height, fixed.width)
        return sg.mrf.build_registration_game(fixed, moving, label_set, REG_PRIOR, smooth)

    def quality(self, labels):
        # Offsets are (dx, dy) in DisplacementLabelSet.dense order.
        side = 2 * REG_RADIUS + 1
        true_label = (REG_SHIFT[1] + REG_RADIUS) * side + REG_SHIFT[0] + REG_RADIUS
        margin = REG_RADIUS + max(abs(v) for v in REG_SHIFT)
        interior = labels[margin:REG_SIZE - margin, margin:REG_SIZE - margin]
        return {"recovery_frac": float((interior == true_label).mean())}


WORKLOADS = {w.name: w for w in (Experiment(), Segment(), Register(), Anneal())}
