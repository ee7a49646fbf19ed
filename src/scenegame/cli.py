"""Command-line orchestration: enhancement, mixture fitting, labeling games,
feature extraction, classifier training, the synthetic accuracy experiment,
and keyframe sampling.

Config files are flat UTF-8 ``key = value`` text; unknown and repeated keys
are fatal.
Reports are CSV with a fixed, versioned column set.
"""

import argparse
import functools
import logging
import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import features as features_mod
from . import gmm as gmm_mod
from . import mrf, net as net_mod, preprocess
# gen_scene stays bound here though no command calls it: bench/spans.py
# patches its tracing wrapper onto this module's name too.
from .image import (NOISE_SIGMA, DisplacementLabelSet, Image,
                    check_noise_level, gen_scene, gen_scenes, read_pnm, seeded_rng,
                    write_pnm)

REPORT_HEADER = "game_level,input_size,feature_complexity,noise_level,accuracy,robustness_error"

# Scene class -> planned robot action (static lookup stub; the classes are
# living_room, bathroom, bedroom, kitchen, action).
ACTION_TABLE = (
    "dock_and_wait",
    "avoid_wet_floor",
    "enter_quiet_mode",
    "assist_in_kitchen",
    "follow_user",
)


class CliError(ValueError):
    pass


def keyframe_indices(fps: float, interval_s: float, total_frames: int) -> list:
    """One keyframe per interval for scene discrimination: frame indices 0,
    stride, 2*stride, ... below total_frames, with stride =
    round(fps * interval_s) (at least 1)."""
    if fps <= 0 or interval_s <= 0:  # NaN passes, and fails below
        raise ValueError("fps and interval_s must be > 0")
    if not math.isfinite(fps * interval_s):
        raise ValueError("fps, interval_s and their product must be finite")
    if total_frames < 0:
        raise ValueError("total_frames must be >= 0")
    stride = max(1, int(math.floor(fps * interval_s + 0.5)))
    return list(range(0, total_frames, stride))


def label_to_action(class_id: int) -> str:
    if not 0 <= class_id < len(ACTION_TABLE):
        raise ValueError(f"class must be in 0..{len(ACTION_TABLE) - 1}, got {class_id}")
    return ACTION_TABLE[class_id]


# ---------------------------------------------------------------------------
# Config file format
# ---------------------------------------------------------------------------

def parse_config(text: str) -> dict:
    """Parse flat ``key = value`` lines; '#' lines and blanks are skipped.
    A key given twice is an error naming both lines."""
    out = {}
    first_line = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CliError(f"config line {lineno} is not 'key = value': {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key in first_line:
            raise CliError(f"config key {key!r} is repeated on lines "
                           f"{first_line[key]} and {lineno}")
        first_line[key] = lineno
        out[key] = value.strip()
    return out


# ExperimentConfig fields and train flags that are TrainConfig fields too.
TRAIN_KEYS = ("epochs", "learning_rate", "batch_size", "margin",
              "triplet_weight", "ce_weight")


def _train_config(source, **extra) -> net_mod.TrainConfig:
    """The TrainConfig of the TRAIN_KEYS attributes of source (an
    ExperimentConfig or train's parsed flags), plus extra fields."""
    return net_mod.TrainConfig(**{key: getattr(source, key) for key in TRAIN_KEYS},
                               **extra)


def _parse_value(kind, value: str):
    """A config value as its field's declared type: a tuple is a
    comma-separated int list, a bool is on/off, an int or float is itself."""
    if kind is tuple:
        return tuple(int(v) for v in value.split(",") if v.strip())
    if kind is bool:
        low = value.lower()
        if low in ("on", "true", "yes", "1"):
            return True
        if low in ("off", "false", "no", "0"):
            return False
        raise CliError(f"expected on/off, got {value!r}")
    return kind(value)


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated parameters of the synthetic accuracy experiment.

    Each field is one config key: its declared type says how the value
    parses (_parse_value), and its default is also the default of `train`'s
    flag of the same name. The TRAIN_KEYS fields take TrainConfig's defaults.
    """

    sizes: tuple = (20,)
    noise_levels: tuple = (1,)
    images_per_class: int = 40
    trials: int = 1
    holdout: float = 0.2
    epochs: int = net_mod.TrainConfig.epochs
    learning_rate: float = net_mod.TrainConfig.learning_rate
    batch_size: int = net_mod.TrainConfig.batch_size
    margin: float = net_mod.TrainConfig.margin
    triplet_weight: float = net_mod.TrainConfig.triplet_weight
    ce_weight: float = net_mod.TrainConfig.ce_weight
    feature_select: bool = False
    theta: float = 0.9
    seed: int = 0

    def __post_init__(self):
        if not self.sizes:
            raise CliError("sizes must be nonempty")
        try:  # each size must fit the default network
            for size in self.sizes:
                net_mod.default_net(size)
        except ValueError as exc:
            raise CliError(f"sizes: {exc}") from exc
        if any(n not in NOISE_SIGMA for n in self.noise_levels) or not self.noise_levels:
            raise CliError("noise_levels must be from 1..3")
        # a repeated value would train and report its cells twice
        for key, values in (("sizes", self.sizes), ("noise_levels", self.noise_levels)):
            repeated = [v for v in values if values.count(v) > 1]
            if repeated:
                raise CliError(f"{key} repeats {repeated[0]}; give each value once")
        if self.images_per_class < 1 or self.trials < 1:
            raise CliError("images_per_class and trials must be >= 1")
        if not 0.0 < self.holdout < 1.0:
            raise CliError("holdout must be in (0, 1)")
        if not math.isfinite(self.theta):
            raise CliError("theta must be finite")
        _train_config(self)  # the trainer's own checks, before any work

    @classmethod
    def from_mapping(cls, mapping: dict) -> "ExperimentConfig":
        types = {f.name: f.type for f in fields(cls)}
        unknown = sorted(set(mapping) - set(types))
        if unknown:
            raise CliError(f"unknown config keys: {', '.join(unknown)}")
        kwargs = {}
        for key, value in mapping.items():
            try:
                kwargs[key] = _parse_value(types[key], value)
            except ValueError as exc:
                raise CliError(f"{key}: {exc}") from exc
        return cls(**kwargs)


# ---------------------------------------------------------------------------
# Experiment harness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReportRow:
    game_level: int
    input_size: str
    feature_complexity: int
    noise_level: int
    accuracy: float
    robustness_error: str


@dataclass(frozen=True)
class ExperimentReport:
    rows: tuple
    feature_rows: tuple = ()
    failure: str = None

    def to_csv(self) -> str:
        lines = [REPORT_HEADER]
        for r in self.rows:
            lines.append(
                f"{r.game_level},{r.input_size},{r.feature_complexity},"
                f"{r.noise_level},{r.accuracy:.4f},{r.robustness_error}"
            )
        if self.failure is not None:
            lines.append(f"# FAILED: {self.failure}")
        return "\n".join(lines) + "\n"

    def feature_csv(self) -> str:
        lines = ["input_size,noise_level,trial,selected,weights,objective"]
        lines.extend(self.feature_rows)
        return "\n".join(lines) + "\n"


def _game_level(size: int, sizes: tuple) -> int:
    ordered = sorted(set(sizes))
    return min(ordered.index(size) // 2 + 1, 5)


def _image_seed(master: int, trial: int, index: int) -> int:
    return master * 1_000_003 + trial * 100_003 + index


def _cell_dataset(seed: int, images_per_class: int, size: int, noise: int,
                  trial: int = 0):
    """Seeded, equalized synthetic set with images_per_class scenes per class,
    drawn and equalized a class at a time; each image is gen_scene's and
    equalize's."""
    seeds = [_image_seed(seed, trial, i) for i in range(images_per_class)]
    images, labels = [], []
    for class_id in range(net_mod.CLASS_COUNT):
        planes = preprocess.equalize_planes(gen_scenes(class_id, size, noise, seeds))
        images.extend(Image(plane) for plane in planes)
        labels.extend([class_id] * images_per_class)
    return images, labels


def _split(images, labels, holdout: float, rng):
    """Seeded stratified split into (train, test).

    A class with a single image keeps it in the training side (training needs
    every class); the caller falls back to scoring on the training set when
    nothing is left to hold out.
    """
    train_idx, test_idx = [], []
    labels_arr = np.asarray(labels)
    for class_id in np.unique(labels_arr):
        members = np.flatnonzero(labels_arr == class_id)
        if members.size == 1:
            train_idx.extend(members)
            continue
        members = members[rng.permutation(members.size)]
        n_test = min(max(1, int(round(members.size * holdout))),
                     members.size - 1)
        test_idx.extend(members[:n_test])
        train_idx.extend(members[n_test:])
    train_idx.sort()
    test_idx.sort()
    pick = lambda idx: ([images[i] for i in idx], [labels[i] for i in idx])
    return pick(train_idx), pick(test_idx)


def _feature_sidecar_row(train_images, config, size, noise, trial):
    matrix = features_mod.extract_features(train_images)
    selected = features_mod.select_features(matrix, config.theta)
    if not selected:
        return f"{size}*{size},{noise},{trial},,,"
    weights, objective = features_mod.optimize_weights(matrix[:, list(selected)])
    w_str = ";".join(f"{v:.4f}" for v in weights)
    s_str = ";".join(map(str, selected))
    return f"{size}*{size},{noise},{trial},{s_str},{w_str},{objective:.4f}"


def _accuracy(network, images, labels) -> float:
    """Fraction of images whose predicted class is their label."""
    classes, _ = net_mod.predict(network, images)
    hits = sum(c == lbl for c, lbl in zip(classes.tolist(), labels))
    return hits / len(images)


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Accuracy grid over (size, noise_level, trial) cells.

    Every cell generates a seeded synthetic 5-class set, equalizes it, trains
    the default classifier, and scores the held-out split. Rows group into
    game levels (two sizes per level); each level's robustness column is the
    mean +- half-range of |accuracy - level mean|. Deterministic at the byte
    level for a fixed master seed. A stage failure flushes the rows finished
    so far with a failure marker.
    """
    cells = []
    feature_rows = []
    failure = None
    try:
        for size in config.sizes:
            for noise in config.noise_levels:
                for trial in range(config.trials):
                    images, labels = _cell_dataset(
                        config.seed, config.images_per_class, size, noise, trial)
                    rng = seeded_rng(config.seed, size, noise, trial, 7)
                    (train_x, train_y), (test_x, test_y) = _split(
                        images, labels, config.holdout, rng)
                    if not test_x:  # single image per class: score on train
                        test_x, test_y = train_x, train_y
                    network = net_mod.default_net(
                        input_size=size,
                        seed=_image_seed(config.seed, trial, size + noise))
                    net_mod.train(network, train_x, train_y, _train_config(
                        config, seed=_image_seed(config.seed, trial, 13 * size + noise)))
                    cells.append((size, noise, trial,
                                  _accuracy(network, test_x, test_y)))
                    if config.feature_select:
                        feature_rows.append(_feature_sidecar_row(
                            train_x, config, size, noise, trial))
    except Exception as exc:  # partial results still get flushed
        logging.getLogger(__name__).debug("experiment failed", exc_info=True)
        failure = f"{type(exc).__name__}: {exc}"

    by_level = {}
    for size, noise, trial, accuracy in cells:
        by_level.setdefault(_game_level(size, config.sizes), []).append(accuracy)
    robustness = {}
    for level, accs in by_level.items():
        mean_acc = sum(accs) / len(accs)
        errs = [abs(a - mean_acc) for a in accs]
        half_range = (max(errs) - min(errs)) / 2.0
        robustness[level] = f"{sum(errs) / len(errs):.2f}±{half_range:.2f}"

    rows = []
    for size, noise, trial, accuracy in sorted(cells, key=lambda c: (c[0], c[1], c[2])):
        level = _game_level(size, config.sizes)
        rows.append(ReportRow(
            game_level=level,
            input_size=f"{size}*{size}",
            feature_complexity=1,
            noise_level=noise,
            accuracy=accuracy,
            robustness_error=robustness[level],
        ))
    return ExperimentReport(rows=tuple(rows), feature_rows=tuple(feature_rows),
                            failure=failure)


# ---------------------------------------------------------------------------
# Mixture parameter serialization: same key = value format as configs
# ---------------------------------------------------------------------------

def gmm_to_text(params: gmm_mod.GmmParams, trace: gmm_mod.EmTrace = None) -> str:
    lines = [
        f"components = {params.component_count}",
        "weights = " + ",".join(repr(float(v)) for v in params.weights),
        "means = " + ",".join(repr(float(v)) for v in params.means),
        "variances = " + ",".join(repr(float(v)) for v in params.variances),
    ]
    if trace is not None:
        lines.append(f"converged = {'on' if trace.converged else 'off'}")
        lines.append(f"iterations = {trace.iterations_used}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _read_image(path) -> Image:
    with open(path, "rb") as fh:
        return read_pnm(fh.read())


def _write_image(img: Image, path):
    with open(path, "wb") as fh:
        fh.write(write_pnm(img))


def _write_text(text: str, path):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_preprocess(args):
    if args.method in ("lowpass", "highpass"):
        cutoff = 0.5 if args.cutoff is None else args.cutoff
        preprocess.check_cutoff(cutoff)
    elif args.cutoff is not None:
        raise CliError(f"--cutoff applies to lowpass and highpass only, not {args.method}")
    img = _read_image(args.input)
    if args.method == "equalize":
        out = preprocess.equalize(img)
    elif args.method == "haar":
        out = preprocess.haar_enhance(img)
    else:
        out = preprocess.dft_enhance(img, args.method, cutoff)
    _write_image(out, args.out)
    return 0


def _cmd_gmm_fit(args):
    gmm_mod.check_fit(args.components, args.epsilon, args.max_iters)
    data = gmm_mod.unit_plane(_read_image(args.input))
    params, trace = gmm_mod.fit(data, args.components, epsilon=args.epsilon,
                                max_iters=args.max_iters)
    _write_text(gmm_to_text(params, trace), args.out)
    return 0


def _play(model, args, init):
    """Run --solver from init and write the labels and, with --trace, the
    sweep CSV of that solve. A run whose last sweep still moved labels
    stopped before equilibrium: it is written anyway, with one warning on
    stderr.

    segment, and register --solver anneal, start every pixel on its cheapest
    data label (mrf.cheapest_start, Besag's pixelwise maximum-likelihood
    start; see README). register --solver icm starts from mrf.block_start,
    the solved game of 2x2 pixel blocks: on eight 96x96 inputs built like
    the benchmark's, ICM from it ended between 0.1% below and 1.4% above the
    equilibrium ICM reaches from the true shift (from the cheapest label:
    9-16% above), and the block solve and the pixel ICM together scored
    about half the kernel rows of the cheapest-label solve. The trace lists
    the pixel ICM's sweeps only."""
    if args.solver == "icm":
        labels, trace = mrf.solve_icm(model, init, args.max_sweeps)
    else:
        labels, trace = mrf.solve_anneal(model, init, args.max_sweeps, args.seed)
    if trace[-1].changed > 0:
        print(f"WARNING: {args.solver} stopped at --max-sweeps {args.max_sweeps} "
              f"before equilibrium: its last sweep changed "
              f"{trace[-1].changed} labels", file=sys.stderr)
    _write_image(mrf.labels_to_image(labels), args.out)
    if args.trace:
        _write_text(mrf.trace_to_csv(trace), args.trace)
    return 0


def _check_game(args, label_count: int):
    """Reject the game settings of segment and register, before any input
    is read."""
    mrf.check_prior_weight(args.prior_weight)
    mrf.check_max_sweeps(args.max_sweeps)
    mrf.check_label_count(label_count)


def _cmd_segment(args):
    _check_game(args, args.components)
    gmm_mod.check_fit(args.components)
    img = _read_image(args.input)
    params, _ = gmm_mod.fit(gmm_mod.unit_plane(img), args.components)
    model = mrf.build_segmentation_game(img, params, args.prior_weight, args.prior)
    return _play(model, args, mrf.cheapest_start(model))


def _cmd_register(args):
    label_set = DisplacementLabelSet.dense(args.radius)
    _check_game(args, len(label_set))
    fixed = _read_image(args.fixed)
    moving = _read_image(args.moving)
    smooth = mrf.SmoothnessField.identity(fixed.height, fixed.width)
    model = mrf.build_registration_game(fixed, moving, label_set,
                                        args.prior_weight, smooth)
    # The block start was measured for ICM only: annealing keeps the
    # cheapest-label start, and with it its outputs.
    if args.solver == "icm":
        return _play(model, args, mrf.block_start(model, args.max_sweeps))
    return _play(model, args, mrf.cheapest_start(model))


def _cmd_features(args):
    if args.select is not None:
        if args.out is None:
            raise CliError("--select prints the selected columns on stdout and "
                           "needs --out for the CSV")
        features_mod.check_select(args.select, len(args.inputs))
    # One call per input: the inputs may differ in size, and one batch may not.
    rows = np.vstack([features_mod.extract_features([_read_image(path)])
                      for path in args.inputs])
    # Select before writing, so a run that cannot select leaves no CSV.
    selected = None
    if args.select is not None:
        selected = features_mod.select_features(rows, args.select)
    _write_text(features_mod.features_to_csv(rows), args.out)
    if selected is not None:
        print(f"selected = {';'.join(map(str, selected))}")
    return 0


def _check_scenes(args) -> int:
    """Reject the scene settings of train and eval, before any work, and
    return the side of the model's inputs: --crop, or --size without it."""
    if args.crop is not None and not 1 <= args.crop <= args.size:
        raise CliError(f"--crop {args.crop} must be between 1 and --size {args.size}")
    check_noise_level(args.noise)
    if args.images_per_class < 1:
        raise CliError("--images-per-class must be >= 1")
    return args.size if args.crop is None else args.crop


def _cmd_train(args):
    # Validate the arguments, and build the network, before any scene is drawn.
    config = _train_config(args, seed=args.seed)
    network = net_mod.default_net(input_size=_check_scenes(args), seed=args.seed)
    images, labels = _cell_dataset(args.seed, args.images_per_class,
                                   args.size, args.noise)
    if args.crop is not None:  # the five crops of each scene, in scene order
        images = [crop for img in images for crop in net_mod.augment(img, args.crop)]
        labels = [lbl for lbl in labels for _ in range(5)]
    _, trace = net_mod.train(network, images, labels, config)
    net_mod.save_net(network, args.out)
    if args.trace:
        lines = ["epoch,loss"] + [f"{i},{v!r}" for i, v in enumerate(trace)]
        _write_text("\n".join(lines) + "\n", args.trace)
    return 0


def _crop_hint(network, size: int) -> str:
    """A hint naming the largest side C < size that the model's layer shapes
    take to one score per class ('; it accepts CxC inputs: use --crop C'), or
    '' when no side does."""
    for side in range(size - 1, 0, -1):
        try:
            shape = network.out_shape((1, side, side, 1))
        except net_mod.ShapeMismatchError:
            continue
        if math.prod(shape[1:]) == net_mod.CLASS_COUNT:
            return f"; it accepts {side}x{side} inputs: use --crop {side}"
    return ""


def _cmd_eval(args):
    side = _check_scenes(args)
    network = net_mod.load_net(args.model)
    # The layer shapes find a model eval cannot score, before any draw.
    try:
        scores = math.prod(network.out_shape((1, side, side, 1))[1:])
    except net_mod.ShapeMismatchError as exc:
        raise CliError(f"model does not accept {side}x{side} inputs ({exc})"
                       + _crop_hint(network, args.size)) from exc
    if scores != net_mod.CLASS_COUNT:
        raise CliError(f"model gives {scores} scores per input; eval needs "
                       f"one per class ({net_mod.CLASS_COUNT})")
    # Trial 1: scenes that train, which draws trial 0, never sees.
    images, labels = _cell_dataset(args.seed, args.images_per_class,
                                   args.size, args.noise, trial=1)
    if args.crop is not None:
        # the centre crop, as train --crop saw it
        images = [net_mod.augment(img, args.crop)[4] for img in images]
    print(f"accuracy = {_accuracy(network, images, labels):.4f}")
    return 0


def _cmd_experiment(args):
    mapping = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            mapping = parse_config(fh.read())
    if args.seed is not None:
        mapping["seed"] = str(args.seed)
    config = ExperimentConfig.from_mapping(mapping)
    if config.feature_select and not args.out:
        raise CliError("feature_select = on writes its sidecar to <out>.features.csv "
                       "and needs --out")
    report = run_experiment(config)
    _write_text(report.to_csv(), args.out)
    if config.feature_select:
        _write_text(report.feature_csv(), args.out + ".features.csv")
    if report.failure is not None:
        print(f"ERROR: experiment failed: {report.failure}", file=sys.stderr)
        return 1
    return 0


def _cmd_keyframes(args):
    indices = keyframe_indices(args.fps, args.interval, args.total)
    print(",".join(str(i) for i in indices))
    return 0


def _cmd_action(args):
    print(label_to_action(args.class_id))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scenegame",
        description="Pixel labeling games, image enhancement, and scene "
                    "classification on synthetic data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    defaults = ExperimentConfig()

    def seed_and_out(p, out_default=None, seed_help=None):
        p.add_argument("--seed", type=int, default=0, help=seed_help)
        p.add_argument("--out", default=out_default)

    def game_flags(p, prior_weight, out_default):  # see _check_game
        p.add_argument("--prior-weight", type=float, default=prior_weight)
        p.add_argument("--solver", choices=["icm", "anneal"], default="icm")
        p.add_argument("--max-sweeps", type=int, default=60)
        p.add_argument("--trace", default=None)
        seed_and_out(p, out_default, "seeds --solver anneal only")

    def scene_flags(p, images_per_class, crop_help):  # see _check_scenes
        p.add_argument("--size", type=int, default=20)
        p.add_argument("--noise", type=int, default=1)
        p.add_argument("--images-per-class", type=int, default=images_per_class)
        p.add_argument("--crop", type=int, default=None, help=crop_help)

    p = sub.add_parser("preprocess", help="enhance one grayscale image")
    p.add_argument("--input", required=True)
    p.add_argument("--method", required=True,
                   choices=["equalize", "lowpass", "highpass", "haar"])
    p.add_argument("--cutoff", type=float, default=None,
                   help="lowpass/highpass only (default 0.5)")
    p.add_argument("--out", default="out.pgm")
    p.set_defaults(func=_cmd_preprocess)

    p = sub.add_parser("gmm-fit", help="fit an intensity mixture to an image")
    p.add_argument("--input", required=True)
    p.add_argument("--components", type=int, required=True)
    p.add_argument("--epsilon", type=float, default=gmm_mod.EPSILON)
    p.add_argument("--max-iters", type=int, default=gmm_mod.MAX_ITERS)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_gmm_fit)

    p = sub.add_parser("segment", help="mixture + labeling game segmentation")
    p.add_argument("--input", required=True)
    p.add_argument("--components", type=int, required=True)
    p.add_argument("--prior", choices=["potts", "quadratic"], default="potts")
    game_flags(p, 1.0, "labels.pgm")
    p.set_defaults(func=_cmd_segment)

    p = sub.add_parser("register", help="discrete displacement registration")
    p.add_argument("--fixed", required=True)
    p.add_argument("--moving", required=True)
    p.add_argument("--radius", type=int, default=2)
    game_flags(p, 0.5, "displacement.pgm")
    p.set_defaults(func=_cmd_register)

    p = sub.add_parser("features", help="block feature extraction to CSV")
    p.add_argument("inputs", nargs="+")
    p.add_argument("--select", type=float, default=None,
                   help="similarity threshold; also prints selected columns")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_features)

    p = sub.add_parser("train", help="train the classifier on synthetic scenes")
    scene_flags(p, defaults.images_per_class,
                "train on the five C x C crops of each scene")
    for key in TRAIN_KEYS:  # dest == key, for _train_config
        value = getattr(defaults, key)
        p.add_argument(f"--{key.replace('_', '-')}", type=type(value), default=value)
    p.add_argument("--trace", default=None)
    seed_and_out(p, out_default="model.bin")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on synthetic scenes")
    p.add_argument("--model", required=True)
    scene_flags(p, 10, "score the centre C x C crop of each scene")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("experiment", help="accuracy grid report (CSV)")
    p.add_argument("--config", default=None)
    seed_and_out(p)
    p.set_defaults(func=_cmd_experiment, seed=None)

    p = sub.add_parser("keyframes", help="keyframe indices for a frame count")
    p.add_argument("--fps", type=float, default=20.0)
    p.add_argument("--interval", type=float, default=3.0)
    p.add_argument("--total", type=int, required=True)
    p.set_defaults(func=_cmd_keyframes)

    p = sub.add_parser("action", help="scene class to planned action")
    p.add_argument("class_id", type=int)
    p.set_defaults(func=_cmd_action)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser's tree, built by a process's first main call and reused
    by every later one: parse_args keeps no state between calls."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        logging.getLogger(__name__).debug("%s failed", args.command, exc_info=True)
        print(f"ERROR: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
