import argparse
import inspect
import logging
import math
import os
import re
import shlex
import statistics
import struct
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from scenegame.cli import (
    ACTION_TABLE,
    CliError,
    ExperimentConfig,
    REPORT_HEADER,
    _cell_dataset,
    _image_seed,
    build_parser,
    gmm_to_text,
    keyframe_indices,
    label_to_action,
    main,
    parse_config,
    run_experiment,
)
from scenegame import cli, features, gmm, mrf, net, preprocess
from scenegame.gmm import GmmParams
from scenegame.image import (DisplacementLabelSet, Image, LabelField, gen_scene,
                             gen_scenes, read_pnm, scene_template, write_pnm)


# ---------------------------------------------------------------------------
# keyframes
# ---------------------------------------------------------------------------

def test_keyframes_twenty_fps_three_seconds():
    assert keyframe_indices(20, 3, 200) == [0, 60, 120, 180]


def test_keyframes_empty_stream():
    assert keyframe_indices(20.0, 3.0, 0) == []


def test_keyframes_unit_stride():
    assert keyframe_indices(1, 1, 3) == [0, 1, 2]


def test_keyframe_policy_validation():
    with pytest.raises(ValueError):
        keyframe_indices(0, 3.0, 10)
    with pytest.raises(ValueError):
        keyframe_indices(20.0, -1, 10)
    with pytest.raises(ValueError):
        keyframe_indices(20.0, 3.0, -1)
    for fps, interval_s in ((math.nan, 3.0), (math.inf, 3.0), (20.0, math.nan),
                            (1e200, 1e200)):
        with pytest.raises(ValueError, match="fps, interval_s and their product"):
            keyframe_indices(fps, interval_s, 10)


# ---------------------------------------------------------------------------
# label -> action
# ---------------------------------------------------------------------------

def test_action_lookup():
    assert label_to_action(0) == ACTION_TABLE[0]
    actions = [label_to_action(c) for c in range(5)]
    assert len(set(actions)) == 5


def test_action_out_of_range():
    with pytest.raises(ValueError):
        label_to_action(7)
    with pytest.raises(ValueError):
        label_to_action(-1)


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_parse_config_basic():
    text = "# comment\nsizes = 20,30\n\nseed = 5\n"
    assert parse_config(text) == {"sizes": "20,30", "seed": "5"}


def test_parse_config_rejects_bad_lines():
    with pytest.raises(CliError):
        parse_config("not a pair\n")


def test_experiment_config_unknown_key_fatal():
    with pytest.raises(CliError, match="unknown config keys"):
        ExperimentConfig.from_mapping({"sizes": "20", "bogus": "1"})


# The key table that ExperimentConfig.from_mapping read before it parsed each
# value by its field's declared type; kept verbatim as the exact reference.
def _parse_int_list(value: str):
    return tuple(int(v) for v in value.split(",") if v.strip())


def _parse_bool(value: str) -> bool:
    low = value.lower()
    if low in ("on", "true", "yes", "1"):
        return True
    if low in ("off", "false", "no", "0"):
        return False
    raise CliError(f"expected on/off, got {value!r}")


REFERENCE_PARSERS = {
    "sizes": _parse_int_list,
    "noise_levels": _parse_int_list,
    "images_per_class": int,
    "trials": int,
    "holdout": float,
    "epochs": int,
    "learning_rate": float,
    "batch_size": int,
    "margin": float,
    "triplet_weight": float,
    "ce_weight": float,
    "feature_select": _parse_bool,
    "theta": float,
    "seed": int,
}


def readme_config_block():
    """(key, value) pairs of the README's `Keys and defaults` block, read as
    the config file it shows."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text(encoding="utf-8")
    block = text.split("Keys and defaults:\n\n```\n", 1)[1].split("```", 1)[0]
    return list(parse_config(block).items())


def test_readme_lists_every_config_key_with_its_default():
    def shown(value):
        if isinstance(value, bool):
            return "on" if value else "off"
        if isinstance(value, tuple):
            return ",".join(map(str, value))
        return str(value)

    assert readme_config_block() == [
        (f.name, shown(f.default)) for f in fields(ExperimentConfig)]


def test_readme_config_block_parses_to_the_defaults():
    mapping = dict(readme_config_block())
    assert ExperimentConfig.from_mapping(mapping) == ExperimentConfig()


EDGE_VALUES = ("1,,2", "ON", "0", "off", "3", "2.5", "-1", "nan", "inf", "x", "")


@pytest.mark.parametrize("key", list(REFERENCE_PARSERS))
def test_experiment_config_parses_each_key_as_the_reference_table(key):
    readme = dict(readme_config_block())
    for value in (readme[key], *EDGE_VALUES):
        try:
            parsed = REFERENCE_PARSERS[key](value)
        except ValueError:
            with pytest.raises(CliError, match=f"^{key}: "):
                ExperimentConfig.from_mapping({key: value})
            continue
        try:
            want = ExperimentConfig(**{key: parsed})
        except ValueError as exc:
            with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                ExperimentConfig.from_mapping({key: value})
            continue
        got = ExperimentConfig.from_mapping({key: value})
        assert got == want
        assert type(getattr(got, key)) is type(parsed)


def test_experiment_config_names_the_key_of_a_bad_value():
    with pytest.raises(CliError, match=r"^sizes: invalid literal for int\(\)"):
        ExperimentConfig.from_mapping({"sizes": "20,x"})
    with pytest.raises(CliError, match="^feature_select: expected on/off, got 'maybe'$"):
        ExperimentConfig.from_mapping({"feature_select": "maybe"})
    with pytest.raises(CliError, match="^holdout: could not convert"):
        ExperimentConfig.from_mapping({"holdout": "half"})


def test_experiment_config_validation():
    with pytest.raises(CliError):
        ExperimentConfig(sizes=(4,))
    with pytest.raises(CliError, match="too small"):
        ExperimentConfig(sizes=(20, 9))
    with pytest.raises(CliError):
        ExperimentConfig(sizes=())
    assert ExperimentConfig(sizes=(10,)).sizes == (10,)
    with pytest.raises(CliError):
        ExperimentConfig(noise_levels=(0,))
    with pytest.raises(CliError):
        ExperimentConfig(holdout=1.5)


def gmm_from_text(text: str) -> GmmParams:
    """Parse the mixture parameters that gmm-fit writes."""
    mapping = parse_config(text)
    try:
        weights = [float(v) for v in mapping["weights"].split(",")]
        means = [float(v) for v in mapping["means"].split(",")]
        variances = [float(v) for v in mapping["variances"].split(",")]
    except KeyError as exc:
        raise CliError(f"missing mixture key {exc}") from exc
    return GmmParams(weights=np.array(weights), means=np.array(means),
                     variances=np.array(variances))


def test_gmm_text_round_trip():
    params = GmmParams(weights=np.array([0.25, 0.75]),
                       means=np.array([0.1, 0.9]),
                       variances=np.array([0.01, 0.02]))
    again = gmm_from_text(gmm_to_text(params))
    assert np.array_equal(again.weights, params.weights)
    assert np.array_equal(again.means, params.means)
    assert np.array_equal(again.variances, params.variances)


# ---------------------------------------------------------------------------
# run_experiment
# ---------------------------------------------------------------------------

def small_config(**kwargs):
    defaults = dict(sizes=(20,), noise_levels=(1,), images_per_class=6,
                    trials=1, epochs=2, batch_size=6, seed=11)
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


def test_experiment_degenerate_config_rows_well_formed():
    # one image per class still yields an in-bounds accuracy column
    report = run_experiment(small_config(images_per_class=1, epochs=1))
    assert report.failure is None
    assert len(report.rows) == 1
    row = report.rows[0]
    assert 0.0 <= row.accuracy <= 1.0
    assert row.input_size == "20*20"
    assert row.feature_complexity == 1


def test_experiment_deterministic_csv():
    config = small_config()
    a = run_experiment(config).to_csv()
    b = run_experiment(config).to_csv()
    assert a == b


def test_experiment_report_schema():
    report = run_experiment(small_config(noise_levels=(1, 2)))
    csv = report.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == REPORT_HEADER
    assert len(lines) == 3
    for line in lines[1:]:
        level, size, complexity, noise, acc, robust = line.split(",")
        assert level == "1" and size == "20*20" and complexity == "1"
        assert noise in ("1", "2")
        assert 0.0 <= float(acc) <= 1.0
        assert "±" in robust


def test_experiment_game_levels_group_sizes_in_pairs():
    config = small_config(sizes=(20, 30, 40), images_per_class=2, epochs=1)
    report = run_experiment(config)
    levels = {row.input_size: row.game_level for row in report.rows}
    assert levels == {"20*20": 1, "30*30": 1, "40*40": 2}


def test_experiment_feature_sidecar():
    report = run_experiment(small_config(feature_select=True))
    assert len(report.feature_rows) == 1
    csv = report.feature_csv()
    assert csv.startswith("input_size,noise_level,trial,selected,weights,objective")


def fail_network_at_size(monkeypatch, size):
    """A stage failure in the cell of one size: its network cannot be built.
    (A size the network rejects no longer passes ExperimentConfig.)"""
    real = net.default_net

    def default_net(input_size=20, seed=0):
        if input_size == size:
            raise ValueError(f"no network for input size {size}")
        return real(input_size, seed)

    monkeypatch.setattr(net, "default_net", default_net)


def test_experiment_failure_flushes_partial_rows(monkeypatch):
    # the 20x20 cell ran first and must still appear, followed by the
    # failure marker of the 24x24 cell
    config = small_config(sizes=(20, 24), images_per_class=1, epochs=1)
    fail_network_at_size(monkeypatch, 24)
    report = run_experiment(config)
    assert report.failure is not None
    assert len(report.rows) == 1
    assert report.to_csv().strip().endswith(f"# FAILED: {report.failure}")


def test_experiment_failure_logs_traceback_at_debug(caplog, monkeypatch):
    config = small_config(sizes=(20, 24), images_per_class=1, epochs=1)
    fail_network_at_size(monkeypatch, 24)
    with caplog.at_level(logging.DEBUG, logger="scenegame.cli"):
        report = run_experiment(config)
    records = [r for r in caplog.records if r.name == "scenegame.cli"]
    assert len(records) == 1
    assert records[0].levelno == logging.DEBUG
    assert records[0].exc_info[0] is ValueError
    assert report.failure == f"ValueError: {records[0].exc_info[1]}"


def test_experiment_accuracy_at_small_size_and_high_noise():
    """An accuracy figure that a training change can move. Criterion 9
    (20 px, noise 1) reads 1.0000 at every seed tried, so it cannot show a
    regression. Here: 12 px, noise 3, 40 images per class, 12 trials of 40
    held-out scenes each. Over master seeds 1-15 the 12-trial mean accuracy
    measured 0.835 (sd 0.038, range 0.769-0.902); the bound is that mean
    minus three sd, 0.72. The same seeds with triplet weight 1e-6 instead of
    1.0 gave 0.680 (sd 0.059), and 0.719 at this seed."""
    report = run_experiment(ExperimentConfig(
        sizes=(12,), noise_levels=(3,), images_per_class=40, trials=12,
        seed=2026))
    accuracies = [row.accuracy for row in report.rows]
    assert report.failure is None and len(accuracies) == 12
    assert statistics.fmean(accuracies) >= 0.72, accuracies  # 0.8875 measured
    assert min(accuracies) < 1.0, "saturated: this check can no longer move"


# ---------------------------------------------------------------------------
# CLI entry points
# ---------------------------------------------------------------------------

def write_scene(tmp_path, name="scene.pgm", class_id=0, size=20, seed=3):
    img = gen_scene(class_id, size, 1, seed)
    path = tmp_path / name
    path.write_bytes(write_pnm(img))
    return path, img


@pytest.mark.parametrize("method", ["equalize", "haar"])
def test_cli_preprocess_rejects_cutoff_where_it_is_unused(tmp_path, capsys, method):
    src, _ = write_scene(tmp_path)
    out = tmp_path / "out.pgm"
    assert main(["preprocess", "--input", str(src), "--method", method,
                 "--cutoff", "0.5", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ERROR: ") and err.count("\n") == 1
    assert "lowpass" in err and "highpass" in err
    assert not out.exists()


def test_cli_preprocess_cutoff_defaults_to_half(tmp_path):
    src, img = write_scene(tmp_path)
    for method in ("lowpass", "highpass"):
        out = tmp_path / f"{method}.pgm"
        assert main(["preprocess", "--input", str(src), "--method", method,
                     "--out", str(out)]) == 0
        expected = preprocess.dft_enhance(img.pixels, method, 0.5)
        assert out.read_bytes() == write_pnm(Image(expected))


def test_cli_preprocess_equalize(tmp_path):
    src, _ = write_scene(tmp_path)
    out = tmp_path / "out.pgm"
    assert main(["preprocess", "--input", str(src), "--method", "equalize",
                 "--out", str(out)]) == 0
    img = read_pnm(out.read_bytes())
    assert (img.width, img.height) == (20, 20)


def test_cli_missing_file_returns_error(tmp_path, capsys):
    rc = main(["preprocess", "--input", str(tmp_path / "nope.pgm"),
               "--method", "equalize", "--out", str(tmp_path / "o.pgm")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("ERROR: ")
    assert err.strip().count("\n") == 0


def test_cli_missing_file_logs_traceback_at_debug(tmp_path, caplog):
    with caplog.at_level(logging.DEBUG, logger="scenegame.cli"):
        rc = main(["preprocess", "--input", str(tmp_path / "nope.pgm"),
                   "--method", "equalize", "--out", str(tmp_path / "o.pgm")])
    assert rc == 2
    records = [r for r in caplog.records if r.name == "scenegame.cli"]
    assert len(records) == 1
    assert records[0].levelno == logging.DEBUG
    assert records[0].exc_info[0] is FileNotFoundError


@pytest.mark.parametrize("command", [
    ["preprocess", "--input", "{p6}", "--method", "equalize"],
    ["gmm-fit", "--input", "{p6}", "--components", "2"],
    ["segment", "--input", "{p6}", "--components", "2"],
    ["features", "{p6}"],
    ["register", "--fixed", "{p6}", "--moving", "{p5}", "--radius", "1"],
    ["register", "--fixed", "{p5}", "--moving", "{p6}", "--radius", "1"],
])
def test_cli_rejects_a_colour_ppm_as_an_unsupported_magic_number(
        tmp_path, capsys, command):
    p6, p5, out = tmp_path / "rgb.ppm", tmp_path / "gray.pgm", tmp_path / "out"
    p6.write_bytes(b"P6\n16 16\n255\n" + bytes(16 * 16 * 3))
    p5.write_bytes(write_pnm(gen_scene(0, 16, 1, 0)))
    argv = [arg.format(p6=p6, p5=p5) for arg in command] + ["--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == "ERROR: unsupported magic number b'P6'\n"
    assert not out.exists()


def segment_trace(tmp_path, capsys, *extra):
    src, _ = write_scene(tmp_path, class_id=1, size=32)
    trace_path = tmp_path / "trace.csv"
    assert main(["segment", "--input", str(src), "--components", "3",
                 "--out", str(tmp_path / "labels.pgm"),
                 "--trace", str(trace_path), *extra]) == 0
    last = trace_path.read_text().strip().split("\n")[-1].split(",")
    return int(last[2]), capsys.readouterr().err


def test_cli_segment_stopped_before_equilibrium_warns(tmp_path, capsys):
    changed, err = segment_trace(tmp_path, capsys, "--max-sweeps", "1")
    assert changed > 0
    assert err.startswith("WARNING: ")
    assert err.count("\n") == 1
    assert f"changed {changed} labels" in err


def test_cli_segment_at_equilibrium_is_silent(tmp_path, capsys):
    changed, err = segment_trace(tmp_path, capsys)
    assert changed == 0
    assert err == ""


def test_cli_gmm_fit_and_segment(tmp_path):
    src, _ = write_scene(tmp_path, class_id=2)
    params_path = tmp_path / "params.txt"
    assert main(["gmm-fit", "--input", str(src), "--components", "2",
                 "--out", str(params_path)]) == 0
    params = gmm_from_text(params_path.read_text())
    assert params.component_count == 2

    labels_path = tmp_path / "labels.pgm"
    trace_path = tmp_path / "trace.csv"
    assert main(["segment", "--input", str(src), "--components", "2",
                 "--prior-weight", "0.5", "--out", str(labels_path),
                 "--trace", str(trace_path)]) == 0
    labels_img = read_pnm(labels_path.read_bytes())
    assert (labels_img.width, labels_img.height) == (20, 20)
    assert trace_path.read_text().startswith("sweep,energy,changed,temperature")


def test_cli_register(tmp_path):
    rows, cols = np.indices((16, 16))
    base = ((7 * rows + 13 * cols) % 256).astype(np.uint8)
    from scenegame.image import Image

    fixed = tmp_path / "fixed.pgm"
    moving = tmp_path / "moving.pgm"
    fixed.write_bytes(write_pnm(Image(base)))
    moving.write_bytes(write_pnm(Image(base[rows, np.clip(cols - 1, 0, 15)])))
    out = tmp_path / "disp.pgm"
    assert main(["register", "--fixed", str(fixed), "--moving", str(moving),
                 "--radius", "1", "--out", str(out)]) == 0
    assert read_pnm(out.read_bytes()).width == 16


def test_cli_register_starts_icm_from_the_block_game(tmp_path):
    """register starts --solver icm and --solver anneal from mrf.block_start,
    solved with the run's --max-sweeps, and writes each solver's trace of
    its fine sweeps."""
    rng = np.random.default_rng(5)
    rows, cols = np.indices((24, 24))
    base = rng.integers(0, 256, (24, 24)).astype(np.uint8)
    noisy = base[np.clip(rows + 1, 0, 23), np.clip(cols - 2, 0, 23)] \
        + rng.normal(0.0, 8.0, (24, 24))
    moving = np.clip(np.rint(noisy), 0, 255).astype(np.uint8)
    fixed_p, moving_p = tmp_path / "fixed.pgm", tmp_path / "moving.pgm"
    fixed_p.write_bytes(write_pnm(Image(base)))
    moving_p.write_bytes(write_pnm(Image(moving)))
    model = mrf.build_registration_game(
        Image(base), Image(moving), DisplacementLabelSet.dense(3), 20.0,
        mrf.SmoothnessField.identity(24, 24))
    starts = {sweeps: mrf.block_start(model, sweeps) for sweeps in (60, 4)}
    for start in starts.values():
        assert start != mrf.cheapest_start(model)
    runs = (("icm", "60", mrf.solve_icm(model, starts[60], 60)),
            ("anneal", "4", mrf.solve_anneal(model, starts[4], 4, 0)))
    for solver, sweeps, (labels, expected) in runs:
        out, trace = tmp_path / f"{solver}.pgm", tmp_path / f"{solver}.csv"
        assert main(["register", "--fixed", str(fixed_p), "--moving", str(moving_p),
                     "--radius", "3", "--prior-weight", "20", "--solver", solver,
                     "--max-sweeps", sweeps, "--out", str(out),
                     "--trace", str(trace)]) == 0
        assert out.read_bytes() == write_pnm(mrf.labels_to_image(labels)), solver
        assert trace.read_text() == mrf.trace_to_csv(expected), solver


@pytest.mark.parametrize("command", ["segment", "gmm-fit"])
@pytest.mark.parametrize("components", [3, 5])
def test_cli_em_empty_component_names_the_input(tmp_path, capsys, command, components):
    """The noise-free class-1 template has two gray levels: EM empties a
    component, and the one error line gives the data's distinct-value count
    against the component count."""
    src = tmp_path / "template.pgm"
    src.write_bytes(write_pnm(Image(scene_template(1, 16).astype(np.uint8))))
    out = tmp_path / "out"
    assert main([command, "--input", str(src), "--components", str(components),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("ERROR: component ")
    assert err.endswith(f": the data has 2 distinct values for {components} "
                        "components\n")
    assert not out.exists()


def test_cli_segment_rejects_zero_sweeps(tmp_path, capsys, monkeypatch):
    src, _ = write_scene(tmp_path)
    out = tmp_path / "labels.pgm"
    fitted = []
    monkeypatch.setattr("scenegame.gmm.fit", lambda *a, **k: fitted.append(a))
    assert main(["segment", "--input", str(src), "--components", "2",
                 "--max-sweeps", "0", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "ERROR: max_sweeps must be >= 1\n"
    assert not fitted and not out.exists()


def test_cli_gmm_fit_rejects_negative_max_iters(tmp_path, capsys):
    src, _ = write_scene(tmp_path)
    out = tmp_path / "params.txt"
    argv = ["gmm-fit", "--input", str(src), "--components", "2", "--out", str(out)]
    assert main([*argv, "--max-iters", "-4"]) == 2
    assert capsys.readouterr().err == "ERROR: max_iters must be >= 0, got -4\n"
    assert not out.exists()
    assert main([*argv, "--max-iters", "0"]) == 0  # the initial parameters
    assert "iterations = 0" in out.read_text()


def test_em_defaults_are_declared_once():
    """gmm-fit's flags, fit and check_fit all take gmm.EPSILON and
    gmm.MAX_ITERS as their defaults."""
    args = build_parser().parse_args(["gmm-fit", "--input", "in.pgm",
                                      "--components", "2", "--out", "out.txt"])
    assert (args.epsilon, args.max_iters) == (gmm.EPSILON, gmm.MAX_ITERS)
    for function in (gmm.fit, gmm.check_fit):
        parameters = inspect.signature(function).parameters
        assert parameters["epsilon"].default == gmm.EPSILON
        assert parameters["max_iters"].default == gmm.MAX_ITERS
    assert (gmm.EPSILON, gmm.MAX_ITERS) == (1e-8, 200)


@pytest.mark.parametrize("argv, message", [
    (["segment", "--components", "0"], "component_count must be >= 1"),
    (["gmm-fit", "--components", "0"], "component_count must be >= 1"),
    (["gmm-fit", "--components", "2", "--max-iters", "-1"],
     "max_iters must be >= 0, got -1"),
    (["gmm-fit", "--components", "2", "--epsilon", "nan"],
     "epsilon must be finite and >= 0, got nan"),
], ids=["segment-components-0", "gmm-fit-components-0", "gmm-fit-max-iters--1",
        "gmm-fit-epsilon-nan"])
def test_cli_checks_the_em_settings_before_reading_the_input(
        tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    assert main([*argv, "--input", str(tmp_path / "missing.pgm"),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"ERROR: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["preprocess", "--method", "lowpass", "--cutoff", "2", "--input", "MISSING"],
     "cutoff must be in (0, 1], got 2.0"),
    (["preprocess", "--method", "highpass", "--cutoff", "0", "--input", "MISSING"],
     "cutoff must be in (0, 1], got 0.0"),
    (["features", "MISSING", "MISSING", "MISSING", "--select", "nan"],
     "threshold must be finite, got nan"),
    (["features", "MISSING", "MISSING", "--select", "0.9"],
     "need a samples-by-features matrix with at least 3 samples"),
], ids=["lowpass-cutoff-2", "highpass-cutoff-0", "select-nan", "select-two-inputs"])
def test_cli_checks_cutoff_and_select_before_reading_any_input(
        tmp_path, capsys, argv, message):
    missing, out = str(tmp_path / "missing.pgm"), tmp_path / "out"
    argv = [missing if arg == "MISSING" else arg for arg in argv]
    assert main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"ERROR: {message}\n"
    assert not out.exists()


def test_cli_register_rejects_zero_sweeps(tmp_path, capsys, monkeypatch):
    src, _ = write_scene(tmp_path)
    out = tmp_path / "disp.pgm"
    read = []
    monkeypatch.setattr("scenegame.cli.read_pnm", lambda *a: read.append(a))
    assert main(["register", "--fixed", str(src), "--moving", str(src),
                 "--max-sweeps", "0", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "ERROR: max_sweeps must be >= 1\n"
    assert not read and not out.exists()


@pytest.mark.parametrize("command", ["segment", "register"])
@pytest.mark.parametrize("weight", ["-1", "nan", "inf"])
def test_cli_rejects_a_bad_prior_weight_before_reading_input(
        tmp_path, capsys, monkeypatch, command, weight):
    src, _ = write_scene(tmp_path)
    out, trace = tmp_path / "out.pgm", tmp_path / "trace.csv"
    read = []
    monkeypatch.setattr("scenegame.cli.read_pnm", lambda *a: read.append(a))
    inputs = (["--input", str(src), "--components", "2"] if command == "segment"
              else ["--fixed", str(src), "--moving", str(src)])
    assert main([command, *inputs, "--prior-weight", weight, "--out", str(out),
                 "--trace", str(trace)]) == 2
    assert capsys.readouterr().err == "ERROR: prior_weight must be finite and >= 0\n"
    assert not read and not out.exists() and not trace.exists()


def test_cli_features(tmp_path, capsys):
    src1, _ = write_scene(tmp_path, "a.pgm", class_id=0)
    src2, _ = write_scene(tmp_path, "b.pgm", class_id=4)
    out = tmp_path / "features.csv"
    assert main(["features", str(src1), str(src2), "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 3
    assert lines[0].startswith("b00_mean,")


def test_cli_features_select_needs_three_inputs_and_writes_nothing_otherwise(
        tmp_path, capsys):
    paths = [str(write_scene(tmp_path, f"{k}.pgm", class_id=k)[0]) for k in range(3)]
    out = tmp_path / "features.csv"
    assert main(["features", *paths[:2], "--out", str(out), "--select", "0.9"]) == 2
    assert "at least 3 samples" in capsys.readouterr().err
    assert not out.exists()
    assert main(["features", *paths, "--out", str(out), "--select", "0.9"]) == 0
    assert capsys.readouterr().out.startswith("selected = ")
    assert len(out.read_text().strip().split("\n")) == 4


def test_cli_features_select_needs_out_and_reads_nothing_otherwise(
        tmp_path, capsys, monkeypatch):
    paths = [str(write_scene(tmp_path, f"{k}.pgm", class_id=k, size=16)[0])
             for k in range(3)]
    read = []
    monkeypatch.setattr("scenegame.cli.read_pnm", lambda *a: read.append(a))
    assert main(["features", *paths, "--select", "0.9"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("ERROR: ") and captured.err.count("\n") == 1
    assert "--out" in captured.err
    assert not read


def test_cli_features_writes_each_inputs_own_row_across_sizes(tmp_path):
    # One descriptor call per input: a 16 px and a 20 px scene in one run.
    src1, img1 = write_scene(tmp_path, "a.pgm", class_id=0, size=16)
    src2, img2 = write_scene(tmp_path, "b.pgm", class_id=2, size=20)
    out = tmp_path / "features.csv"
    assert main(["features", str(src1), str(src2), "--out", str(out)]) == 0
    header, *rows = out.read_text().strip().split("\n")
    assert header.split(",") == list(features.feature_names())
    assert len(rows) == 2
    for row, img in zip(rows, (img1, img2)):
        expected = features.extract_features(img.pixels[None])[0]
        assert row.split(",") == [repr(float(v)) for v in expected]


def test_cli_register_rejects_more_labels_than_a_label_image_holds(
        tmp_path, capsys, monkeypatch):
    src, _ = write_scene(tmp_path, size=16)
    out, trace = tmp_path / "disp.pgm", tmp_path / "trace.csv"
    argv = ["register", "--fixed", str(src), "--moving", str(src),
            "--out", str(out), "--trace", str(trace)]
    read = []
    real_read = read_pnm
    monkeypatch.setattr("scenegame.cli.read_pnm",
                        lambda data: read.append(1) or real_read(data))
    assert main([*argv, "--radius", "8"]) == 2  # 17 x 17 = 289 labels
    err = capsys.readouterr().err
    assert err.startswith("ERROR: 289 labels ") and err.count("\n") == 1
    assert not read and not out.exists() and not trace.exists()

    written = []  # --radius 7: 225 labels, each on its own gray level
    real_to_image = mrf.labels_to_image
    monkeypatch.setattr(mrf, "labels_to_image",
                        lambda labels: written.append(labels) or real_to_image(labels))
    assert main([*argv, "--radius", "7"]) == 0
    labels = written[0]
    assert labels.label_count == 225
    scale = 255.0 / 224
    decoded = np.rint(read_pnm(out.read_bytes()).plane() / scale).astype(np.int64)
    assert np.array_equal(decoded, labels.labels)


def test_cli_segment_rejects_more_labels_than_a_label_image_holds(
        tmp_path, capsys, monkeypatch):
    src, _ = write_scene(tmp_path)
    out = tmp_path / "labels.pgm"
    fitted = []
    monkeypatch.setattr("scenegame.gmm.fit", lambda *a, **k: fitted.append(a))
    assert main(["segment", "--input", str(src), "--components", "257",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("ERROR: 257 labels ")
    assert not fitted and not out.exists()


def test_scenes_reach_the_classifier_as_arrays(tmp_path, monkeypatch):
    """experiment, train (with and without --crop) and eval pass their scenes
    from generation to the network as uint8 stacks: no Image is built."""
    built = []
    real_init = Image.__init__

    def counting_init(self, pixels):
        built.append(np.shape(pixels))
        real_init(self, pixels)

    monkeypatch.setattr(Image, "__init__", counting_init)
    config = tmp_path / "exp.cfg"
    config.write_text("sizes = 12\nnoise_levels = 2\nimages_per_class = 4\n"
                      "epochs = 1\nfeature_select = on\n", encoding="utf-8")
    model, cropped = tmp_path / "model.bin", tmp_path / "cropped.bin"
    scenes = ["--size", "12", "--images-per-class", "3"]
    for argv in (["experiment", "--config", str(config),
                  "--out", str(tmp_path / "report.csv")],
                 ["train", *scenes, "--epochs", "1", "--out", str(model)],
                 ["train", *scenes, "--epochs", "1", "--crop", "10",
                  "--out", str(cropped)],
                 ["eval", "--model", str(model), *scenes],
                 ["eval", "--model", str(cropped), *scenes, "--crop", "10"]):
        assert main(argv) == 0, argv
    assert built == []
    Image(np.zeros((2, 3), dtype=np.uint8))  # the counter itself counts
    assert built == [(2, 3)]


def test_cli_train_eval(tmp_path, capsys):
    model = tmp_path / "model.bin"
    assert main(["train", "--size", "16", "--images-per-class", "4",
                 "--epochs", "2", "--out", str(model), "--seed", "5"]) == 0
    assert model.exists()
    assert main(["eval", "--model", str(model), "--size", "16",
                 "--images-per-class", "2", "--seed", "9"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("accuracy = ")


def reference_cell_dataset(seed, images_per_class, size, noise, trial=0):
    """_cell_dataset as it was before the class-batched draw, on planes: one
    gen_scene and one equalize per image (test_image and test_preprocess
    hold those to their own verbatim old forms), stacked at the end."""
    images, labels = [], []
    for class_id in range(net.CLASS_COUNT):
        for i in range(images_per_class):
            img = gen_scene(class_id, size, noise, _image_seed(seed, trial, i))
            images.append(preprocess.equalize(img.pixels))
            labels.append(class_id)
    return np.stack(images), labels


@pytest.mark.parametrize("args", [(2026, 200, 20, 1, 0), (4747, 7, 8, 3, 1),
                                  (5, 1, 32, 2, 0), (9, 13, 17, 2, 1)])
def test_cell_dataset_is_the_per_image_loop(args):
    images, labels = _cell_dataset(*args)
    expected_images, expected_labels = reference_cell_dataset(*args)
    assert labels.tolist() == expected_labels
    assert images.dtype == np.uint8 and images.shape == expected_images.shape
    assert images.tobytes() == expected_images.tobytes()


def test_cli_train_flags_set_the_matching_train_config_fields(tmp_path):
    """Every flag train shares with TrainConfig, at a non-default value, gives
    the checkpoint of net.train under the TrainConfig of the same values; the
    swapped loss weights give another."""
    model = tmp_path / "cli.bin"
    assert main(["train", "--size", "16", "--images-per-class", "4",
                 "--epochs", "3", "--learning-rate", "0.03", "--batch-size", "7",
                 "--margin", "0.3", "--triplet-weight", "0.7", "--ce-weight", "1.3",
                 "--crop", "14", "--seed", "5", "--out", str(model)]) == 0
    images, labels = _cell_dataset(5, 4, 16, 1)  # the scenes train draws
    # the five 14 x 14 crops of each scene, in scene order
    images = np.concatenate([net.augment(plane, 14) for plane in images])
    labels = labels.repeat(5)

    def checkpoint(triplet_weight, ce_weight):
        config = net.TrainConfig(epochs=3, learning_rate=0.03, batch_size=7,
                                 margin=0.3, triplet_weight=triplet_weight,
                                 ce_weight=ce_weight, seed=5)
        network = net.default_net(input_size=14, seed=5)
        net.train(network, images, labels, config)
        path = tmp_path / f"direct-{triplet_weight}.bin"
        net.save_net(network, path)
        return path.read_bytes()

    assert model.read_bytes() == checkpoint(0.7, 1.3)
    assert model.read_bytes() != checkpoint(1.3, 0.7)


def readme_cli_examples():
    """The `scenegame ...` commands of the README's CLI block, continuation
    lines joined, as argument lists."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text(encoding="utf-8")
    block = text.split("## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:]
            for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("scenegame ")]


def test_readme_cli_examples_parse():
    examples = readme_cli_examples()
    assert len(examples) == 13
    parser = build_parser()
    for argv in examples:
        assert parser.parse_args(argv).command == argv[0]


def test_cli_eval_scores_scenes_train_never_saw(tmp_path, capsys, monkeypatch):
    seen = {"train": [], "eval": []}
    real_train, real_predict = net.train, net.predict

    def train(network, images, *rest):
        seen["train"].extend(images)
        return real_train(network, images, *rest)

    def predict(network, images):
        seen["eval"].extend(images)
        return real_predict(network, images)

    monkeypatch.setattr(net, "train", train)
    monkeypatch.setattr(net, "predict", predict)
    model = tmp_path / "model.bin"
    assert main(["train", "--size", "16", "--images-per-class", "6",
                 "--epochs", "1", "--out", str(model), "--seed", "4"]) == 0
    assert main(["eval", "--model", str(model), "--size", "16",
                 "--images-per-class", "3", "--seed", "4"]) == 0
    assert len(seen["train"]) == 30 and len(seen["eval"]) == 15
    trained = {plane.tobytes() for plane in seen["train"]}
    assert not any(plane.tobytes() in trained for plane in seen["eval"])


def test_cli_eval_scores_a_model_without_dense_layers(tmp_path, capsys):
    """A lone 12x12 convolution at --size 12 gives (1, 1, 1, 5) scores; eval
    scores each scene by the argmax of those five values."""
    conv = net.Conv2D(12, 12, 1, 5)
    conv.weights[:] = np.random.default_rng(4).normal(size=conv.weights.shape)
    network = net.Network([conv])
    model = tmp_path / "model.bin"
    net.save_net(network, model)
    images, labels = cli._cell_dataset(4, 6, 12, 2, trial=1)
    hits = sum(int(np.argmax(network.forward(net._image_batch(plane[None]))[1])) == lbl
               for plane, lbl in zip(images, labels))
    assert hits > 0
    assert main(["eval", "--model", str(model), "--size", "12", "--noise", "2",
                 "--images-per-class", "6", "--seed", "4"]) == 0
    assert capsys.readouterr().out == f"accuracy = {hits / len(images):.4f}\n"


def test_cli_eval_crop_scores_an_augmented_model(tmp_path, capsys):
    model = tmp_path / "model.bin"
    assert main(["train", "--size", "16", "--images-per-class", "2",
                 "--epochs", "1", "--crop", "12",
                 "--out", str(model)]) == 0
    capsys.readouterr()
    assert main(["eval", "--model", str(model), "--size", "16", "--crop", "12",
                 "--images-per-class", "2"]) == 0
    assert capsys.readouterr().out.startswith("accuracy = ")
    assert main(["eval", "--model", str(model), "--size", "16",
                 "--images-per-class", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ERROR: model does not accept 16x16 inputs")
    assert "--crop" in err


def test_cli_eval_names_a_crop_the_cropped_model_accepts(tmp_path, capsys):
    model = tmp_path / "model.bin"
    assert main(["train", "--size", "16", "--images-per-class", "2",
                 "--epochs", "1", "--crop", "12", "--out", str(model)]) == 0
    capsys.readouterr()
    assert main(["eval", "--model", str(model), "--size", "16",
                 "--images-per-class", "2"]) == 2
    # 15 and 14 leave a 2x2 map for a dense layer sized for 1x1; 13 does not
    assert capsys.readouterr().err == (
        "ERROR: model does not accept 16x16 inputs (dense expects (N,16), "
        "got (1, 64)); it accepts 13x13 inputs: use --crop 13\n")
    assert main(["eval", "--model", str(model), "--size", "16", "--crop", "13",
                 "--images-per-class", "2"]) == 0
    assert capsys.readouterr().out.startswith("accuracy = ")


def test_cli_eval_finds_the_crop_hint_from_layer_shapes(tmp_path, capsys, monkeypatch):
    model = tmp_path / "model.bin"
    net.save_net(net.default_net(20), model)

    def forward(self, x):
        raise AssertionError("eval ran the network")

    monkeypatch.setattr(net.Network, "forward", forward)
    assert main(["eval", "--model", str(model), "--size", "400",
                 "--images-per-class", "1"]) == 2
    # 400 -> conv 398 -> pool 199 -> conv 197 -> pool 98: 98 * 98 * 16 values
    assert capsys.readouterr().err == (
        "ERROR: model does not accept 400x400 inputs (dense expects (N,144), "
        "got (1, 153664)); it accepts 21x21 inputs: use --crop 21\n")


@pytest.mark.parametrize("layers, reason", [
    ([net.Conv2D(3, 3, 2, 4)], "conv expects (N,H,W,2), got (1, 12, 12, 1)"),
    ([net.Dense(7, 5)], "dense expects (N,7), got (1, 12, 12, 1)"),
], ids=["conv-cin-2", "lone-dense"])
def test_cli_eval_gives_no_crop_hint_when_no_side_fits(
        tmp_path, capsys, monkeypatch, layers, reason):
    model = tmp_path / "model.bin"
    net.save_net(net.Network(layers), model)
    drawn = []
    monkeypatch.setattr("scenegame.cli.gen_scenes", lambda *a: drawn.append(a))
    assert main(["eval", "--model", str(model), "--size", "12",
                 "--images-per-class", "1"]) == 2
    assert capsys.readouterr().err == (
        f"ERROR: model does not accept 12x12 inputs ({reason})\n")
    assert not drawn


@pytest.mark.parametrize("layers, message", [
    ((), "checkpoint has no layers"),
    ((struct.pack("<B2I", 2, 0, 2),),
     "checkpoint layer 0 (MaxPool2D) has window = 0; it must be >= 1"),
    ((struct.pack("<B2I", 2, 2, 0),),
     "checkpoint layer 0 (MaxPool2D) has stride = 0; it must be >= 1"),
    ((struct.pack("<B", 4),),
     "model gives 144 scores per input; eval needs one per class (5)"),
], ids=["empty", "pool-window-0", "pool-stride-0", "relu-only"])
def test_cli_eval_rejects_a_checkpoint_that_cannot_score_the_classes(
        tmp_path, capsys, monkeypatch, layers, message):
    model = tmp_path / "model.bin"
    model.write_bytes(net.CHECKPOINT_MAGIC + struct.pack("<I", len(layers))
                      + b"".join(layers))
    drawn = []
    monkeypatch.setattr("scenegame.cli.gen_scenes", lambda *a: drawn.append(a))
    assert main(["eval", "--model", str(model), "--size", "12",
                 "--images-per-class", "1"]) == 2
    assert capsys.readouterr().err == f"ERROR: {message}\n"
    assert not drawn


def test_cli_experiment_with_config(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "sizes = 20\nnoise_levels = 1\nimages_per_class = 4\n"
        "trials = 1\nepochs = 1\nbatch_size = 5\nseed = 3\n"
    )
    out = tmp_path / "report.csv"
    assert main(["experiment", "--config", str(cfg), "--out", str(out)]) == 0
    text = out.read_text()
    assert text.startswith(REPORT_HEADER)


def test_cli_experiment_seed_minus_one_is_seed_2_63_minus_one(tmp_path):
    # Every draw reduces its seed mod 2**63, the experiment's split too: the
    # report and the feature sidecar are the bytes of --seed 2**63 - 1.
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "sizes = 20\nnoise_levels = 1\nimages_per_class = 4\n"
        "trials = 1\nepochs = 1\nbatch_size = 5\nfeature_select = on\n"
    )
    written = []
    for seed in ("-1", str(2 ** 63 - 1)):
        out = tmp_path / f"report{seed}.csv"
        assert main(["experiment", "--config", str(cfg), "--seed", seed,
                     "--out", str(out)]) == 0
        written.append((out.read_bytes(),
                        (tmp_path / f"report{seed}.csv.features.csv").read_bytes()))
    assert written[0] == written[1]
    assert b"FAILED" not in written[0][0]


def test_cli_experiment_feature_select_needs_out(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "sizes = 20\nnoise_levels = 1\nimages_per_class = 4\n"
        "trials = 1\nepochs = 1\nbatch_size = 5\nfeature_select = on\nseed = 3\n"
    )
    ran = []
    monkeypatch.setattr("scenegame.cli.run_experiment", ran.append)
    assert main(["experiment", "--config", str(cfg)]) == 2
    assert not ran  # rejected before any work
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("ERROR: ")
    assert "<out>.features.csv" in captured.err and "--out" in captured.err


@pytest.mark.parametrize("bad", [
    "epochs = 0", "batch_size = 0", "learning_rate = -1", "margin = 0",
    "sizes = 8", "train --margin 0", "train --size 16 --crop 20",
    "train --crop 0", "train --size 9", "eval --size 16 --crop 20",
    "eval --crop 0", "eval --images-per-class 0", "eval --images-per-class -3",
    "eval --size 30 --images-per-class 40", "train --noise 0", "eval --noise 4",
    "train --size 12 --images-per-class 0",
])
def test_cli_rejects_bad_training_keys_before_any_work(
        tmp_path, capsys, monkeypatch, bad):
    cfg, out = tmp_path / "exp.cfg", tmp_path / "out"
    if bad.startswith("train"):
        # one scene per class, unless the case sets --images-per-class itself
        per_class = [] if "--images-per-class" in bad else ["--images-per-class", "1"]
        argv = [*bad.split(), *per_class, "--out", str(out)]
    elif bad.startswith("eval"):
        # A loadable model, so that only the flags under test can stop eval.
        model = tmp_path / "model.bin"
        net.save_net(net.default_net(), model)
        argv = ["eval", "--model", str(model), *bad.split()[1:]]
    else:
        cfg.write_text(f"images_per_class = 2\n{bad}\n")
        argv = ["experiment", "--config", str(cfg), "--out", str(out)]
    drawn = []
    monkeypatch.setattr("scenegame.cli.gen_scenes", lambda *a: drawn.append(a))
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("ERROR: ") and err.count("\n") == 1
    assert not drawn and not out.exists()


@pytest.mark.parametrize("bad", [
    "learning_rate = nan", "margin = nan", "triplet_weight = inf", "theta = nan",
    "train --learning-rate nan", "train --triplet-weight nan",
    "train --margin inf", "train --ce-weight inf",
    "segment --prior-weight nan", "segment --prior-weight inf",
    "register --prior-weight nan", "features --select nan",
    "gmm-fit --epsilon nan",
])
def test_cli_rejects_non_finite_settings(tmp_path, capsys, monkeypatch, bad):
    out = tmp_path / "out"
    command, *flags = bad.split()
    if command == "train":
        argv = [command, *flags, "--size", "12", "--images-per-class", "4",
                "--epochs", "2"]
    elif command in ("segment", "gmm-fit"):
        src, _ = write_scene(tmp_path, class_id=1, size=16)
        argv = [command, "--input", str(src), "--components", "2", *flags]
    elif command == "register":
        src, _ = write_scene(tmp_path, size=16)
        argv = [command, "--fixed", str(src), "--moving", str(src), *flags]
    elif command == "features":
        paths = [str(write_scene(tmp_path, f"{k}.pgm", class_id=k)[0])
                 for k in range(3)]
        argv = [command, *paths, *flags]
    else:
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("sizes = 12\nimages_per_class = 4\nepochs = 2\n"
                       f"feature_select = on\n{bad}\n")
        argv = ["experiment", "--config", str(cfg)]
    drawn = []
    monkeypatch.setattr("scenegame.cli.gen_scenes",
                        lambda *a: drawn.append(a) or gen_scenes(*a))
    assert main([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("ERROR: ") and captured.err.count("\n") == 1
    assert "finite" in captured.err
    assert not drawn
    assert {p.suffix for p in tmp_path.iterdir()} <= {".pgm", ".cfg"}  # inputs only


def test_cli_experiment_repeated_key_exits_2_and_writes_no_report(
        tmp_path, capsys, monkeypatch):
    cfg, out = tmp_path / "exp.cfg", tmp_path / "r.csv"
    cfg.write_text("sizes = 12\nimages_per_class = 2\nepochs = 1\nsizes = 14\n")
    ran = []
    monkeypatch.setattr("scenegame.cli.run_experiment", ran.append)
    assert main(["experiment", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "ERROR: config key 'sizes' is repeated on lines 1 and 4\n"
    assert not ran and not out.exists()


@pytest.mark.parametrize("line, message", [
    ("sizes = 12,14,12", "sizes repeats 12; give each value once"),
    ("noise_levels = 1,1", "noise_levels repeats 1; give each value once"),
])
def test_cli_experiment_repeated_value_exits_2_before_any_draw(
        tmp_path, capsys, monkeypatch, line, message):
    cfg, out = tmp_path / "exp.cfg", tmp_path / "r.csv"
    cfg.write_text(f"images_per_class = 2\nepochs = 1\n{line}\n")
    drawn = []
    monkeypatch.setattr("scenegame.cli.gen_scenes", lambda *a: drawn.append(a))
    assert main(["experiment", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"ERROR: {message}\n"
    assert not drawn and not out.exists()


def test_cli_experiment_unknown_key_exits_nonzero(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("sizes = 20\nwat = 1\n")
    rc = main(["experiment", "--config", str(cfg),
               "--out", str(tmp_path / "r.csv")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("ERROR: ")


def test_every_subcommand_reads_every_flag_it_declares(tmp_path, capsys):
    """README: each subcommand takes only the flags it reads. One run of each
    reads every flag its parser declares; segment and register anneal, since
    register reads --seed under --solver anneal only."""
    scene, _ = write_scene(tmp_path, size=12)
    other, _ = write_scene(tmp_path, "other.pgm", class_id=2, size=12)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("sizes = 12\nimages_per_class = 2\nepochs = 1\n")
    model, out = str(tmp_path / "model.bin"), str(tmp_path / "out")
    runs = [
        ["preprocess", "--input", str(scene), "--method", "equalize", "--out", out],
        ["gmm-fit", "--input", str(scene), "--components", "2", "--out", out],
        ["segment", "--input", str(scene), "--components", "2",
         "--solver", "anneal", "--out", out],
        ["register", "--fixed", str(scene), "--moving", str(other), "--radius", "1",
         "--solver", "anneal", "--out", out],
        ["features", str(scene), str(other), "--out", out],
        ["train", "--size", "12", "--images-per-class", "2", "--epochs", "1",
         "--out", model],
        ["eval", "--model", model, "--size", "12", "--images-per-class", "1"],
        ["experiment", "--config", str(cfg), "--out", out],
        ["keyframes", "--total", "5"],
        ["action", "2"],
    ]
    parser = build_parser()
    commands = next(a.choices for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction))
    assert [argv[0] for argv in runs] == list(commands)
    reads = set()

    class ReadRecorder(argparse.Namespace):
        def __getattribute__(self, name):
            reads.add(name)
            return super().__getattribute__(name)

    for argv in runs:
        args = parser.parse_args(argv, namespace=ReadRecorder())
        declared = set(vars(args)) - {"func", "command"}
        reads.clear()
        assert args.func(args) == 0, argv
        assert declared - reads == set(), argv[0]


@pytest.mark.parametrize("argv", [
    ["segment", "--input", "in.pgm", "--components", "2", "--config", "x.cfg"],
    ["preprocess", "--input", "in.pgm", "--method", "equalize", "--seed", "1"],
    ["keyframes", "--total", "5", "--out", "x.txt"],
    ["action", "2", "--seed", "1"],
    ["gmm-fit", "--input", "in.pgm", "--components", "2", "--seed", "1"],
])
def test_cli_rejects_flags_the_subcommand_ignores(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_main_builds_one_parser_per_process_and_calls_stay_independent(
        tmp_path, capsys, monkeypatch):
    """main builds its parser once per process. Five calls in one process
    (segment annealing with a trace, register, an argv argparse rejects,
    gmm-fit, then segment on every default) each give the exit code, stdout,
    stderr and files that the same call gives alone in a fresh interpreter."""
    scene, _ = write_scene(tmp_path, size=16)
    other, _ = write_scene(tmp_path, "other.pgm", class_id=2, size=16)
    calls = [
        ["segment", "--input", str(scene), "--components", "3", "--solver", "anneal",
         "--max-sweeps", "4", "--seed", "5", "--prior-weight", "2",
         "--trace", "trace.csv", "--out", "annealed.pgm"],
        ["register", "--fixed", str(scene), "--moving", str(other), "--radius", "1",
         "--max-sweeps", "2", "--out", "displacement.pgm"],
        ["segment", "--input", str(scene), "--components", "3", "--solver", "gibbs"],
        ["gmm-fit", "--input", str(scene), "--components", "2"],
        ["segment", "--input", str(scene), "--components", "3"],
    ]
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage to this
    builds = []

    def counting():
        builds.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    together, alone = tmp_path / "together", tmp_path / "alone"
    together.mkdir()
    alone.mkdir()
    monkeypatch.chdir(together)
    results = []
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        results.append((code, *capsys.readouterr()))
    assert builds == [1]
    assert [code for code, _, _ in results] == [0, 0, 2, 0, 0]
    assert "invalid choice: 'gibbs'" in results[2][2]
    assert results[3][1].strip()  # gmm-fit prints its parameters

    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    for argv, result in zip(calls, results):
        run = subprocess.run([sys.executable, "-m", "scenegame.cli", *argv], cwd=alone,
                             env=env, capture_output=True, text=True)
        assert (run.returncode, run.stdout, run.stderr) == result, argv[0]
    written = sorted(path.name for path in together.iterdir())
    assert written == ["annealed.pgm", "displacement.pgm", "labels.pgm", "trace.csv"]
    assert sorted(path.name for path in alone.iterdir()) == written
    for name in written:
        assert (together / name).read_bytes() == (alone / name).read_bytes(), name


@pytest.mark.parametrize("flags", [
    "--fps nan", "--fps inf", "--interval nan", "--interval inf",
    "--fps 1e200 --interval 1e200",
])
def test_cli_keyframes_rejects_non_finite_values(capsys, flags):
    assert main(["keyframes", *flags.split(), "--total", "10"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("ERROR: ") and captured.err.count("\n") == 1
    assert "finite" in captured.err


def test_cli_keyframes(capsys):
    assert main(["keyframes", "--fps", "20", "--interval", "3",
                 "--total", "200"]) == 0
    assert capsys.readouterr().out.strip() == "0,60,120,180"


def test_cli_action(capsys):
    assert main(["action", "2"]) == 0
    assert capsys.readouterr().out.strip() == ACTION_TABLE[2]
    assert main(["action", "9"]) == 2
