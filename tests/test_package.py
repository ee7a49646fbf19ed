import importlib
import importlib.util
from pathlib import Path

import pytest

import scenegame
import scenegame.cli
from scenegame import net

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"


def load_bench(name):
    """A benchmark module, loaded read-only from bench/."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  BENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    # The benchmark tracer patches these by name from outside the package;
    # a deleted or renamed target would silently drop its spans.
    spans = load_bench("spans")
    for module, attribute, _ in spans.FUNCTIONS:
        target = importlib.import_module(f"scenegame.{module}")
        assert callable(getattr(target, attribute, None)), (module, attribute)
    for cls, method, _ in spans.METHODS:
        assert callable(getattr(getattr(net, cls, None), method, None)), (
            cls, method)


@pytest.mark.parametrize("workload", ["segment", "register", "anneal"])
def test_benchmark_workload_checks_pass_on_one_input(tmp_path, workload):
    """The benchmark's inputs and output checks read the program by name
    (Image.channels and plane(), DisplacementLabelSet.dense, the builders'
    arguments); a deleted or changed name fails the check here first."""
    workloads = load_bench("workloads")
    wl = workloads.WORKLOADS[workload]
    inp = wl.make_inputs(scenegame, 2026, tmp_path)[0]
    assert scenegame.cli.main(inp.argv) == 0
    figures = wl.check(scenegame, inp)
    assert figures["equilibrium"] == 1.0


def test_traced_train_counts_the_rows_mining_returned(tmp_path, monkeypatch):
    """The benchmark's counters read what the program returns: a change of
    return type would leave the names resolving and the counts wrong."""
    rows = []
    real_mine = net.mine_triplets

    def mine(*args, **kwargs):
        result = real_mine(*args, **kwargs)
        rows.append(result.shape[0])
        return result

    monkeypatch.setattr(net, "mine_triplets", mine)
    tracer = load_bench("spans").Tracer(scenegame)
    tracer.install()
    try:
        assert scenegame.cli.main([
            "train", "--size", "16", "--images-per-class", "3", "--epochs", "2",
            "--batch-size", "5", "--out", str(tmp_path / "model.bin")]) == 0
    finally:
        tracer.uninstall()
    counted = [s[6]["triplets"] for s in tracer.spans if s[3] == "net.mine_triplets"]
    assert counted == rows and sum(rows) > 0
    assert "net.loss" in {s[3] for s in tracer.spans}


def test_traced_experiment_records_the_feature_stage(tmp_path):
    """The feature stage runs through the three names the benchmark traces:
    one descriptor call per experiment cell, then selection and weights."""
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("sizes = 12\nimages_per_class = 3\nepochs = 1\n"
                   "feature_select = on\n")
    tracer = load_bench("spans").Tracer(scenegame)
    tracer.install()
    try:
        assert scenegame.cli.main([
            "experiment", "--config", str(cfg),
            "--out", str(tmp_path / "report.csv")]) == 0
    finally:
        tracer.uninstall()
    buckets = [s[3] for s in tracer.spans]
    assert buckets.count("features.extract") == 1  # one cell
    assert buckets.count("features.select") >= 1
    assert buckets.count("features.weights") >= 1
