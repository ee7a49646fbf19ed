import importlib
import importlib.util
from pathlib import Path

import scenegame
import scenegame.cli
from scenegame import net

SPANS_PATH = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans():
    """The benchmark's tracer module, loaded read-only from bench/."""
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_public_names_and_traced_names_resolve():
    missing = [name for name in scenegame.__all__
               if not hasattr(scenegame, name)]
    assert missing == []

    # The benchmark tracer patches these by name from outside the package;
    # a deleted or renamed target would silently drop its spans.
    spans = load_spans()
    for module, attribute, _ in spans.FUNCTIONS:
        target = importlib.import_module(f"scenegame.{module}")
        assert callable(getattr(target, attribute, None)), (module, attribute)
    for cls, method, _ in spans.METHODS:
        assert callable(getattr(getattr(net, cls, None), method, None)), (
            cls, method)


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
    tracer = load_spans().Tracer(scenegame)
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
    tracer = load_spans().Tracer(scenegame)
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
