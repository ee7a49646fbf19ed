import importlib
import importlib.util
from pathlib import Path

import scenegame
from scenegame import net

SPANS_PATH = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def test_public_names_and_traced_names_resolve():
    missing = [name for name in scenegame.__all__
               if not hasattr(scenegame, name)]
    assert missing == []

    # The benchmark tracer patches these by name from outside the package;
    # a deleted or renamed target would silently drop its spans.
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module, attribute, _ in spans.FUNCTIONS:
        target = importlib.import_module(f"scenegame.{module}")
        assert callable(getattr(target, attribute, None)), (module, attribute)
    for cls, method, _ in spans.METHODS:
        assert callable(getattr(getattr(net, cls, None), method, None)), (
            cls, method)
