"""Span tracing of scenegame from outside the package.

The tracer replaces the public functions and layer-class methods that the
pipeline calls with thin wrappers that record spans (name, parent, start,
end, counts) in memory. Nothing under ``src/`` changes: ``install`` patches
module attributes, ``uninstall`` puts the originals back, so untraced calls
run the unmodified code.

Every span carries a *bucket*, the per-layer metric its self time is charged
to. Self time is a span's duration minus the durations of its child spans;
code that is not wrapped (``Network.forward``, ``Flatten``, ``LabelField``
construction, ...) counts toward the self time of the nearest wrapped caller.
The root span of each CLI call is ``cli.main``, so the self times of one call
sum to the root's duration.
"""

import functools
import time
import weakref

# (module, attribute, bucket). A module-level function is looked up by its
# callers at call time, so patching the defining module reaches every call
# made through ``module.name`` or through a global inside that module.
FUNCTIONS = (
    ("image", "gen_scene", "image.gen_scene"),
    ("image", "read_pnm", "image.pnm"),
    ("image", "write_pnm", "image.pnm"),
    ("preprocess", "equalize", "preprocess.equalize"),
    ("gmm", "fit", "gmm.fit"),
    ("gmm", "e_step", "gmm.e_step"),
    ("gmm", "m_step", "gmm.m_step"),
    ("gmm", "log_likelihood", "gmm.loglik"),
    ("mrf", "build_segmentation_game", "mrf.build"),
    ("mrf", "build_registration_game", "mrf.build"),
    ("mrf", "solve_icm", "mrf.solve"),
    ("mrf", "solve_anneal", "mrf.solve"),
    ("mrf", "energy_of", "mrf.energy_of"),
    ("features", "extract_features", "features.extract"),
    ("features", "cluster_and_select", "features.select"),
    ("features", "optimize_weights", "features.weights"),
    ("net", "default_net", "net.train"),
    ("net", "train", "net.train"),
    ("net", "mine_triplets", "net.mine_triplets"),
    ("net", "triplet_batch_loss", "net.loss"),
    ("net", "softmax_cross_entropy", "net.loss"),
    ("net", "combined_loss", "net.loss"),
    ("net", "predict", "net.predict"),
    ("cli", "main", "cli"),
)

# ``cli`` binds these with ``from .image import ...``; its copies of the
# names must point at the same wrappers as the defining module.
CLI_IMPORTED = ("gen_scene", "read_pnm", "write_pnm")

# (class, method, bucket). Patched on the class, so every instance built
# while tracing is installed goes through the wrapper. Conv2D buckets are
# filled in per instance from its position in ``default_net``.
METHODS = (
    ("Conv2D", "forward", "net.{conv}.fwd"),
    ("Conv2D", "backward", "net.{conv}.bwd"),
    ("MaxPool2D", "forward", "net.pool.fwd"),
    ("MaxPool2D", "backward", "net.pool.bwd"),
    ("Dense", "forward", "net.dense.fwd"),
    ("Dense", "backward", "net.dense.bwd"),
    ("ReLU", "forward", "net.relu"),
    ("ReLU", "backward", "net.relu"),
)


def _conv_macs(layer, out_shape):
    """Multiply-accumulates of one convolution pass, computed from shapes."""
    n, oh, ow = out_shape[0], out_shape[1], out_shape[2]
    return n * oh * ow * layer.kh * layer.kw * layer.cin * layer.cout


def _counts(bucket, args, result):
    """Operation counts recorded on a span, computed from arguments and
    results; never read from program internals."""
    if bucket == "gmm.fit":
        em_trace = result[1]
        return {"em_iters": em_trace.iterations_used,
                "converged": int(em_trace.converged)}
    if bucket == "net.mine_triplets":
        return {"triplets": len(result)}
    if bucket.startswith("net.conv") and bucket.endswith(".fwd"):
        return {"macs": _conv_macs(args[0], result.shape)}
    if bucket.startswith("net.conv") and bucket.endswith(".bwd"):
        # weight gradient and input gradient: two passes of forward size
        return {"macs": 2 * _conv_macs(args[0], args[1].shape)}
    return None


class Tracer:
    """In-memory span recorder for one benchmark process.

    Spans are lists ``[id, parent, call, bucket, start, end, counts]``;
    ``call`` is the id of the root ``cli.main`` span, shared by every span of
    one CLI call.
    """

    def __init__(self, package):
        self.package = package
        self.spans = []
        self._stack = []
        self._saved = []
        self._conv_names = weakref.WeakKeyDictionary()

    def _span(self, bucket, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        sid = len(self.spans)
        call = sid if parent is None else self.spans[parent][2]
        span = [sid, parent, call, bucket, 0.0, 0.0, None]
        self.spans.append(span)
        self._stack.append(sid)
        span[4] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[5] = time.perf_counter()
            self._stack.pop()
        span[6] = _counts(bucket, args, result)
        return result

    def _wrap_function(self, fn, bucket):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = tracer._span(bucket, fn, args, kwargs)
            if fn.__name__ == "default_net":  # name convs by their position
                convs = [layer for layer in result.layers
                         if type(layer).__name__ == "Conv2D"]
                for i, layer in enumerate(convs, start=1):
                    tracer._conv_names[layer] = f"conv{i}"
            return result

        return wrapper

    def _wrap_method(self, fn, bucket):
        tracer = self

        @functools.wraps(fn)
        def wrapper(layer, *args, **kwargs):
            name = bucket
            if "{conv}" in bucket:
                name = bucket.format(conv=tracer._conv_names.get(layer, "conv_other"))
            return tracer._span(name, fn, (layer, *args), kwargs)

        return wrapper

    def _patch(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        mods = self.package
        wrapped = {}
        for mod, attr, bucket in FUNCTIONS:
            module = getattr(mods, mod)
            fn = self._wrap_function(getattr(module, attr), bucket)
            wrapped[(mod, attr)] = fn
            self._patch(module, attr, fn)
        for attr in CLI_IMPORTED:
            self._patch(mods.cli, attr, wrapped[("image", attr)])
        for cls_name, method, bucket in METHODS:
            cls = getattr(mods.net, cls_name)
            self._patch(cls, method, self._wrap_method(getattr(cls, method), bucket))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def calls(self):
        """Root span ids, in order."""
        return [s[0] for s in self.spans if s[1] is None]

    def call_spans(self, call):
        return [s for s in self.spans if s[2] == call]


def self_times(spans):
    """Per-span self time: duration minus the durations of direct children."""
    own = {s[0]: s[5] - s[4] for s in spans}
    for s in spans:
        if s[1] is not None:
            own[s[1]] -= s[5] - s[4]
    return own


def stage_list(spans):
    """Buckets in order of first appearance within one call."""
    seen = []
    for s in spans:
        if s[3] not in seen:
            seen.append(s[3])
    return seen
