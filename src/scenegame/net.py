"""A small from-scratch convolutional network trained with a triplet margin
loss plus cross-entropy, combined as a strictly positive weighted sum.

Tensors are numpy float64 in (batch, height, width, channels) layout. Every
layer implements its own backward pass; grad_check compares the assembled
gradient against central finite differences.
"""

import functools
import logging
import math
import struct
from dataclasses import dataclass

import numpy as np

from .image import Image, seeded_rng

logger = logging.getLogger(__name__)

GRAD_CHECK_PARAM_LIMIT = 5000
CLASS_COUNT = 5
EMBEDDING_DIM = 32


class ShapeMismatchError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Layers
# ---------------------------------------------------------------------------

def _glorot(rng, shape, fan_in, fan_out):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, shape)


def _pending(layer, value):
    """A layer's saved forward state, or RuntimeError when no forward is
    waiting for its backward."""
    if value is None:
        raise RuntimeError(f"{type(layer).__name__}.backward needs a forward "
                           f"first: no forward pass is pending")
    return value


def _column_sum(a):
    """a.sum(axis=0) of a 2-D float array, bit for bit but for NaN payloads.
    On a C-ordered array of two or more columns, sum adds the rows one after
    another, and einsum adds them in the same order with less overhead per
    row. With one column or another layout sum adds pairwise, so those go
    to sum."""
    if a.shape[1] > 1 and a.flags.c_contiguous:
        return np.einsum("ij->j", a)
    return a.sum(axis=0)


@functools.lru_cache(maxsize=32)
def _patch_index(w, oh, ow, kh, kw, stride):
    """Flat pixel index of every patch entry of an oh x ow output on an image
    w pixels wide, shape (oh * ow, kh * kw): patch row (i, j) reads pixel
    (s*i + di, s*j + dj) in column (di, dj). Read-only, since calls share it."""
    corners = (np.arange(0, stride * oh, stride)[:, None] * w
               + np.arange(0, stride * ow, stride))
    offsets = np.arange(kh)[:, None] * w + np.arange(kw)
    index = corners.reshape(-1, 1) + offsets.reshape(-1)
    index.flags.writeable = False
    return index


class Conv2D:
    """Valid convolution, stride >= 1, no padding.

    Each pass is one GEMM over the im2col patch matrix: one row per output
    pixel, columns in (kh, kw, cin) order so that the weights reshape to
    (kh * kw * cin, cout) unchanged. Forward gathers the matrix with one
    np.take of whole pixels (cin values each) through a cached patch index,
    and adds the bias along each image's flat (oh * ow * cout) row.

    Backward sums the bias gradient over the output pixels with
    _column_sum and computes the column gradient with the same GEMM. It then
    copies each kernel offset's column block out as one contiguous
    (n, oh, ow, cin) block, moving each pixel's cin values as one item, and
    adds it onto its pixels.
    """

    def __init__(self, kh, kw, cin, cout, stride=1, rng=None):
        self.kh, self.kw, self.cin, self.cout = kh, kw, cin, cout
        self.stride = stride
        if rng is None:
            self.weights = np.zeros((kh, kw, cin, cout))
        else:
            self.weights = _glorot(rng, (kh, kw, cin, cout),
                                   kh * kw * cin, kh * kw * cout)
        self.bias = np.zeros(cout)
        self._cols = None

    def out_shape(self, shape):
        """(n, oh, ow, cout) for an (n, h, w, cin) input shape; raises
        ShapeMismatchError for any other shape or one smaller than the kernel."""
        if len(shape) != 4 or shape[3] != self.cin:
            raise ShapeMismatchError(f"conv expects (N,H,W,{self.cin}), got {shape}")
        n, h, w, _ = shape
        oh = (h - self.kh) // self.stride + 1
        ow = (w - self.kw) // self.stride + 1
        if oh < 1 or ow < 1:
            raise ShapeMismatchError(f"input {h}x{w} smaller than the kernel")
        return n, oh, ow, self.cout

    def forward(self, x):
        n, oh, ow, _ = self.out_shape(x.shape)
        index = _patch_index(x.shape[2], oh, ow, self.kh, self.kw, self.stride)
        cols = x.reshape(n, -1, self.cin).take(index, axis=1).reshape(
            n * oh * ow, self.kh * self.kw * self.cin)
        out = cols @ self.weights.reshape(-1, self.cout)
        per_image = out.reshape(n, oh * ow * self.cout)
        per_image += np.tile(self.bias, oh * ow)
        self._cols = cols
        self._in_shape = x.shape
        return out.reshape(n, oh, ow, self.cout)

    def discard(self):
        self._cols = None

    def backward(self, dout, input_grad=True):
        """Set d_weights and d_bias; return the input gradient, or None
        without computing it when input_grad is off."""
        cols, self._cols = _pending(self, self._cols), None
        n, oh, ow, _ = dout.shape
        s, cin, offsets = self.stride, self.cin, self.kh * self.kw
        dout2 = dout.reshape(-1, self.cout)
        self.d_weights = (cols.T @ dout2).reshape(self.weights.shape)
        self.d_bias = _column_sum(dout2)
        if not input_grad:
            return None
        dcols = dout2 @ self.weights.reshape(-1, self.cout).T
        # one item per pixel block of cin values: column o is offset o's block
        pixels = dcols.view(np.dtype((np.void, dcols.itemsize * cin)))
        # col2im: add each kernel offset's block back onto its pixels
        dx = np.zeros(self._in_shape)
        for o in range(offsets):
            di, dj = divmod(o, self.kw)
            block = pixels[:, o].copy().view(dcols.dtype)
            dx[:, di:di + s * oh:s, dj:dj + s * ow:s, :] += block.reshape(n, oh, ow, cin)
        return dx


class MaxPool2D:
    """Max over k x k windows at stride s >= k, so that no two windows
    overlap; trailing rows and columns that no window covers are dropped, and
    so are the gaps between windows when s > k. A stride below the window
    raises ValueError when the layer is built.

    Forward copies the k * k strided views once into a window-major stack,
    one contiguous (n, oh, ow, c) block per offset in offset order
    (row-major within the window). It takes a running np.maximum over the
    blocks and records, per output, the first offset whose block equals the
    max: argmax's first-maximum rule over the stack. Ties, and ReLU's -0.0
    against 0.0, resolve like argmax; NaN activations are outside that
    contract.

    Backward routes each output's gradient to that one pixel with one
    np.bincount over the winners' flat input indices. Each input pixel wins
    at most one window, so it reads 0.0 + its window's gradient, -0.0
    included, and every other pixel reads 0.0. A non-finite gradient
    reaches its window's winner only.
    """

    def __init__(self, window=2, stride=2):
        if stride < window:
            raise ValueError(f"max-pool stride {stride} is below its {window}x{window} "
                             f"window; overlapping windows are not supported")
        self.window = window
        self.stride = stride
        self._winner = None

    def out_shape(self, shape):
        """(n, oh, ow, c) for an (n, h, w, c) input shape; raises
        ShapeMismatchError for any other shape or one smaller than the window."""
        k, s = self.window, self.stride
        if len(shape) != 4:
            raise ShapeMismatchError(
                f"pool with a {k}x{k} window expects (N,H,W,C), got {shape}")
        n, h, w, c = shape
        if h < k or w < k:
            raise ShapeMismatchError(
                f"pool input {shape} is smaller than its {k}x{k} window")
        return n, (h - k) // s + 1, (w - k) // s + 1, c

    def forward(self, x):
        k, s = self.window, self.stride
        n, oh, ow, c = self.out_shape(x.shape)
        stack = np.empty((k * k, n, oh, ow, c), dtype=x.dtype)
        for o in range(k * k):
            di, dj = divmod(o, k)
            stack[o] = x[:, di:di + s * oh:s, dj:dj + s * ow:s, :]
        out = stack[0].copy()
        for block in stack[1:]:
            np.maximum(out, block, out=out)
        # winner = number of leading offsets whose value is not the max
        winner = np.zeros(out.shape, dtype=np.min_scalar_type(k * k - 1))
        alive = np.ones(out.shape, dtype=bool)
        for block in stack[:-1]:
            alive &= block != out
            winner += alive.view(np.uint8)
        self._winner = winner
        self._in_shape = x.shape
        return out

    def discard(self):
        self._winner = None

    def backward(self, dout):
        winner, self._winner = _pending(self, self._winner), None
        k, s = self.window, self.stride
        n, h, w, c = self._in_shape
        oh, ow = winner.shape[1:3]
        # flat input index of each output's winner: its offset in the window
        # (row-major), plus its window corner's row, column and channel, plus
        # its image's offset in the batch
        index = (np.arange(k)[:, None] * (w * c) + np.arange(k) * c).take(winner)
        index += (np.arange(0, s * oh, s)[:, None, None] * (w * c)
                  + np.arange(0, s * ow, s)[:, None] * c + np.arange(c))
        index += np.arange(n)[:, None, None, None] * (h * w * c)
        dx = np.bincount(index.ravel(), weights=dout.ravel(),
                         minlength=n * h * w * c)
        return dx.reshape(self._in_shape)


class ReLU:
    """x * (x > 0) forward and dout * (x > 0) backward. Each pass casts the
    saved bool mask to the float type once and multiplies it in place, float
    by float: the same products as numpy's bool-by-float multiply, -0.0 and
    x * 0.0 included, without its per-element cast. Only the bool mask waits
    for backward."""

    def __init__(self):
        self._mask = None

    def out_shape(self, shape):
        return shape

    def forward(self, x):
        self._mask = x > 0
        out = self._mask.astype(x.dtype)
        out *= x
        return out

    def discard(self):
        self._mask = None

    def backward(self, dout):
        mask, self._mask = _pending(self, self._mask), None
        grad = mask.astype(dout.dtype)
        grad *= dout
        return grad


class Flatten:
    def __init__(self):
        self._shape = None

    def out_shape(self, shape):
        return shape[0], math.prod(shape[1:])

    def forward(self, x):
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def discard(self):
        self._shape = None

    def backward(self, dout):
        shape, self._shape = _pending(self, self._shape), None
        return dout.reshape(shape)


class Dense:
    def __init__(self, din, dout, rng=None):
        self.din, self.dout = din, dout
        if rng is None:
            self.weights = np.zeros((din, dout))
        else:
            self.weights = _glorot(rng, (din, dout), din, dout)
        self.bias = np.zeros(dout)
        self._x = None

    def out_shape(self, shape):
        """(n, dout) for an (n, din) input shape; raises ShapeMismatchError
        for any other shape."""
        if len(shape) != 2 or shape[1] != self.din:
            raise ShapeMismatchError(f"dense expects (N,{self.din}), got {shape}")
        return shape[0], self.dout

    def forward(self, x):
        self.out_shape(x.shape)
        self._x = x
        return x @ self.weights + self.bias

    def discard(self):
        self._x = None

    def backward(self, dout, input_grad=True):
        """Set d_weights and d_bias; return the input gradient, or None
        without computing it when input_grad is off."""
        x, self._x = _pending(self, self._x), None
        self.d_weights = x.T @ dout
        self.d_bias = dout.sum(axis=0)
        if not input_grad:
            return None
        return dout @ self.weights.T


class Network:
    """Ordered layer stack; the input of the final layer is the embedding."""

    def __init__(self, layers):
        self.layers = list(layers)

    def out_shape(self, shape):
        """The output shape of an input shape, each layer's rule in turn; raises
        the first layer's ShapeMismatchError that rejects its input, with no
        array built."""
        for layer in self.layers:
            shape = layer.out_shape(shape)
        return shape

    def forward(self, x):
        for layer in self.layers[:-1]:
            x = layer.forward(x)
        scores = self.layers[-1].forward(x)
        return x, scores

    def backward(self, d_embedding, d_scores):
        """Leave d_weights and d_bias on every trainable layer.

        Stops at the first trainable layer, which computes its parameter
        gradients only: its input gradient, and the layers below it, feed no
        parameter.
        """
        first = self.layers.index(self.trainable()[0])
        top = len(self.layers) - 1
        d = d_scores
        for i in range(top, first, -1):
            d = self.layers[i].backward(d)
            if i == top:
                d = d + d_embedding
        self.layers[first].backward(d, input_grad=False)

    def discard(self):
        """Drop every layer's saved forward state, as a backward would, so
        that it is freed and a backward raises until the next forward."""
        for layer in self.layers:
            layer.discard()

    def trainable(self):
        return [layer for layer in self.layers if hasattr(layer, "weights")]

    def parameter_arrays(self):
        arrays = []
        for layer in self.trainable():
            arrays.append(layer.weights)
            arrays.append(layer.bias)
        return arrays

    def gradient_arrays(self):
        arrays = []
        for layer in self.trainable():
            arrays.append(layer.d_weights)
            arrays.append(layer.d_bias)
        return arrays

    def parameter_count(self):
        return sum(a.size for a in self.parameter_arrays())


def default_net(input_size: int = 20, seed: int = 0) -> Network:
    """conv(3x3x1x8)-relu-maxpool2 : conv(3x3x8x16)-relu-maxpool2 :
    flatten-fc(32)-relu-fc(5). The smallest stack exercising every layer kind;
    the first dense layer takes the flattened feature shape of an input_size
    square, and ValueError names an input too small for the stack.
    """
    rng = seeded_rng(seed)
    features = [Conv2D(3, 3, 1, 8, rng=rng), ReLU(), MaxPool2D(2, 2),
                Conv2D(3, 3, 8, 16, rng=rng), ReLU(), MaxPool2D(2, 2), Flatten()]
    try:
        _, flat = Network(features).out_shape((1, input_size, input_size, 1))
    except ShapeMismatchError as exc:
        raise ValueError(f"input size {input_size} is too small for the stack") from exc
    return Network(features + [Dense(flat, EMBEDDING_DIM, rng=rng), ReLU(),
                               Dense(EMBEDDING_DIM, CLASS_COUNT, rng=rng)])


def _image_batch(images):
    planes = [img.plane().astype(np.float64) / 255.0 for img in images]
    return np.stack(planes)[:, :, :, None]


def forward(net: Network, img: Image):
    """Run one image through the stack: (embedding, class scores)."""
    emb, scores = net.forward(_image_batch([img]))
    return emb[0], scores[0]


def predict(net: Network, images):
    """(classes, scores) of a list of images: the (N, classes) score rows and
    each row's highest-scoring class, ties to the lowest index.

    The layers before the first Dense run on chunks of TrainConfig's default
    batch size, so their activations peak as a training batch's do. The dense
    head runs one row at a time, since BLAS rounds a one-row product
    differently from a many-row one: each score row keeps the bytes of
    forward on its image, flattened, as long as every convolution before the
    first Dense leaves more than one output pixel per image (default_net's
    do). A convolution that maps an image to one pixel is a one-row product
    in forward but a many-row one here, so its scores can differ in the last
    bit. Each chunk's saved forward state is discarded before the next chunk
    runs, so no backward is left pending.
    """
    head = next((i for i, layer in enumerate(net.layers) if isinstance(layer, Dense)),
                len(net.layers))
    size = TrainConfig.batch_size
    rows = []
    for start in range(0, len(images), size):
        chunk = _image_batch(images[start:start + size])
        for layer in net.layers[:head]:
            chunk = layer.forward(chunk)
        for x in chunk:
            x = x[None]
            for layer in net.layers[head:]:
                x = layer.forward(x)
            rows.append(x.reshape(-1))
        # the chunk's saved state goes before the next chunk's forward
        net.discard()
    scores = np.stack(rows)
    return scores.argmax(axis=1), scores


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------

def triplet_batch_loss(embeddings, triplets, margin: float):
    """Mean hinge triplet loss over (anchor, positive, negative) index rows,
    and its gradient wrt embeddings.

    Active hinges are summed in row order, and the gradient rows are added in
    the order (a0, p0, n0, a1, ...), so repeated indices accumulate exactly as
    a per-triplet loop would. No rows give a loss of 0.0 and a zero gradient.
    """
    if not 0 < margin < math.inf:
        raise ValueError("margin must be finite and > 0")
    emb = np.asarray(embeddings, dtype=np.float64)
    grad = np.zeros_like(emb)
    index = np.asarray(triplets, dtype=np.intp)
    if index.size == 0:
        return 0.0, grad
    a, p, n = emb[index[:, 0]], emb[index[:, 1]], emb[index[:, 2]]
    hinge = ((a - p) ** 2).sum(axis=1) - ((a - n) ** 2).sum(axis=1) + margin
    active = hinge > 0
    total = sum(hinge[active].tolist())
    a, p, n = a[active], p[active], n[active]
    rows = np.stack([2.0 * (n - p), -2.0 * (a - p), 2.0 * (a - n)], axis=1)
    np.add.at(grad, index[active].ravel(), rows.reshape(-1, emb.shape[1]))
    count = len(index)
    return float(total) / count, grad / count


def softmax_cross_entropy(scores, labels):
    """Mean cross-entropy of softmax scores; returns (loss, d_scores)."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    shifted = scores - scores.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=1, keepdims=True)
    n = scores.shape[0]
    loss = float(-np.log(probs[np.arange(n), labels] + 1e-300).mean())
    d_scores = probs.copy()
    d_scores[np.arange(n), labels] -= 1.0
    return loss, d_scores / n


def combined_loss(config: "TrainConfig", triplet: float, ce: float) -> float:
    """The training objective: the triplet and cross-entropy terms weighted by
    config's strictly positive loss weights."""
    return config.triplet_weight * triplet + config.ce_weight * ce


# ---------------------------------------------------------------------------
# Mining and augmentation
# ---------------------------------------------------------------------------

def mine_triplets(embeddings, labels, warn_skipped: bool = True):
    """One (anchor, positive, negative) row per anchor, in anchor order, as a
    (k, 3) integer array: the nearest same-class positive and the nearest
    different-class negative.

    Distance ties resolve to the lowest sample index. Anchors with no other
    sample of their class, or no sample of another class, are skipped (and
    logged unless warn_skipped is off -- the trainer disables it because both
    are routine in small batches); a single-class batch mines no row.
    """
    emb = np.asarray(embeddings, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    diff2 = ((emb[:, None, :] - emb[None, :, :]) ** 2).sum(axis=2)
    same_class = labels[:, None] == labels[None, :]
    same = same_class & ~np.eye(labels.size, dtype=bool)
    # argmin returns the first minimum: ties go to the lowest sample index
    pos = np.where(same, diff2, np.inf).argmin(axis=1)
    neg = np.where(same_class, np.inf, diff2).argmin(axis=1)
    kept = same.any(axis=1) & ~same_class.all(axis=1)
    skipped = np.flatnonzero(~kept).tolist()
    if skipped and warn_skipped:
        logger.warning("skipped %d anchors with no positive or no negative: %s",
                       len(skipped), skipped)
    anchors = np.flatnonzero(kept)
    return np.stack([anchors, pos[anchors], neg[anchors]], axis=1)


def augment(img: Image, crop: int) -> list:
    """Five exact crop x crop sub-images: the four corner crops plus the
    centered crop, in (TL, TR, BL, BR, C) order. The center offset floors odd
    differences."""
    if crop < 1:
        raise ValueError("crop must be positive")
    h, w = img.height, img.width
    if crop > h or crop > w:
        raise ValueError(f"crop {crop}x{crop} exceeds image {w}x{h}")
    cy = (h - crop) // 2
    cx = (w - crop) // 2
    px = img.pixels
    corners = [(0, 0), (0, w - crop), (h - crop, 0), (h - crop, w - crop), (cy, cx)]
    return [Image(px[r:r + crop, c:c + crop]) for r, c in corners]


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrainConfig:
    """Every training setting, with the defaults that `train`'s flags and the
    experiment's config keys share."""

    epochs: int = 12
    learning_rate: float = 0.05
    batch_size: int = 25
    margin: float = 0.5
    triplet_weight: float = 1.0
    ce_weight: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if not 0 <= self.learning_rate < math.inf:
            raise ValueError("learning_rate must be finite and >= 0")
        if not 0 < self.margin < math.inf:
            raise ValueError("margin must be finite and > 0")
        if not all(0 < w < math.inf for w in (self.triplet_weight, self.ce_weight)):
            raise ValueError("every loss weight must be finite and > 0")


def _objective(emb, scores, labels, triplets, config: TrainConfig):
    """The combined (triplet, cross-entropy) loss of one batch and its
    weighted gradients wrt embedding and scores: (loss, d_emb, d_scores)."""
    trip, d_emb = triplet_batch_loss(emb, triplets, config.margin)
    ce, d_scores = softmax_cross_entropy(scores, labels)
    return (combined_loss(config, trip, ce), config.triplet_weight * d_emb,
            config.ce_weight * d_scores)


def train(net: Network, images, labels, config: TrainConfig):
    """Plain SGD on the combined triplet + cross-entropy objective.

    Deterministic for a fixed seed. Returns (net, per-epoch mean loss trace);
    the network is updated in place. A batch that mines no triplet, such as
    one holding a single class, contributes a zero triplet term for that step.
    """
    images = list(images)
    labels = list(int(v) for v in labels)
    if not images:
        raise ValueError("dataset is empty")
    if len(images) != len(labels):
        raise ValueError("images and labels must align")
    class_count = net.layers[-1].dout
    missing = set(range(class_count)) - set(labels)
    if missing:
        raise ValueError(f"dataset is missing classes {sorted(missing)}")

    x_all = _image_batch(images)
    y_all = np.asarray(labels, dtype=np.int64)
    rng = seeded_rng(config.seed)
    trace = []
    for _ in range(config.epochs):
        order = rng.permutation(len(images))
        epoch_loss = 0.0
        batch_count = 0
        for start in range(0, len(images), config.batch_size):
            idx = order[start:start + config.batch_size]
            xb, yb = x_all[idx], y_all[idx]
            emb, scores = net.forward(xb)
            triplets = mine_triplets(emb, yb, warn_skipped=False)
            loss, d_emb, d_scores = _objective(emb, scores, yb, triplets, config)
            epoch_loss += loss
            batch_count += 1
            net.backward(d_emb, d_scores)
            if config.learning_rate:
                for layer in net.trainable():
                    layer.weights -= config.learning_rate * layer.d_weights
                    layer.bias -= config.learning_rate * layer.d_bias
        trace.append(epoch_loss / batch_count)
    return net, trace


# ---------------------------------------------------------------------------
# Gradient check
# ---------------------------------------------------------------------------

def grad_check(net: Network, images, labels, config: TrainConfig,
               samples: int = 50, step: float = 1e-4, seed: int = 0) -> float:
    """Max relative error between analytic and central-difference gradients
    over sampled parameters, for the objective that train minimizes under
    config (its margin and loss weights). The triplet set is mined once and
    frozen so the loss stays smooth at the evaluation point."""
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if not 0 < step < math.inf:
        raise ValueError(f"step must be finite and > 0, got {step}")
    if net.parameter_count() > GRAD_CHECK_PARAM_LIMIT:
        raise ValueError(
            f"net has {net.parameter_count()} parameters; grad_check "
            f"allows at most {GRAD_CHECK_PARAM_LIMIT}"
        )
    x = _image_batch(images)
    y = np.asarray(labels, dtype=np.int64)
    emb, scores = net.forward(x)
    triplets = mine_triplets(emb, y)
    _, d_emb, d_scores = _objective(emb, scores, y, triplets, config)
    net.backward(d_emb, d_scores)

    def loss():
        return _objective(*net.forward(x), y, triplets, config)[0]

    params = net.parameter_arrays()
    grads = [g.copy() for g in net.gradient_arrays()]

    sizes = [p.size for p in params]
    total = sum(sizes)
    rng = seeded_rng(seed)
    picks = rng.choice(total, size=min(samples, total), replace=False)
    offsets = np.cumsum([0] + sizes)
    max_rel = 0.0
    for flat_index in picks:
        which = int(np.searchsorted(offsets, flat_index, side="right")) - 1
        local = int(flat_index - offsets[which])
        arr = params[which]
        original = arr.flat[local]
        arr.flat[local] = original + step
        plus = loss()
        arr.flat[local] = original - step
        minus = loss()
        arr.flat[local] = original
        numeric = (plus - minus) / (2.0 * step)
        analytic = grads[which].flat[local]
        rel = abs(analytic - numeric) / max(abs(analytic) + abs(numeric), 1e-8)
        max_rel = max(max_rel, rel)
    return max_rel


# ---------------------------------------------------------------------------
# Checkpoint format
# ---------------------------------------------------------------------------
# magic "SGNET001" | u32 layer count | per layer: u8 kind + the u32 fields
# that _LAYER_KINDS lists for it | parameter tensors per trainable layer,
# weights then bias, raw little-endian float64 in table order. Kind 3
# (average pooling) is retired: no longer written, and rejected on read. The
# reader also rejects an empty layer table and any u32 field equal to 0.

CHECKPOINT_MAGIC = b"SGNET001"
# kind code -> (layer class, its u32 constructor fields in record order)
_LAYER_KINDS = {
    1: (Conv2D, ("kh", "kw", "cin", "cout", "stride")),
    2: (MaxPool2D, ("window", "stride")),
    4: (ReLU, ()),
    5: (Flatten, ()),
    6: (Dense, ("din", "dout")),
}


def save_net(net: Network, path):
    codes = {cls: kind for kind, (cls, _) in _LAYER_KINDS.items()}
    blob = bytearray(CHECKPOINT_MAGIC)
    blob += struct.pack("<I", len(net.layers))
    for layer in net.layers:
        kind = codes[type(layer)]
        names = _LAYER_KINDS[kind][1]
        blob += struct.pack(f"<B{len(names)}I", kind,
                            *(getattr(layer, name) for name in names))
    for arr in net.parameter_arrays():
        blob += arr.astype("<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(bytes(blob))


def load_net(path) -> Network:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:8] != CHECKPOINT_MAGIC:
        raise ValueError("not a network checkpoint (bad magic)")
    pos = len(CHECKPOINT_MAGIC)

    def take(nbytes):
        nonlocal pos
        if pos + nbytes > len(blob):
            raise ValueError("checkpoint truncated")
        pos += nbytes
        return blob[pos - nbytes:pos]

    (layer_count,) = struct.unpack("<I", take(4))
    if layer_count == 0:
        raise ValueError("checkpoint has no layers")
    layers = []
    for index in range(layer_count):
        kind = take(1)[0]
        if kind not in _LAYER_KINDS:
            raise ValueError(f"unknown layer kind {kind}")
        cls, names = _LAYER_KINDS[kind]
        values = struct.unpack(f"<{len(names)}I", take(4 * len(names)))
        for name, value in zip(names, values):
            if value == 0:  # every layer size, window and stride is >= 1
                raise ValueError(f"checkpoint layer {index} ({cls.__name__}) "
                                 f"has {name} = 0; it must be >= 1")
        layers.append(cls(*values))
    net = Network(layers)
    for arr in net.parameter_arrays():
        arr[...] = np.frombuffer(take(arr.nbytes), dtype="<f8").reshape(arr.shape)
    if pos != len(blob):
        raise ValueError("checkpoint has trailing data")
    return net
