import itertools
import logging
import math
import struct
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from scenegame import net as net_mod
from scenegame.cli import _cell_dataset, main
from scenegame.image import Image, gen_scene
from scenegame.net import (
    Conv2D,
    Dense,
    Flatten,
    MaxPool2D,
    Network,
    ReLU,
    ShapeMismatchError,
    TrainConfig,
    augment,
    combined_loss,
    default_net,
    forward,
    grad_check,
    load_net,
    mine_triplets,
    predict,
    save_net,
    softmax_cross_entropy,
    train,
    triplet_batch_loss,
)


def scene_batch(size=16, per_class=2, noise=1, seed0=100):
    images, labels = [], []
    for c in range(5):
        for i in range(per_class):
            images.append(gen_scene(c, size, noise, seed0 + i))
            labels.append(c)
    return images, labels


# ---------------------------------------------------------------------------
# layers
# ---------------------------------------------------------------------------

def test_identity_conv_preserves_input():
    conv = Conv2D(1, 1, 1, 1)
    conv.weights[0, 0, 0, 0] = 1.0
    x = np.random.default_rng(0).normal(0, 1, (2, 5, 5, 1))
    assert np.array_equal(conv.forward(x), x)


class ReferenceConv2D(Conv2D):
    """The per-offset convolution that the im2col GEMM replaced, kept as the
    reference: kh * kw small matmuls forward, one tensordot per offset for
    the weight gradient backward."""

    def forward(self, x):
        if x.ndim != 4 or x.shape[3] != self.cin:
            raise ShapeMismatchError(
                f"conv expects (N,H,W,{self.cin}), got {x.shape}"
            )
        n, h, w, _ = x.shape
        s = self.stride
        oh = (h - self.kh) // s + 1
        ow = (w - self.kw) // s + 1
        if oh < 1 or ow < 1:
            raise ShapeMismatchError(f"input {h}x{w} smaller than the kernel")
        out = np.broadcast_to(self.bias, (n, oh, ow, self.cout)).copy()
        for di in range(self.kh):
            for dj in range(self.kw):
                patch = x[:, di:di + s * oh:s, dj:dj + s * ow:s, :]
                out += patch @ self.weights[di, dj]
        self._x = x
        return out

    def backward(self, dout):
        x = self._x
        n, h, w, _ = x.shape
        s = self.stride
        oh, ow = dout.shape[1], dout.shape[2]
        self.d_weights = np.zeros_like(self.weights)
        self.d_bias = dout.sum(axis=(0, 1, 2))
        dx = np.zeros_like(x)
        for di in range(self.kh):
            for dj in range(self.kw):
                patch = x[:, di:di + s * oh:s, dj:dj + s * ow:s, :]
                self.d_weights[di, dj] = np.tensordot(
                    patch, dout, axes=([0, 1, 2], [0, 1, 2])
                )
                dx[:, di:di + s * oh:s, dj:dj + s * ow:s, :] += (
                    dout @ self.weights[di, dj].T
                )
        return dx


def conv_cases():
    """Seeded (n, h, w, kh, kw, cin, cout, stride) cases: 1x1 and non-square
    kernels, 1-4 channels each way, strides 1 and 2, outputs of size 1, and
    inputs with rows and columns that a stride-2 kernel never reaches."""
    cases = [
        (1, 1, 1, 1, 1, 1, 1, 1),        # 1x1 kernel, 1x1 output
        (2, 5, 5, 1, 1, 3, 2, 2),        # 1x1 kernel, strided
        (1, 3, 3, 3, 3, 1, 1, 1),        # output of size 1
        (3, 4, 5, 4, 5, 2, 4, 2),        # output of size 1, strided
        (2, 6, 3, 2, 3, 4, 1, 1),        # non-square kernel, one output column
        (1, 8, 8, 3, 3, 1, 8, 2),
    ]
    rng = np.random.default_rng(60)
    while len(cases) < 160:
        kh, kw = (int(v) for v in rng.integers(1, 5, 2))
        stride = int(rng.integers(1, 3))
        oh, ow = (int(v) for v in rng.integers(1, 5, 2))
        h = (oh - 1) * stride + kh + int(rng.integers(0, stride))
        w = (ow - 1) * stride + kw + int(rng.integers(0, stride))
        cin, cout = (int(v) for v in rng.integers(1, 5, 2))
        cases.append((int(rng.integers(1, 4)), h, w, kh, kw, cin, cout, stride))
    return cases


def max_rel_error(actual, expected):
    return float(np.abs(actual - expected).max() / max(np.abs(expected).max(), 1e-300))


def test_conv_gemm_matches_per_offset_reference():
    rng = np.random.default_rng(61)
    for n, h, w, kh, kw, cin, cout, stride in conv_cases():
        conv = Conv2D(kh, kw, cin, cout, stride=stride, rng=rng)
        conv.bias = rng.normal(0, 1, cout)
        ref = ReferenceConv2D(kh, kw, cin, cout, stride=stride)
        ref.weights, ref.bias = conv.weights.copy(), conv.bias.copy()
        x = rng.normal(0, 1, (n, h, w, cin))
        out, expected = conv.forward(x), ref.forward(x)
        assert out.shape == expected.shape
        assert max_rel_error(out, expected) <= 1e-12
        dout = rng.normal(0, 1, out.shape)
        dx, expected_dx = conv.backward(dout), ref.backward(dout)
        assert dx.shape == x.shape
        assert max_rel_error(dx, expected_dx) <= 1e-12
        assert max_rel_error(conv.d_weights, ref.d_weights) <= 1e-12
        assert max_rel_error(conv.d_bias, ref.d_bias) <= 1e-12


class ReferenceGemmConv2D(Conv2D):
    """The im2col GEMM convolution before its kernels copied in contiguous
    blocks, kept verbatim as the byte-level reference: a copy of the 6-D
    window view as the patch matrix, a broadcast bias add, and col2im by
    strided reads of the full column gradient."""

    def forward(self, x):
        if x.ndim != 4 or x.shape[3] != self.cin:
            raise ShapeMismatchError(
                f"conv expects (N,H,W,{self.cin}), got {x.shape}"
            )
        n, h, w, _ = x.shape
        s = self.stride
        oh = (h - self.kh) // s + 1
        ow = (w - self.kw) // s + 1
        if oh < 1 or ow < 1:
            raise ShapeMismatchError(f"input {h}x{w} smaller than the kernel")
        # (n, h-kh+1, w-kw+1, cin, kh, kw) view -> strided rows, (kh, kw, cin) columns
        windows = sliding_window_view(x, (self.kh, self.kw), axis=(1, 2))
        cols = windows[:, ::s, ::s].transpose(0, 1, 2, 4, 5, 3).reshape(
            n * oh * ow, self.kh * self.kw * self.cin)
        out = cols @ self.weights.reshape(-1, self.cout)
        out += self.bias
        self._cols = cols
        self._in_shape = x.shape
        return out.reshape(n, oh, ow, self.cout)

    def backward(self, dout, input_grad=True):
        """Set d_weights and d_bias; return the input gradient, or None
        without computing it when input_grad is off."""
        cols, self._cols = self._cols, None
        n, oh, ow, _ = dout.shape
        s = self.stride
        dout2 = dout.reshape(-1, self.cout)
        self.d_weights = (cols.T @ dout2).reshape(self.weights.shape)
        self.d_bias = dout2.sum(axis=0)
        if not input_grad:
            return None
        dcols = (dout2 @ self.weights.reshape(-1, self.cout).T).reshape(
            n, oh, ow, self.kh, self.kw, self.cin)
        # col2im: add each kernel offset's column block back onto its pixels
        dx = np.zeros(self._in_shape)
        for di in range(self.kh):
            for dj in range(self.kw):
                dx[:, di:di + s * oh:s, dj:dj + s * ow:s, :] += dcols[:, :, :, di, dj]
        return dx


class ReferenceReLU(ReLU):
    """The bool-mask ReLU, kept verbatim as the byte-level reference."""

    def forward(self, x):
        self._mask = x > 0
        return x * self._mask

    def backward(self, dout):
        return dout * self._mask


def test_conv_kernels_are_bitwise_the_reference_gemm():
    """Every conv_cases() shape, on a contiguous input and on a view that
    reads every other channel. Where the windows tile the input (say,
    windows as wide as a one-image input), the reference's patch matrix is a
    view of it whose overlapping rows numpy multiplies in its own loop, not
    BLAS: there the output and weight gradient agree to 1e-12, and
    test_conv_gemm_matches_per_offset_reference covers them too."""
    rng = np.random.default_rng(71)
    inputs = (lambda shape: rng.normal(0, 1, shape),
              lambda shape: rng.normal(0, 1, shape[:3] + (2 * shape[3],))[..., ::2])
    for (n, h, w, kh, kw, cin, cout, stride), make in itertools.product(
            conv_cases(), inputs):
        conv = Conv2D(kh, kw, cin, cout, stride=stride, rng=rng)
        conv.bias = rng.normal(0, 1, cout)
        ref = ReferenceGemmConv2D(kh, kw, cin, cout, stride=stride)
        ref.weights, ref.bias = conv.weights.copy(), conv.bias.copy()
        x = make((n, h, w, cin))
        out, expected = conv.forward(x), ref.forward(x)
        tiled = np.may_share_memory(ref._cols, x)

        def same(got, want):
            return (max_rel_error(got, want) <= 1e-12 if tiled
                    else got.tobytes() == want.tobytes())

        assert out.shape == expected.shape
        assert same(out, expected)
        dout = rng.normal(0, 1, out.shape)
        dx, expected_dx = conv.backward(dout), ref.backward(dout)
        assert dx.shape == x.shape
        assert dx.tobytes() == expected_dx.tobytes()
        assert same(conv.d_weights, ref.d_weights)
        assert conv.d_bias.tobytes() == ref.d_bias.tobytes()
        conv.forward(x)
        ref.forward(x)
        assert conv.backward(dout, input_grad=False) is None
        assert ref.backward(dout, input_grad=False) is None
        assert same(conv.d_weights, ref.d_weights)
        assert conv.d_bias.tobytes() == ref.d_bias.tobytes()


def test_column_sum_is_bitwise_sum_over_rows():
    """Conv2D's bias gradient helper against a.sum(axis=0): C-ordered,
    F-ordered and row-strided inputs, random values and a mix of signed
    zeros, infinities, subnormals, NaN and values near 1e308. NaN results
    may differ in payload only."""
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                        2.2e-308, -1e-310, 1e308, -1e308, 1.7e308, 1.0, -2.5])
    rng = np.random.default_rng(73)
    # (2 * rows, cols) block -> (rows, cols) input
    layouts = (lambda b: np.ascontiguousarray(b[:b.shape[0] // 2]),
               lambda b: np.asfortranarray(b[:b.shape[0] // 2]),
               lambda b: b[::2])
    for rows in (1, 2, 3, 7, 8, 9, 16, 17, 127, 128, 129, 1225, 8100, 8101):
        fills = (rng.normal(0, 1, (2 * rows, 17)), rng.choice(special, (2 * rows, 17)),
                 rng.normal(0, 1e307, (2 * rows, 17)))
        for cols, fill, layout in itertools.product(range(1, 18), fills, layouts):
            a = layout(fill[:, :cols])
            assert a.shape == (rows, cols)
            with np.errstate(over="ignore", invalid="ignore"):
                got, expected = net_mod._column_sum(a), a.sum(axis=0)
            assert got.shape == expected.shape and got.dtype == expected.dtype
            nan = np.isnan(expected)
            assert np.array_equal(np.isnan(got), nan), (rows, cols)
            assert got[~nan].tobytes() == expected[~nan].tobytes(), (rows, cols)


def test_relu_is_bitwise_the_reference_on_signed_zeros_and_infinities():
    special = np.array([-0.0, 0.0, -1.5, -1e-300, 2.0, 1e-300, np.inf, -np.inf])
    rng = np.random.default_rng(72)
    for shape in ((8,), (2, 8), (3, 4, 5, 8), (1, 1, 1, 1)):
        x = rng.choice(special, shape)
        dout = rng.choice(np.concatenate([special, rng.normal(0, 1, 8)]), shape)
        relu, ref = ReLU(), ReferenceReLU()
        with np.errstate(invalid="ignore"):  # -inf * 0.0 and inf * 0.0
            out, expected = relu.forward(x), ref.forward(x)
            grad, expected_grad = relu.backward(dout), ref.backward(dout)
        assert out.dtype == expected.dtype
        assert out.tobytes() == expected.tobytes()
        assert grad.tobytes() == expected_grad.tobytes()
    with np.errstate(invalid="ignore"):
        out = ReLU().forward(special)
    assert np.signbit(out[:-1]).tolist() == [True, False, True, True, False, False, False]
    assert np.isnan(out[-1])  # -inf * 0.0, as with the bool mask


def test_patch_index_is_cached_and_read_only():
    # a 3x2 kernel at stride 2 on a 7x6 image: a 3x3 output
    index = net_mod._patch_index(6, 3, 3, 3, 2, 2)
    assert index is net_mod._patch_index(6, 3, 3, 3, 2, 2)
    assert index.shape == (3 * 3, 3 * 2)
    assert index[1].tolist() == [2, 3, 8, 9, 14, 15]  # output (0, 1): pixel (0, 2)
    with pytest.raises(ValueError):
        index[0, 0] = 1


def test_conv_backward_releases_patch_matrix():
    conv = Conv2D(3, 3, 1, 2, rng=np.random.default_rng(62))
    out = conv.forward(np.ones((1, 5, 5, 1)))
    assert conv._cols is not None
    conv.backward(np.ones_like(out))
    assert conv._cols is None


def test_stride_two_conv_gradients_match_finite_differences():
    rng = np.random.default_rng(63)
    conv = Conv2D(3, 2, 2, 3, stride=2, rng=rng)
    x = rng.normal(0, 1, (2, 8, 7, 2))
    g = rng.normal(0, 1, conv.forward(x).shape)
    conv.forward(x)
    dx = conv.backward(g)
    step = 1e-6

    def numeric(arr):
        grad = np.zeros_like(arr)
        for i in range(arr.size):
            original = arr.flat[i]
            arr.flat[i] = original + step
            plus = float((conv.forward(x) * g).sum())
            arr.flat[i] = original - step
            minus = float((conv.forward(x) * g).sum())
            arr.flat[i] = original
            grad.flat[i] = (plus - minus) / (2.0 * step)
        return grad

    for analytic, arr in ((conv.d_weights.copy(), conv.weights), (dx, x)):
        num = numeric(arr)
        rel = np.abs(analytic - num) / np.maximum(np.abs(analytic) + np.abs(num), 1e-8)
        assert rel.max() < 1e-6


def test_maxpool_window():
    pool = MaxPool2D(2, 2)
    x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 2, 2, 1)
    assert pool.forward(x).reshape(-1).tolist() == [4.0]


class ReferenceMaxPool2D(MaxPool2D):
    """The stack + argmax pooling that the running-max form replaced, kept
    as the reference."""

    def forward(self, x):
        k, s = self.window, self.stride
        n, h, w, c = x.shape
        oh = (h - k) // s + 1
        ow = (w - k) // s + 1
        stacked = np.stack(
            [x[:, di:di + s * oh:s, dj:dj + s * ow:s, :]
             for di in range(k) for dj in range(k)],
            axis=0,
        )
        self._winner = stacked.argmax(axis=0)
        self._in_shape = x.shape
        return stacked.max(axis=0)

    def backward(self, dout):
        k, s = self.window, self.stride
        oh, ow = dout.shape[1], dout.shape[2]
        dx = np.zeros(self._in_shape)
        for o, (di, dj) in enumerate(
            (di, dj) for di in range(k) for dj in range(k)
        ):
            dx[:, di:di + s * oh:s, dj:dj + s * ow:s, :] += dout * (self._winner == o)
        return dx


# (window, stride): stride >= window, gapped windows (stride > window) included
POOL_GEOMETRIES = ((2, 2), (3, 3), (1, 1), (2, 3), (3, 5))


def test_maxpool_matches_stack_argmax_reference():
    """Seeded inputs of three kinds: normal floats, small integers (many
    ties inside a window) and ReLU'd small integers (ties between 0.0 and
    -0.0). Shapes include n = 1, gaps between windows (stride > window) and
    trailing rows and columns that no window covers. A fifth of the output
    gradients are -0.0."""
    rng = np.random.default_rng(66)
    uncovered = 0
    for case in range(360):
        k, s = POOL_GEOMETRIES[case % len(POOL_GEOMETRIES)]
        n = 1 if case % 4 == 0 else int(rng.integers(2, 4))
        oh, ow = (int(v) for v in rng.integers(1, 5, 2))
        extra_h, extra_w = (int(v) for v in rng.integers(0, s, 2))
        h = (oh - 1) * s + k + extra_h
        w = (ow - 1) * s + k + extra_w
        uncovered += extra_h + extra_w > 0
        shape = (n, h, w, int(rng.integers(1, 4)))
        kind = case % 3
        if kind == 0:
            x = rng.normal(0, 1, shape)
        else:
            x = rng.integers(-2, 3, shape).astype(np.float64)
            if kind == 2:
                x = ReLU().forward(x)
        pool, ref = MaxPool2D(k, s), ReferenceMaxPool2D(k, s)
        out, expected = pool.forward(x), ref.forward(x)
        assert out.shape == expected.shape and out.dtype == expected.dtype
        assert out.tobytes() == expected.tobytes()
        assert np.array_equal(pool._winner, ref._winner)
        dout = rng.normal(0, 1, out.shape)
        dout[rng.random(out.shape) < 0.2] = -0.0
        assert pool.backward(dout).tobytes() == ref.backward(dout).tobytes()
    assert uncovered > 50


def test_maxpool_backward_sends_a_non_finite_gradient_to_its_winner_only():
    """0.0 plus its window's gradient at each window's winning pixel, 0.0
    everywhere else: an inf or -inf gradient reaches no other pixel of its
    window, where a masked product would spread 0 * inf = NaN."""
    rng = np.random.default_rng(67)
    for k, s in POOL_GEOMETRIES:
        x = rng.integers(-2, 3, (2, 3 * s + k, 2 * s + k + 1, 2)).astype(np.float64)
        pool = MaxPool2D(k, s)
        out = pool.forward(x)
        winner = pool._winner.copy()
        dout = rng.choice([np.inf, -np.inf, -0.0, 1.5], out.shape)
        expected = np.zeros(x.shape)
        for (b, i, j, c), o in np.ndenumerate(winner):
            di, dj = divmod(int(o), k)
            expected[b, s * i + di, s * j + dj, c] = 0.0 + dout[b, i, j, c]
        dx = pool.backward(dout)
        assert not np.isnan(dx).any()
        assert dx.tobytes() == expected.tobytes()


def test_maxpool_rejects_a_stride_below_its_window(tmp_path):
    for k, s in ((2, 1), (3, 2), (3, 1)):
        with pytest.raises(ValueError, match=rf"^max-pool stride {s} is below its "
                                             rf"{k}x{k} window"):
            MaxPool2D(k, s)
    path = tmp_path / "overlap.bin"
    path.write_bytes(b"SGNET001" + struct.pack("<IB2I", 1, 2, 2, 1))
    with pytest.raises(ValueError, match="^max-pool stride 1 is below its 2x2 window"):
        load_net(path)


def test_maxpool_relu_signed_zero_ties_follow_first_offset():
    x = ReLU().forward(np.array([[-1.0, 0.0], [2.0, 2.0]]).reshape(1, 2, 2, 1))
    x[0, 0, 1, 0] = 0.0  # window holds -0.0, 0.0 and a tie at 2.0
    pool, ref = MaxPool2D(2, 2), ReferenceMaxPool2D(2, 2)
    assert pool.forward(x).tobytes() == ref.forward(x).tobytes()
    assert pool._winner.tolist() == ref._winner.tolist() == [[[[2]]]]
    zeros = ReLU().forward(np.array([[-1.0, 0.0], [-3.0, 0.0]]).reshape(1, 2, 2, 1))
    assert pool.forward(zeros).tobytes() == ref.forward(zeros).tobytes()
    assert pool._winner.tolist() == ref._winner.tolist() == [[[[0]]]]


def test_maxpool_backward_routes_to_first_maximal_pixel():
    # 2x2 windows at stride 2; the trailing row and column are uncovered
    x = np.array([
        [1.0, 3.0, 5.0, 5.0, 9.0],
        [3.0, 0.0, 5.0, 5.0, 9.0],
        [2.0, 2.0, 0.0, 0.0, 9.0],
        [2.0, 7.0, 0.0, 1.0, 9.0],
        [9.0, 9.0, 9.0, 9.0, 9.0],
    ]).reshape(1, 5, 5, 1)
    pool = MaxPool2D(2, 2)
    assert pool.forward(x).reshape(2, 2).tolist() == [[3.0, 5.0], [7.0, 1.0]]
    dx = pool.backward(np.array([[10.0, 20.0], [30.0, 40.0]]).reshape(1, 2, 2, 1))
    assert dx.reshape(5, 5).tolist() == [
        [0.0, 10.0, 20.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, 30.0, 0.0, 40.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.0],
    ]
    # gapped 2x2 windows at stride 3: the column between the windows gets no
    # gradient though it holds the largest values; the later ties at (1, 3)
    # and (1, 4) get none
    x = np.array([[1.0, 4.0, 9.0, 4.0, 2.0], [0.0, 1.0, 9.0, 4.0, 4.0]]).reshape(1, 2, 5, 1)
    pool = MaxPool2D(2, 3)
    assert pool.forward(x).reshape(-1).tolist() == [4.0, 4.0]
    dx = pool.backward(np.array([1.0, 2.0]).reshape(1, 1, 2, 1))
    assert dx.reshape(2, 5).tolist() == [[0.0, 1.0, 0.0, 2.0, 0.0],
                                         [0.0, 0.0, 0.0, 0.0, 0.0]]


def test_conv_shape_mismatch():
    conv = Conv2D(3, 3, 2, 4)
    with pytest.raises(ShapeMismatchError):
        conv.forward(np.zeros((1, 5, 5, 1)))
    with pytest.raises(ShapeMismatchError):
        conv.forward(np.zeros((1, 2, 2, 2)))


def test_maxpool_rejects_an_input_smaller_than_its_window():
    for shape, k in (((1, 1, 1, 1), 2), ((2, 3, 5, 4), 4), ((1, 5, 2, 1), 3)):
        with pytest.raises(ShapeMismatchError) as exc:
            MaxPool2D(k, k).forward(np.zeros(shape))
        assert str(exc.value) == (f"pool input {shape} is smaller than its "
                                  f"{k}x{k} window")
    assert MaxPool2D(3, 5).forward(np.zeros((1, 3, 3, 2))).shape == (1, 1, 1, 2)


def test_maxpool_rejects_an_input_that_is_not_4d():
    for shape in ((3, 4), (2, 4, 4), (1, 2, 4, 4, 1)):
        with pytest.raises(ShapeMismatchError) as exc:
            MaxPool2D(2, 2).forward(np.zeros(shape))
        assert str(exc.value) == (f"pool with a 2x2 window expects (N,H,W,C), "
                                  f"got {shape}")


def test_small_input_fails_at_the_pool_that_cannot_cover_it():
    # 8x8 -> conv 6x6 -> pool 3x3 -> conv 1x1: the second pool has no window
    net = default_net(input_size=20, seed=0)
    with pytest.raises(ShapeMismatchError,
                       match=r"pool input \(1, 1, 1, 16\) is smaller than its 2x2 window"):
        forward(net, Image(np.zeros((8, 8), dtype=np.uint8)))


def accepted_shapes():
    """(layer, input shape) pairs of every layer kind that forward takes: the
    conv_cases() shapes, each POOL_GEOMETRIES window on an input it covers
    exactly and on one with rows and columns it leaves over, and the shapes
    of the ReLU, fed_layer and dense tests."""
    cases = [(Conv2D(kh, kw, cin, cout, stride=stride), (n, h, w, cin))
             for n, h, w, kh, kw, cin, cout, stride in conv_cases()]
    for k, s in POOL_GEOMETRIES:
        cases += [(MaxPool2D(k, s), (2, k + s, k, 3)),
                  (MaxPool2D(k, s), (1, k + 2 * s + 1, k + s + 1, 1))]
    cases.append((MaxPool2D(3, 5), (1, 3, 3, 2)))
    for shape in ((8,), (2, 8), (3, 4, 5, 8), (1, 1, 1, 1)):
        cases += [(ReLU(), shape), (Flatten(), shape)]
    cases += [(Flatten(), (2, 6, 5, 2)), (Dense(6, 3), (2, 6)), (Dense(6, 4), (5, 6)),
              (Dense(64, 16), (1, 64))]
    return cases


def rejected_shapes():
    """(layer, input shape) pairs that forward rejects, from the conv, pool
    and eval tests; ReLU and Flatten take every shape."""
    return [(Conv2D(3, 3, 2, 4), (1, 5, 5, 1)), (Conv2D(3, 3, 2, 4), (1, 2, 2, 2)),
            (Conv2D(3, 3, 2, 4), (1, 12, 12, 1)),
            (MaxPool2D(2, 2), (1, 1, 1, 1)), (MaxPool2D(4, 4), (2, 3, 5, 4)),
            (MaxPool2D(3, 3), (1, 5, 2, 1)), (MaxPool2D(2, 2), (3, 4)),
            (MaxPool2D(2, 2), (2, 4, 4)), (MaxPool2D(2, 2), (1, 2, 4, 4, 1)),
            (Dense(16, 5), (1, 64)), (Dense(7, 5), (1, 12, 12, 1)), (Dense(6, 3), (6,))]


def test_out_shape_is_the_forward_shape():
    rng = np.random.default_rng(74)
    for layer, shape in accepted_shapes():
        out = layer.out_shape(shape)
        assert out == layer.forward(rng.normal(0, 1, shape)).shape, (layer, shape)
        assert all(type(v) is int for v in out)
    net = default_net(input_size=16, seed=2)
    x = rng.normal(0, 1, (3, 16, 16, 1))
    assert net.out_shape(x.shape) == net.forward(x)[1].shape == (3, net_mod.CLASS_COUNT)


def test_out_shape_rejects_what_forward_rejects_with_its_message():
    for layer, shape in rejected_shapes():
        with pytest.raises(ShapeMismatchError) as by_rule:
            layer.out_shape(shape)
        with pytest.raises(ShapeMismatchError) as by_forward:
            layer.forward(np.zeros(shape))
        assert str(by_rule.value) == str(by_forward.value), (layer, shape)
    net = default_net(input_size=20, seed=0)
    with pytest.raises(ShapeMismatchError,
                       match=r"pool input \(1, 1, 1, 16\) is smaller than its 2x2 window"):
        net.out_shape((1, 8, 8, 1))


def fed_layer(kind):
    """A fresh layer of this kind and an input it accepts."""
    rng = np.random.default_rng(73)
    layer = {"Conv2D": lambda: Conv2D(3, 3, 2, 4, rng=rng),
             "MaxPool2D": lambda: MaxPool2D(2, 2),
             "ReLU": ReLU,
             "Flatten": Flatten,
             "Dense": lambda: Dense(6, 3, rng=rng)}[kind]()
    return layer, rng.normal(0, 1, (2, 6) if kind == "Dense" else (2, 6, 5, 2))


@pytest.mark.parametrize("kind", ["Conv2D", "MaxPool2D", "ReLU", "Flatten", "Dense"])
def test_backward_needs_a_pending_forward(kind):
    layer, x = fed_layer(kind)
    message = rf"{kind}\.backward needs a forward first"
    dout = np.ones(layer.forward(x).shape)
    with pytest.raises(RuntimeError, match=message):
        fed_layer(kind)[0].backward(dout)  # before any forward
    assert layer.backward(dout).shape == x.shape
    with pytest.raises(RuntimeError, match=message):
        layer.backward(dout)  # the first backward spent its forward
    layer.forward(x)
    assert layer.backward(dout).shape == x.shape
    layer.forward(x)
    layer.discard()
    with pytest.raises(RuntimeError, match=message):
        layer.backward(dout)  # discard dropped the forward


def test_forward_returns_embedding_and_scores():
    net = default_net(input_size=16, seed=1)
    img = gen_scene(0, 16, 1, 0)
    embedding, scores = forward(net, img)
    assert embedding.shape == (32,)
    assert scores.shape == (5,)
    with pytest.raises(ShapeMismatchError):
        forward(net, gen_scene(0, 20, 1, 0))


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def one_triplet_loss(a, p, n, margin):
    """Hinge loss of a single triplet through the batch API."""
    loss, _ = triplet_batch_loss(np.stack([a, p, n]), np.array([[0, 1, 2]]), margin)
    return loss


def test_triplet_all_equal_is_margin():
    v = np.array([1.0, 2.0])
    assert one_triplet_loss(v, v, v, margin=0.5) == 0.5


def test_triplet_far_negative_is_zero():
    a = np.array([0.0, 0.0])
    n = np.array([1.0, 0.0])  # d(a, n) = 1 >= margin
    assert one_triplet_loss(a, a, n, margin=0.5) == 0.0


def test_triplet_direct_evaluation():
    a = np.array([0.0, 0.0])
    p = np.array([1.0, 0.0])
    n = np.array([0.0, 2.0])
    # d_ap = 1, d_an = 4 -> max(0, 1 - 4 + 0.5) = 0
    assert one_triplet_loss(a, p, n, margin=0.5) == 0.0
    assert one_triplet_loss(a, p, n, margin=3.5) == pytest.approx(0.5)


def test_triplet_rotation_invariance():
    rng = np.random.default_rng(50)
    a, p, n = rng.normal(0, 1, (3, 6))
    q, _ = np.linalg.qr(rng.normal(0, 1, (6, 6)))
    before = one_triplet_loss(a, p, n, margin=1.0)
    after = one_triplet_loss(q @ a, q @ p, q @ n, margin=1.0)
    assert after == pytest.approx(before, abs=1e-9)


def test_triplet_validation():
    with pytest.raises(ValueError):
        one_triplet_loss(np.zeros(2), np.zeros(2), np.zeros(2), margin=0.0)


def reference_triplet_batch_loss(embeddings, triplets, margin):
    """The per-triplet loop that the whole-array loss replaced, kept as the
    reference."""
    emb = np.asarray(embeddings, dtype=np.float64)
    grad = np.zeros_like(emb)
    if not len(triplets):
        return 0.0, grad
    total = 0.0
    for anchor, positive, negative in triplets:
        a, p, n = emb[anchor], emb[positive], emb[negative]
        hinge = ((a - p) ** 2).sum() - ((a - n) ** 2).sum() + margin
        if hinge > 0:
            total += hinge
            grad[anchor] += 2.0 * (n - p)
            grad[positive] += -2.0 * (a - p)
            grad[negative] += 2.0 * (a - n)
    count = len(triplets)
    return float(total) / count, grad / count


def test_triplet_batch_loss_matches_per_triplet_reference():
    """Exact equality (loss repr, gradient bytes) on seeded batches: small
    integer embeddings (hinges exactly 0, tied distances), normal floats
    (where the order of additions shows), indices repeated within and
    across triplets, all-inactive batches and the empty list."""
    rng = np.random.default_rng(67)
    seen = {"zero_hinge": 0, "all_inactive": 0, "repeated": 0}
    for case in range(1200):
        n, dim = int(rng.integers(1, 9)), int(rng.integers(1, 6))
        if case % 2:
            emb = rng.integers(-2, 3, (n, dim)).astype(np.float64)
        else:
            emb = rng.normal(0, 1, (n, dim))
        margins = [0.5, 1.0, 2.0] if case % 2 else [0.01, 0.5, 3.0]
        margin = float(rng.choice(margins))
        triplets = rng.integers(0, n, (int(rng.integers(0, 13)), 3))
        loss, grad = triplet_batch_loss(emb, triplets, margin)
        expected_loss, expected_grad = reference_triplet_batch_loss(
            emb, triplets, margin)
        assert type(loss) is float and repr(loss) == repr(expected_loss)
        assert grad.tobytes() == expected_grad.tobytes()
        hinges = [((emb[a] - emb[p]) ** 2).sum() - ((emb[a] - emb[q]) ** 2).sum()
                  + margin for a, p, q in triplets]
        seen["zero_hinge"] += any(h == 0 for h in hinges)
        seen["all_inactive"] += bool(hinges) and all(h <= 0 for h in hinges)
        used = triplets.ravel().tolist()
        seen["repeated"] += len(used) != len(set(used))
    assert min(seen.values()) > 20, seen
    for empty in ([], np.zeros((0, 3), dtype=np.intp)):
        loss, grad = triplet_batch_loss(np.ones((2, 3)), empty, 0.5)
        assert loss == 0.0 and grad.tobytes() == np.zeros((2, 3)).tobytes()


def test_combined_loss_rejects_zero_weight():
    for weights in ((1.0, 0.0), (-1.0, 1.0), (math.nan, 1.0), (1.0, math.inf)):
        with pytest.raises(ValueError,
                           match="^every loss weight must be finite and > 0$"):
            TrainConfig(triplet_weight=weights[0], ce_weight=weights[1])


def test_combined_loss_weighted_sum():
    config = TrainConfig(triplet_weight=2.0, ce_weight=3.0)
    assert combined_loss(config, 0.5, 1.0) == pytest.approx(4.0)


def test_combined_loss_monotone_in_terms():
    config = TrainConfig(triplet_weight=0.5, ce_weight=2.0)
    base = combined_loss(config, 1.0, 1.0)
    assert combined_loss(config, 1.5, 1.0) > base
    assert combined_loss(config, 1.0, 1.5) > base


# The combined objective before TrainConfig carried the margin and both loss
# weights; kept verbatim as the exact reference for loss and gradients.
@dataclass(frozen=True)
class reference_LossWeights:
    """Finite, strictly positive coefficients of the combined objective."""

    values: tuple

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        if not vals:
            raise ValueError("need at least one loss weight")
        if not all(0 < v < math.inf for v in vals):
            raise ValueError("every loss weight must be finite and > 0")
        object.__setattr__(self, "values", vals)


def reference_combined_loss(weights: reference_LossWeights, terms) -> float:
    """Weighted sum of loss terms; the weights are validated strictly positive."""
    terms = tuple(float(t) for t in terms)
    if len(terms) != len(weights.values):
        raise ValueError("weight and term counts must match")
    return float(sum(a * f for a, f in zip(weights.values, terms)))


def reference__objective(emb, scores, labels, triplets, weights: reference_LossWeights,
                         margin):
    """The combined (triplet, cross-entropy) loss of one batch and its
    weighted gradients wrt embedding and scores: (loss, d_emb, d_scores)."""
    trip, d_emb = triplet_batch_loss(emb, triplets, margin)
    ce, d_scores = softmax_cross_entropy(scores, labels)
    a_trip, a_ce = weights.values
    return reference_combined_loss(weights, (trip, ce)), a_trip * d_emb, a_ce * d_scores


# (margin, triplet_weight, ce_weight): the defaults, then non-default values
OBJECTIVE_GRID = ((0.5, 1.0, 1.0), (0.3, 0.7, 1.3), (1.7, 2.5, 0.4),
                  (0.05, 1e-3, 3.0), (4.0, 1, 2))


def reference_objective_of(config):
    """net._objective's signature, computed by the reference objective."""
    weights = reference_LossWeights((config.triplet_weight, config.ce_weight))
    return lambda emb, scores, labels, triplets, _config: reference__objective(
        emb, scores, labels, triplets, weights, config.margin)


@pytest.mark.parametrize("margin,triplet_weight,ce_weight", OBJECTIVE_GRID)
def test_objective_matches_the_reference_objective(margin, triplet_weight, ce_weight):
    config = TrainConfig(margin=margin, triplet_weight=triplet_weight,
                         ce_weight=ce_weight)
    rng = np.random.default_rng(71)
    for _ in range(20):
        emb = rng.normal(0, 1, (12, 4))
        scores = rng.normal(0, 2, (12, 5))
        labels = rng.integers(0, 3, 12)
        triplets = mine_triplets(emb, labels, warn_skipped=False)
        got = net_mod._objective(emb, scores, labels, triplets, config)
        want = reference_objective_of(config)(emb, scores, labels, triplets, None)
        assert repr(got[0]) == repr(want[0])
        assert got[1].tobytes() == want[1].tobytes()
        assert got[2].tobytes() == want[2].tobytes()


@pytest.mark.parametrize("margin,triplet_weight,ce_weight", OBJECTIVE_GRID)
def test_train_and_grad_check_match_the_reference_objective(
        monkeypatch, margin, triplet_weight, ce_weight):
    images, labels = scene_batch(size=16)
    config = TrainConfig(epochs=2, learning_rate=0.05, batch_size=4, seed=3,
                         margin=margin, triplet_weight=triplet_weight,
                         ce_weight=ce_weight)
    net, ref = default_net(input_size=16, seed=5), default_net(input_size=16, seed=5)
    err = grad_check(net, images, labels, config, samples=20, seed=2)
    _, trace = train(net, images, labels, config)
    monkeypatch.setattr(net_mod, "_objective", reference_objective_of(config))
    expected_err = grad_check(ref, images, labels, config, samples=20, seed=2)
    _, expected = train(ref, images, labels, config)
    assert repr(err) == repr(expected_err)
    assert repr(trace) == repr(expected)
    for got, want in zip(net.parameter_arrays(), ref.parameter_arrays()):
        assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# gradient check
# ---------------------------------------------------------------------------

def test_grad_check_linear_net():
    rng = np.random.default_rng(51)
    net = Network([Flatten(), Dense(64, 16, rng=rng), Dense(16, 5, rng=rng)])
    images, labels = scene_batch(size=8)
    err = grad_check(net, images, labels, TrainConfig(), seed=5)
    assert err < 1e-6


def test_grad_check_default_stack():
    net = default_net(input_size=16, seed=3)
    images, labels = scene_batch(size=16)
    err = grad_check(net, images, labels, TrainConfig(), samples=60, seed=11)
    assert err < 1e-3


def test_grad_check_rejects_large_nets():
    net = default_net(input_size=20, seed=0)  # 6053 parameters
    assert net.parameter_count() > 5000
    images, labels = scene_batch(size=20)
    with pytest.raises(ValueError):
        grad_check(net, images, labels, TrainConfig())


def test_grad_check_rejects_no_samples():
    # No sampled parameter would compare nothing and pass vacuously.
    net = Network([Flatten(), Dense(64, 5, rng=np.random.default_rng(52))])
    images, labels = scene_batch(size=8)
    for samples in (0, -1):
        with pytest.raises(ValueError, match="samples must be >= 1"):
            grad_check(net, images, labels, TrainConfig(), samples=samples)


def test_grad_check_rejects_bad_step():
    net = Network([Flatten(), Dense(64, 5, rng=np.random.default_rng(53))])
    images, labels = scene_batch(size=8)
    for step in (0.0, -1e-4, math.nan, math.inf):
        with pytest.raises(ValueError, match="step must be finite and > 0"):
            grad_check(net, images, labels, TrainConfig(), step=step)


def test_parameter_only_backward_matches_full_backward():
    rng = np.random.default_rng(68)
    cases = ((Conv2D(3, 2, 2, 3, stride=2, rng=rng), rng.normal(0, 1, (2, 8, 7, 2))),
             (Conv2D(3, 3, 1, 8, rng=rng), rng.normal(0, 1, (4, 12, 12, 1))),
             (Dense(6, 4, rng=rng), rng.normal(0, 1, (5, 6))))
    for layer, x in cases:
        dout = rng.normal(0, 1, layer.forward(x).shape)
        assert layer.backward(dout).shape == x.shape
        full = (layer.d_weights.tobytes(), layer.d_bias.tobytes())
        layer.forward(x)
        assert layer.backward(dout, input_grad=False) is None
        assert (layer.d_weights.tobytes(), layer.d_bias.tobytes()) == full


def spy_on_backward(net):
    """Record (layer index, keyword arguments) of every layer backward call."""
    calls = []
    for i, layer in enumerate(net.layers):
        def spy(dout, _index=i, _original=layer.backward, **kwargs):
            calls.append((_index, kwargs))
            return _original(dout, **kwargs)
        layer.backward = spy
    return calls


def reference_network_backward(net, d_embedding, d_scores):
    """Network.backward before it stopped at the first trainable layer:
    every layer back to the input, returning the input gradient."""
    d = net.layers[-1].backward(d_scores)
    if d_embedding is not None:
        d = d + d_embedding
    for layer in reversed(net.layers[:-1]):
        d = layer.backward(d)
    return d


def test_default_net_backward_skips_the_input_gradient():
    net = default_net(input_size=16, seed=3)
    images, _ = scene_batch(size=16)
    calls = spy_on_backward(net)
    emb, scores = net.forward(np.stack([img.plane() / 255.0 for img in images])[..., None])
    assert net.backward(np.ones_like(emb), np.ones_like(scores)) is None
    last = len(net.layers) - 1
    assert calls == [(i, {}) for i in range(last, 0, -1)] + [(0, {"input_grad": False})]


def test_backward_stops_before_layers_without_parameters():
    rng = np.random.default_rng(69)
    net = Network([Flatten(), Dense(64, 16, rng=rng), ReLU(), Dense(16, 5, rng=rng)])
    images, labels = scene_batch(size=8, per_class=2)
    calls = spy_on_backward(net)
    config = TrainConfig(epochs=40, learning_rate=0.05, batch_size=10, seed=2)
    _, trace = train(net, images, labels, config)
    assert trace[-1] < 0.5 * trace[0]
    assert calls[:3] == [(3, {}), (2, {}), (1, {"input_grad": False})]
    assert {index for index, _ in calls} == {1, 2, 3}  # Flatten is never called


def test_gradients_and_criterion_4_value_match_full_backward(monkeypatch):
    """Criterion 4's setup: the parameter gradients, and so grad_check's
    value, are the same bytes as with the full backward to the input."""
    images, labels = scene_batch(size=16)
    net, ref = default_net(input_size=16, seed=3), default_net(input_size=16, seed=3)
    monkeypatch.setattr(ref, "backward", lambda d_emb, d_scores:
                        reference_network_backward(ref, d_emb, d_scores))
    x = np.stack([img.plane() / 255.0 for img in images])[..., None]
    d_emb = np.random.default_rng(70).normal(0, 1, (len(images), 32))
    for model in (net, ref):
        _, scores = model.forward(x)
        model.backward(d_emb, np.ones_like(scores))
    for got, expected in zip(net.gradient_arrays(), ref.gradient_arrays()):
        assert got.tobytes() == expected.tobytes()
    err = grad_check(net, images, labels, TrainConfig(), samples=60, seed=11)
    expected_err = grad_check(ref, images, labels, TrainConfig(), samples=60, seed=11)
    assert repr(err) == repr(expected_err)


# ---------------------------------------------------------------------------
# mining and augmentation
# ---------------------------------------------------------------------------

def test_mine_two_by_two_forced_choice():
    emb = np.array([[0.0], [1.0], [10.0], [11.0]])
    labels = [0, 0, 1, 1]
    triplets = mine_triplets(emb, labels)
    assert len(triplets) == 4
    assert triplets[0].tolist() == [0, 1, 2]


def test_mine_identical_embeddings_tie_to_lowest_index():
    emb = np.zeros((4, 3))
    labels = [0, 0, 1, 1]
    triplets = mine_triplets(emb, labels)
    assert triplets[0, 1:].tolist() == [1, 2]
    assert triplets[2, 1:].tolist() == [3, 0]
    again = mine_triplets(emb, labels)
    assert np.array_equal(triplets, again)


def test_mine_matches_brute_force_scan():
    rng = np.random.default_rng(52)
    emb = rng.normal(0, 1, (20, 4))
    labels = rng.integers(0, 3, 20)
    while np.unique(labels).size < 2:
        labels = rng.integers(0, 3, 20)
    triplets = mine_triplets(emb, labels)
    for anchor, positive, negative in triplets:
        best_pos, best_pos_d = None, np.inf
        best_neg, best_neg_d = None, np.inf
        for j in range(20):
            d = float(((emb[anchor] - emb[j]) ** 2).sum())
            if j != anchor and labels[j] == labels[anchor] and d < best_pos_d:
                best_pos, best_pos_d = j, d
            if labels[j] != labels[anchor] and d < best_neg_d:
                best_neg, best_neg_d = j, d
        assert positive == best_pos
        assert negative == best_neg


reference_logger = logging.getLogger("reference_mining")


def reference_mine_triplets(embeddings, labels, warn_skipped=True):
    """The per-anchor mining loop that the masked argmin replaced, kept as
    the reference: a list of (anchor, positive, negative) tuples."""
    logger = reference_logger
    emb = np.asarray(embeddings, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    diff2 = ((emb[:, None, :] - emb[None, :, :]) ** 2).sum(axis=2)
    n = emb.shape[0]
    triplets = []
    skipped = []
    for anchor in range(n):
        same = np.flatnonzero((labels == labels[anchor]) & (np.arange(n) != anchor))
        other = np.flatnonzero(labels != labels[anchor])
        if same.size == 0 or other.size == 0:
            skipped.append(anchor)
            continue
        pos = int(same[np.argmin(diff2[anchor, same])])
        neg = int(other[np.argmin(diff2[anchor, other])])
        triplets.append((anchor, pos, neg))
    if skipped and warn_skipped:
        logger.warning("skipped %d anchors with no positive or no negative: %s",
                       len(skipped), skipped)
    return triplets


def test_mine_matches_per_anchor_reference_with_ties(caplog):
    rng = np.random.default_rng(64)
    singleton_cases = 0
    for case in range(240):
        n = int(rng.integers(2, 13))
        labels = rng.integers(0, int(rng.integers(2, 6)), n)
        if np.unique(labels).size < 2:
            labels[0] = labels[1] + 1
        # small integers: many exactly equal distances
        emb = rng.integers(0, 3, (n, int(rng.integers(1, 4)))).astype(np.float64)
        caplog.clear()
        with caplog.at_level(logging.WARNING):
            got = mine_triplets(emb, labels)
            expected = reference_mine_triplets(emb, labels)
        assert got.dtype.kind == "i" and got.shape == (len(expected), 3)
        assert [tuple(row) for row in got.tolist()] == expected
        messages = [r.getMessage() for r in caplog.records]
        classes, counts = np.unique(labels, return_counts=True)
        if (counts == 1).any():
            singleton_cases += 1
            assert len(messages) == 2 and messages[0] == messages[1]
            skipped = [a for a in range(n) if counts[classes == labels[a]][0] == 1]
            assert messages[0].endswith(str(skipped))
        else:
            assert messages == []
    assert singleton_cases > 50


def test_mine_warning_can_be_silenced(caplog):
    with caplog.at_level(logging.WARNING):
        mine_triplets(np.array([[0.0], [1.0], [2.0]]), [0, 1, 1],
                      warn_skipped=False)
    assert caplog.records == []


def test_mine_skips_singleton_classes():
    emb = np.array([[0.0], [1.0], [2.0]])
    labels = [0, 1, 1]
    triplets = mine_triplets(emb, labels)
    assert 0 not in triplets[:, 0]
    assert len(triplets) == 2


def test_mine_single_class_batch_mines_no_row(caplog):
    with caplog.at_level(logging.WARNING):
        triplets = mine_triplets(np.zeros((3, 2)), [1, 1, 1])
    assert triplets.shape == (0, 3) and triplets.dtype.kind == "i"
    assert [r.getMessage() for r in caplog.records] == [
        "skipped 3 anchors with no positive or no negative: [0, 1, 2]"]


def test_triplet_margin_validation():
    # NaN fails every comparison, so a `margin <= 0` check would let it through
    for margin in (0.0, -0.5, math.nan, math.inf):
        for triplets in (np.array([[0, 1, 2]]), np.zeros((0, 3), dtype=np.intp)):
            with pytest.raises(ValueError, match="^margin must be finite and > 0$"):
                triplet_batch_loss(np.zeros((3, 2)), triplets, margin)


def test_augment_full_size_copies():
    img = gen_scene(1, 10, 1, 0)
    crops = augment(img, 10)
    assert len(crops) == 5
    assert all(c == img for c in crops)


def test_augment_corner_and_center_indices():
    arr = np.arange(16, dtype=np.uint8).reshape(4, 4)
    crops = augment(Image(arr), 2)
    assert crops[0].pixels.tolist() == arr[0:2, 0:2].tolist()   # TL
    assert crops[1].pixels.tolist() == arr[0:2, 2:4].tolist()   # TR
    assert crops[2].pixels.tolist() == arr[2:4, 0:2].tolist()   # BL
    assert crops[3].pixels.tolist() == arr[2:4, 2:4].tolist()   # BR
    assert crops[4].pixels.tolist() == arr[1:3, 1:3].tolist()   # C


def test_augment_center_floors_odd_difference():
    arr = np.arange(16, dtype=np.uint8).reshape(4, 4)
    crops = augment(Image(arr), 3)
    assert crops[4].pixels.tolist() == arr[0:3, 0:3].tolist()


def test_augment_rejects_oversized_crop():
    with pytest.raises(ValueError):
        augment(gen_scene(0, 8, 1, 0), 9)


def test_augment_crops_are_exact_subarrays():
    rng = np.random.default_rng(53)
    arr = rng.integers(0, 256, (9, 7), dtype=np.uint8)
    for crop in augment(Image(arr), 4):
        found = False
        for r in range(9 - 4 + 1):
            for c in range(7 - 4 + 1):
                if np.array_equal(crop.pixels, arr[r:r + 4, c:c + 4]):
                    found = True
        assert found


# ---------------------------------------------------------------------------
# training and prediction
# ---------------------------------------------------------------------------

def test_train_zero_learning_rate_keeps_parameters():
    net = default_net(input_size=16, seed=2)
    before = [a.copy() for a in net.parameter_arrays()]
    images, labels = scene_batch(size=16)
    config = TrainConfig(epochs=2, learning_rate=0.0, batch_size=4, seed=0)
    train(net, images, labels, config)
    for a, b in zip(net.parameter_arrays(), before):
        assert np.array_equal(a, b)


def test_train_overfits_small_batch():
    net = default_net(input_size=16, seed=4)
    images, labels = scene_batch(size=16, per_class=2)
    config = TrainConfig(epochs=200, learning_rate=0.05, batch_size=10, seed=1)
    _, trace = train(net, images, labels, config)
    assert trace[-1] < 0.10 * trace[0]
    assert predict(net, images)[0].tolist() == labels


def test_train_deterministic_per_seed():
    images, labels = scene_batch(size=16)
    traces = []
    for _ in range(2):
        net = default_net(input_size=16, seed=6)
        config = TrainConfig(epochs=3, learning_rate=0.05, batch_size=5, seed=21)
        _, trace = train(net, images, labels, config)
        traces.append(trace)
    assert traces[0] == traces[1]


def reference_train(net, images, labels, config, weights):
    """train's step before the objective had one implementation, kept as the
    reference: a single-class batch skips mining, and the cross-entropy
    term, triplet term and combined loss are assembled separately before the
    weighted backward. Also returns the number of single-class batches."""
    x_all = np.stack([img.plane() / 255.0 for img in images])[..., None]
    y_all = np.asarray(labels, dtype=np.int64)
    rng = np.random.default_rng(config.seed)
    trace, single_class = [], 0
    for _ in range(config.epochs):
        order = rng.permutation(len(images))
        epoch_loss, batch_count = 0.0, 0
        for start in range(0, len(images), config.batch_size):
            idx = order[start:start + config.batch_size]
            xb, yb = x_all[idx], y_all[idx]
            emb, scores = net.forward(xb)
            ce, d_scores = softmax_cross_entropy(scores, yb)
            if np.unique(yb).size >= 2:
                triplets = reference_mine_triplets(emb, yb, warn_skipped=False)
                trip, d_emb = reference_triplet_batch_loss(emb, triplets, config.margin)
            else:
                single_class += 1
                trip, d_emb = 0.0, np.zeros_like(emb)
            a_trip, a_ce = weights.values
            epoch_loss += reference_combined_loss(weights, (trip, ce))
            batch_count += 1
            net.backward(a_trip * d_emb, a_ce * d_scores)
            for layer in net.trainable():
                layer.weights -= config.learning_rate * layer.d_weights
                layer.bias -= config.learning_rate * layer.d_bias
        trace.append(epoch_loss / batch_count)
    return trace, single_class


def test_train_matches_per_step_reference_with_single_class_batches():
    images, labels = scene_batch(size=16, per_class=3)
    weights = reference_LossWeights((0.7, 1.3))
    config = TrainConfig(epochs=4, learning_rate=0.05, batch_size=2, seed=8,
                         margin=0.8, triplet_weight=0.7, ce_weight=1.3)
    net, ref = default_net(input_size=16, seed=4), default_net(input_size=16, seed=4)
    _, trace = train(net, images, labels, config)
    expected, single_class = reference_train(ref, images, labels, config, weights)
    assert single_class > 0
    assert repr(trace) == repr(expected)
    for got, want in zip(net.parameter_arrays(), ref.parameter_arrays()):
        assert got.tobytes() == want.tobytes()


def test_default_net_sets_the_smallest_input():
    """Two 3x3 convs, each pooled 2x2, leave a 1x1 map of 16 channels on a
    10x10 input and no map on 9x9; the first dense layer takes the map."""
    assert default_net(input_size=10).out_shape((1, 10, 10, 1)) == (1, net_mod.CLASS_COUNT)
    with pytest.raises(ValueError, match="too small"):
        default_net(input_size=9)
    for size, side in ((10, 1), (16, 2), (20, 3), (33, 6)):
        assert default_net(input_size=size).layers[-3].din == side ** 2 * 16


def test_train_validates_dataset():
    net = default_net(input_size=16, seed=0)
    with pytest.raises(ValueError):
        train(net, [], [], TrainConfig())
    images, labels = scene_batch(size=16, per_class=1)
    with pytest.raises(ValueError, match="missing classes"):
        train(net, images[:3], labels[:3], TrainConfig())


def reference_crops(images, labels, crop_size):
    """The five-crop expansion that net.train made under TrainConfig.crop_size
    before train --crop took it over, verbatim."""
    crops = [augment(img, crop_size) for img in images]
    labels = [lbl for lbl, five in zip(labels, crops) for _ in five]
    images = [crop for five in crops for crop in five]
    return images, labels


def test_train_with_augmentation_runs():
    images, labels = reference_crops(*scene_batch(size=20, per_class=1), 16)
    net = default_net(input_size=16, seed=0)
    config = TrainConfig(epochs=1, learning_rate=0.01, batch_size=10, seed=0)
    _, trace = train(net, images, labels, config)
    assert len(trace) == 1


@pytest.mark.parametrize("crop", [12, 14])
def test_cli_crops_train_as_the_old_crop_path(tmp_path, monkeypatch, crop):
    """net.train on the crops that train --crop expands gives the parameter
    bytes and loss trace of net.train on the reference expansion."""
    traces = []

    def recording_train(*args):
        network, trace = train(*args)
        traces.append(trace)
        return network, trace

    monkeypatch.setattr(net_mod, "train", recording_train)
    model = tmp_path / "model.bin"
    assert main(["train", "--size", "16", "--images-per-class", "3", "--epochs", "2",
                 "--batch-size", "7", "--crop", str(crop), "--seed", "4",
                 "--out", str(model)]) == 0
    images, labels = reference_crops(*_cell_dataset(4, 3, 16, 1), crop)
    ref, expected = train(default_net(input_size=crop, seed=4), images, labels,
                          TrainConfig(epochs=2, batch_size=7, seed=4))
    assert repr(traces) == repr([expected])
    for got, want in zip(load_net(model).parameter_arrays(), ref.parameter_arrays()):
        assert got.tobytes() == want.tobytes()


REFERENCE_LAYERS = {"Conv2D": ReferenceGemmConv2D, "ReLU": ReferenceReLU,
                    "MaxPool2D": ReferenceMaxPool2D}


@pytest.mark.parametrize("crop_size", [None, 12], ids=["full", "crop12"])
def test_training_is_bitwise_the_reference_kernels(monkeypatch, crop_size):
    images, labels = scene_batch(size=16)
    if crop_size is not None:
        images, labels = reference_crops(images, labels, crop_size)
    config = TrainConfig(epochs=2, batch_size=4, seed=3)
    side = 16 if crop_size is None else crop_size
    net, trace = train(default_net(input_size=side, seed=5), images, labels, config)
    for name, cls in REFERENCE_LAYERS.items():
        monkeypatch.setattr(net_mod, name, cls)
    ref, expected = train(default_net(input_size=side, seed=5), images, labels, config)
    assert {type(layer) for layer in ref.layers} >= set(REFERENCE_LAYERS.values())
    assert repr(trace) == repr(expected)
    for got, want in zip(net.parameter_arrays(), ref.parameter_arrays()):
        assert got.tobytes() == want.tobytes()


def test_criterion_4_value_is_bitwise_the_reference_kernels(monkeypatch):
    images, labels = scene_batch(size=16)
    err = grad_check(default_net(input_size=16, seed=3), images, labels,
                     TrainConfig(), samples=60, seed=11)
    for name, cls in REFERENCE_LAYERS.items():
        monkeypatch.setattr(net_mod, name, cls)
    expected = grad_check(default_net(input_size=16, seed=3), images, labels,
                          TrainConfig(), samples=60, seed=11)
    assert repr(err) == repr(expected)


def test_predict_zeroed_final_layer_ties_to_class_zero():
    net = default_net(input_size=16, seed=7)
    final = net.layers[-1]
    final.weights[:] = 0.0
    final.bias[:] = 0.0
    classes, scores = predict(net, [gen_scene(3, 16, 1, 5)])
    assert classes.tolist() == [0]
    assert scores.shape == (1, 5)
    assert np.all(scores == scores[0, 0])


@pytest.mark.parametrize("count", [1, 24, 25, 26, 51])
def test_predict_scores_are_bitwise_the_per_image_forward(count):
    """predict runs the convolutional layers on chunks of TrainConfig's
    default batch size (25) and the dense head per row; every score row
    keeps the bytes of forward on the image alone, on both sides of a chunk
    edge."""
    assert TrainConfig.batch_size == 25
    net = default_net(input_size=16, seed=9)
    images = [gen_scene(i % 5, 16, 2, i) for i in range(count)]
    classes, scores = predict(net, images)
    expected = np.stack([forward(net, img)[1] for img in images])
    assert scores.shape == (count, net_mod.CLASS_COUNT)
    assert scores.tobytes() == expected.tobytes()
    assert classes.tolist() == [int(np.argmax(row)) for row in expected]


@pytest.mark.parametrize("layers, exact", [
    ([Conv2D(12, 12, 1, 5)], False),
    ([Conv2D(3, 3, 1, 5), MaxPool2D(10, 10)], True),
], ids=["lone-conv", "conv-pool"])
def test_predict_flattens_the_scores_of_a_net_without_dense_layers(layers, exact):
    """A net with no Dense layer scores 12 px images as (1, 1, 1, 5) maps:
    predict runs it whole on each chunk and flattens every row, so classes
    are the argmax of forward's flattened scores. A 3x3 convolution keeps
    forward's bytes; a 12x12 one is a one-row product per image, which BLAS
    rounds differently from the chunk's many-row one. Signed weights make
    the classes differ between images."""
    layers[0].weights[:] = np.random.default_rng(4).normal(size=layers[0].weights.shape)
    net = Network(layers)
    images, _ = _cell_dataset(4, 6, 12, 2, trial=1)
    classes, scores = predict(net, images)
    expected = np.stack([forward(net, img)[1].reshape(-1) for img in images])
    assert scores.shape == (30, net_mod.CLASS_COUNT)
    if exact:
        assert scores.tobytes() == expected.tobytes()
    np.testing.assert_allclose(scores, expected, rtol=1e-14, atol=0)
    assert classes.tolist() == [int(np.argmax(row)) for row in expected]
    assert len(set(classes.tolist())) > 1


def test_predict_leaves_no_forward_pending():
    """predict discards each chunk's saved state: a backward after it raises
    as after a fresh build, and a training step after it still runs."""
    net = default_net(input_size=16, seed=2)
    images = [gen_scene(i % 5, 16, 2, i) for i in range(30)]
    predict(net, images)
    for layer in net.layers:
        with pytest.raises(RuntimeError, match="needs a forward first"):
            layer.backward(np.ones(1))
    train(net, images, [i % 5 for i in range(30)], TrainConfig(epochs=1, seed=0))


def test_training_step_heap_peak_stays_bounded():
    """tracemalloc's high-water mark of one default_net(20) training step at
    batch 25, after a first step has filled the index caches. A peak above
    the bound (2,732 KiB measured with numpy 2.4) can make glibc give heap
    pages back and fault them in again on every step of a fresh process,
    which the benchmark's median hides."""
    images = [gen_scene(i % 5, 20, 2, i) for i in range(25)]
    labels = [i % 5 for i in range(25)]
    net = default_net(input_size=20, seed=0)
    config = TrainConfig(epochs=1, batch_size=25, seed=0)
    train(net, images, labels, config)
    tracemalloc.start()
    try:
        train(net, images, labels, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2800 * 1024


def test_checkpoint_round_trip(tmp_path):
    net = default_net(input_size=16, seed=8)
    images, labels = scene_batch(size=16)
    config = TrainConfig(epochs=1, learning_rate=0.05, batch_size=5, seed=3)
    train(net, images, labels, config)
    path = tmp_path / "model.bin"
    save_net(net, path)
    loaded = load_net(path)
    c1, s1 = predict(net, images)
    c2, s2 = predict(loaded, images)
    assert np.array_equal(c1, c2)
    assert np.array_equal(s1, s2)


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
    with pytest.raises(ValueError):
        load_net(path)
    # kind 3 (average pooling) is retired
    path.write_bytes(b"SGNET001" + struct.pack("<IB2I", 1, 3, 2, 2))
    with pytest.raises(ValueError, match="unknown layer kind 3"):
        load_net(path)
    path.write_bytes(b"SGNET001" + struct.pack("<I", 0))
    with pytest.raises(ValueError, match="^checkpoint has no layers$"):
        load_net(path)


ZERO_FIELDS = [(kind, cls, names, name)
               for kind, (cls, names) in net_mod._LAYER_KINDS.items()
               for name in names]


@pytest.mark.parametrize("kind, cls, names, name", ZERO_FIELDS,
                         ids=[f"{c[1].__name__}-{c[3]}" for c in ZERO_FIELDS])
def test_checkpoint_rejects_a_zero_layer_field(tmp_path, kind, cls, names, name):
    record = struct.pack(f"<B{len(names)}I", kind,
                         *(0 if field == name else 2 for field in names))
    path = tmp_path / "bad.bin"
    path.write_bytes(b"SGNET001" + struct.pack("<IB", 2, 4) + record)  # relu first
    with pytest.raises(ValueError, match=rf"^checkpoint layer 1 \({cls.__name__}\) "
                                         rf"has {name} = 0; it must be >= 1$"):
        load_net(path)


# The checkpoint writer and reader as they were before one kind table
# (net._LAYER_KINDS) declared the layer records; kept verbatim as the exact
# reference for the byte format.
_KIND_CODES = {Conv2D: 1, MaxPool2D: 2, ReLU: 4, Flatten: 5, Dense: 6}


def reference_save_net(net: Network, path):
    blob = bytearray(b"SGNET001")
    blob += struct.pack("<I", len(net.layers))
    for layer in net.layers:
        kind = _KIND_CODES[type(layer)]
        blob += struct.pack("<B", kind)
        if isinstance(layer, Conv2D):
            blob += struct.pack("<5I", layer.kh, layer.kw, layer.cin,
                                layer.cout, layer.stride)
        elif isinstance(layer, MaxPool2D):
            blob += struct.pack("<2I", layer.window, layer.stride)
        elif isinstance(layer, Dense):
            blob += struct.pack("<2I", layer.din, layer.dout)
    for layer in net.trainable():
        blob += layer.weights.astype("<f8").tobytes()
        blob += layer.bias.astype("<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(bytes(blob))


def reference_load_net(path) -> Network:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:8] != b"SGNET001":
        raise ValueError("not a network checkpoint (bad magic)")
    pos = 8
    (layer_count,) = struct.unpack_from("<I", blob, pos)
    pos += 4
    layers = []
    for _ in range(layer_count):
        (kind,) = struct.unpack_from("<B", blob, pos)
        pos += 1
        if kind == 1:
            kh, kw, cin, cout, stride = struct.unpack_from("<5I", blob, pos)
            pos += 20
            layers.append(Conv2D(kh, kw, cin, cout, stride))
        elif kind == 2:
            window, stride = struct.unpack_from("<2I", blob, pos)
            pos += 8
            layers.append(MaxPool2D(window, stride))
        elif kind == 4:
            layers.append(ReLU())
        elif kind == 5:
            layers.append(Flatten())
        elif kind == 6:
            din, dout = struct.unpack_from("<2I", blob, pos)
            pos += 8
            layers.append(Dense(din, dout))
        else:
            raise ValueError(f"unknown layer kind {kind}")
    net = Network(layers)
    for layer in net.trainable():
        for name in ("weights", "bias"):
            arr = getattr(layer, name)
            nbytes = arr.size * 8
            data = np.frombuffer(blob[pos:pos + nbytes], dtype="<f8")
            if data.size != arr.size:
                raise ValueError("checkpoint truncated")
            setattr(layer, name, data.reshape(arr.shape).copy())
            pos += nbytes
    if pos != len(blob):
        raise ValueError("checkpoint has trailing data")
    return net


def strided_net(seed):
    """A stride-2 conv and a gapped pool (stride above window), for 14x14
    inputs."""
    rng = np.random.default_rng(seed)
    return Network([Conv2D(3, 3, 1, 4, stride=2, rng=rng), ReLU(),
                    MaxPool2D(2, 3), Flatten(), Dense(2 * 2 * 4, 5, rng=rng)])


def dense_net(seed):
    rng = np.random.default_rng(seed)
    return Network([Dense(6, 4, rng=rng), ReLU(), Dense(4, 3, rng=rng)])


CHECKPOINT_SEEDS = (0, 1, 7, 2026)
CHECKPOINT_NETS = [
    *[(f"default{size}", lambda seed, size=size: default_net(size, seed))
      for size in (10, 12, 20, 32)],
    ("strided", strided_net),
    ("dense", dense_net),
]


def assert_same_net(a: Network, b: Network):
    assert [type(layer) for layer in a.layers] == [type(layer) for layer in b.layers]
    for x, y in zip(a.layers, b.layers):
        assert vars(x).keys() == vars(y).keys()
        for name, value in vars(x).items():
            if isinstance(value, np.ndarray):
                assert value.dtype == getattr(y, name).dtype
                assert np.array_equal(value, getattr(y, name))
            elif value is not None:
                assert value == getattr(y, name)


@pytest.mark.parametrize("name, build", CHECKPOINT_NETS,
                         ids=[name for name, _ in CHECKPOINT_NETS])
def test_checkpoint_matches_the_reference_format(tmp_path, name, build):
    ours, ref = tmp_path / "ours.bin", tmp_path / "ref.bin"
    for seed in CHECKPOINT_SEEDS:
        net = build(seed)
        save_net(net, ours)
        reference_save_net(net, ref)
        assert ours.read_bytes() == ref.read_bytes()
        loaded = load_net(ref)
        assert_same_net(loaded, reference_load_net(ref))
        assert_same_net(loaded, net)


def test_checkpoint_truncated_at_every_offset(tmp_path):
    path = tmp_path / "model.bin"
    save_net(strided_net(3), path)
    blob = path.read_bytes()
    for cut in range(len(b"SGNET001"), len(blob)):
        path.write_bytes(blob[:cut])
        with pytest.raises(ValueError, match="^checkpoint truncated$"):
            load_net(path)
