import numpy as np
import pytest

from scenegame.image import Image, gen_scene
from scenegame.preprocess import (
    dft_enhance,
    equalize,
    equalize_planes,
    haar_enhance,
    haar_forward,
    haar_inverse,
    histogram_entropy,
)


def gray(rows):
    return Image(np.asarray(rows, dtype=np.uint8))


# ---------------------------------------------------------------------------
# equalize
# ---------------------------------------------------------------------------

def test_equalize_constant_returns_input():
    img = gray(np.full((4, 4), 128))
    assert equalize(img) == img


def reference_equalize(img):
    """equalize as it was before the stacked equalizer, verbatim."""
    plane = img.plane()
    counts = np.bincount(plane.ravel(), minlength=256)
    cum = np.cumsum(counts)
    total = int(cum[-1])
    cum_min = int(cum[np.nonzero(counts)[0][0]])
    if cum_min == total:  # single occupied bin: constant image
        return Image(plane)
    # Integer form of the mapping; exact floor, no float rounding.
    lut = (cum - cum_min) * 255 // (total - cum_min)
    lut = np.clip(lut, 0, 255).astype(np.uint8)
    return Image(lut[plane])


def test_stacked_equalize_is_the_per_image_equalize():
    """Constant, two-level, full-range, random and scene planes, stacked
    together so each plane's histogram must stay its own."""
    rng = np.random.default_rng(14)
    for h, w in ((1, 1), (1, 9), (6, 1), (8, 8), (20, 20), (16, 32)):
        planes = [np.full((h, w), v) for v in (0, 77, 255)]
        planes += [rng.choice(pair, (h, w)) for pair in ((0, 255), (3, 4), (100, 250))]
        planes.append(np.arange(h * w).reshape(h, w) % 256)  # full range from 16x16 up
        planes += [rng.integers(lo, hi, (h, w), endpoint=True)
                   for lo, hi in ((0, 255), (40, 60), (200, 255))]
        if h == w >= 8:
            planes += [gen_scene(c, h, n, 7).pixels for c in range(5) for n in (1, 3)]
        stack = np.stack(planes).astype(np.uint8)
        for order in (stack, stack[::-1]):
            out = equalize_planes(order)
            assert out.shape == order.shape and out.dtype == np.uint8
            for got, plane in zip(out, order):
                expected = reference_equalize(Image(plane))
                assert got.tobytes() == expected.pixels.tobytes()
                assert equalize(Image(plane)) == expected


@pytest.mark.parametrize("h, w", [(1, 1), (4, 5), (20, 20)])
def test_equalize_empty_stack_is_empty(h, w):
    out = equalize_planes(np.zeros((0, h, w), dtype=np.uint8))
    assert out.shape == (0, h, w) and out.dtype == np.uint8


def test_equalize_two_extremes():
    # cdf(0) = 0.5 = cdf_min -> 0; cdf(255) = 1 -> 255
    assert equalize(gray([[0, 255]])).pixels.tolist() == [[0, 255]]


def test_equalize_four_levels():
    # cdf = .5/.5/.75/1.0 with cdf_min .5 -> floor scaling to 0/0/127/255
    out = equalize(gray([[10, 10, 20, 30]]))
    assert out.pixels.tolist() == [[0, 0, 127, 255]]


def test_equalize_idempotent_within_one_level():
    rng = np.random.default_rng(8)
    for _ in range(60):
        arr = rng.integers(0, 256, (rng.integers(1, 16), rng.integers(1, 16)),
                           dtype=np.uint8)
        once = equalize(Image(arr))
        twice = equalize(once)
        delta = np.abs(twice.pixels.astype(int) - once.pixels.astype(int))
        assert delta.max() <= 1


def test_equalize_preserves_rank_order():
    rng = np.random.default_rng(9)
    for _ in range(100):
        arr = rng.integers(0, 256, (8, 8), dtype=np.uint8)
        out = equalize(Image(arr))
        src = arr.ravel()
        dst = out.pixels.ravel()
        order = np.argsort(src, kind="stable")
        assert np.all(np.diff(dst[order].astype(int)) >= 0)
        # equal inputs map to equal outputs
        for v in np.unique(src):
            assert np.unique(dst[src == v]).size == 1


# ---------------------------------------------------------------------------
# dft_enhance
# ---------------------------------------------------------------------------

def test_dft_lowpass_constant_identity():
    img = gray(np.full((6, 6), 77))
    for cutoff in (0.1, 0.5, 1.0):
        assert dft_enhance(img, "lowpass", cutoff) == img


def test_dft_highpass_constant_zeros():
    img = gray(np.full((6, 6), 77))
    out = dft_enhance(img, "highpass", 0.5)
    assert np.all(out.pixels == 0)


def test_dft_lowpass_removes_checker_noise():
    # smooth signal plus alternating +-1 checker (pure Nyquist noise)
    clean = np.rint(120 + 60 * np.sin(np.arange(32) / 5.0))[None, :].repeat(32, axis=0)
    checker = np.indices((32, 32)).sum(axis=0) % 2
    noisy = np.clip(clean + np.where(checker == 0, 1, -1), 0, 255).astype(np.uint8)
    out = dft_enhance(Image(noisy), "lowpass", 0.5)
    dist_in = np.linalg.norm(noisy.astype(float) - clean)
    dist_out = np.linalg.norm(out.pixels.astype(float) - clean)
    assert dist_out < dist_in


def test_dft_full_cutoff_round_trip():
    rng = np.random.default_rng(77)
    for _ in range(10):
        arr = rng.integers(0, 256, (rng.integers(2, 20), rng.integers(2, 20)),
                           dtype=np.uint8)
        out = dft_enhance(Image(arr), "lowpass", 1.0)
        assert np.abs(out.pixels.astype(int) - arr.astype(int)).max() <= 1


def test_dft_parameter_validation():
    img = gray(np.zeros((4, 4)))
    with pytest.raises(ValueError):
        dft_enhance(img, "lowpass", 0.0)
    with pytest.raises(ValueError):
        dft_enhance(img, "lowpass", 1.5)
    with pytest.raises(ValueError):
        dft_enhance(img, "bandpass", 0.5)


# ---------------------------------------------------------------------------
# haar_enhance
# ---------------------------------------------------------------------------

def test_haar_round_trip_is_exact():
    rng = np.random.default_rng(5)
    for _ in range(20):
        h = int(rng.integers(1, 12)) * 2
        w = int(rng.integers(1, 12)) * 2
        plane = rng.integers(0, 256, (h, w)).astype(np.float64)
        assert np.array_equal(haar_inverse(*haar_forward(plane)), plane)


def test_haar_constant_image_unchanged():
    img = gray(np.full((8, 8), 42))
    assert haar_enhance(img) == img


def test_haar_entropy_not_decreased_on_low_contrast():
    yy, xx = np.mgrid[0:32, 0:32]
    img = gray(90 + ((xx + yy) * 40) // 62)
    out = haar_enhance(img)
    assert histogram_entropy(out) >= histogram_entropy(img)


def test_haar_requires_even_dims():
    with pytest.raises(ValueError):
        haar_enhance(gray(np.zeros((3, 4))))
    with pytest.raises(ValueError):
        haar_forward(np.zeros((4, 5)))

