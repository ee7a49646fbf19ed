import numpy as np
import pytest

from scenegame.image import Image
from scenegame.preprocess import (
    dft_enhance,
    equalize,
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

