"""Image enhancement: histogram equalization, ideal-mask DFT filtering and
one-level Haar enhancement, each of a (height, width) uint8 plane.

Equalization uses integer arithmetic throughout so the mapping is bit-exact.
"""

import numpy as np

HAAR_GAIN_GRID = (1.0, 1.25, 1.5, 2.0)


def equalize_planes(planes: np.ndarray) -> np.ndarray:
    """Histogram-equalize each (h, w) uint8 plane of an (N, h, w) stack.

    out(v) = floor((cdf(v) - cdf_min) / (1 - cdf_min) * 255) with cdf_min the
    cdf of the lowest occupied bin, from each plane's own histogram. Constant
    planes come back unchanged (the formula degenerates to 0/0 there). One
    bincount counts every plane, each in its own 256 bins.
    """
    n, h, w = planes.shape
    pixels = planes.reshape(n, h * w) + np.arange(0, 256 * n, 256)[:, None]
    counts = np.bincount(pixels.ravel(), minlength=256 * n).reshape(n, 256)
    cum = np.cumsum(counts, axis=1)
    total = cum[:, -1:]
    cum_min = np.take_along_axis(cum, (counts != 0).argmax(axis=1)[:, None], axis=1)
    # Integer form of the mapping; exact floor, no float rounding.
    lut = (cum - cum_min) * 255 // np.maximum(total - cum_min, 1)
    lut = np.clip(lut, 0, 255).astype(np.uint8)
    lut[(cum_min == total)[:, 0]] = np.arange(256)  # single occupied bin: identity
    return lut.ravel().take(pixels).reshape(planes.shape)


def equalize(plane: np.ndarray) -> np.ndarray:
    """Histogram-equalize one (h, w) uint8 plane: equalize_planes of it alone."""
    return equalize_planes(plane[None])[0]


def histogram_entropy(plane: np.ndarray) -> float:
    """Shannon entropy (bits) of a uint8 plane's 256-bin intensity histogram."""
    counts = np.bincount(plane.ravel(), minlength=256)
    p = counts[counts > 0] / counts.sum()
    return float(-(p * np.log2(p)).sum())


def check_cutoff(cutoff: float):
    """dft_enhance's cutoff; the CLI checks it before any input is read."""
    if not 0.0 < cutoff <= 1.0:
        raise ValueError(f"cutoff must be in (0, 1], got {cutoff}")


def dft_enhance(plane: np.ndarray, mode: str, cutoff: float) -> np.ndarray:
    """Ideal circular-mask frequency filtering of a uint8 plane.

    cutoff in (0, 1] is the fraction of the maximum representable frequency
    radius (the corner of the Nyquist square), so cutoff = 1 keeps the whole
    spectrum. Lowpass keeps radii <= cutoff (always including the
    zero-frequency term, i.e. the mean gray level); highpass keeps the rest.
    """
    if mode not in ("lowpass", "highpass"):
        raise ValueError(f"mode must be 'lowpass' or 'highpass', got {mode!r}")
    check_cutoff(cutoff)
    plane = plane.astype(np.float64)
    h, w = plane.shape
    fy = np.fft.fftfreq(h)  # cycles/sample in [-0.5, 0.5)
    fx = np.fft.fftfreq(w)
    # Normalized squared radius: 1 at the (Nyquist, Nyquist) corner.
    r2 = (2.0 * fy[:, None]) ** 2 / 2.0 + (2.0 * fx[None, :]) ** 2 / 2.0
    keep = r2 <= cutoff * cutoff + 1e-12
    if mode == "highpass":
        keep = ~keep
    spectrum = np.fft.fft2(plane) * keep
    out = np.real(np.fft.ifft2(spectrum))
    return np.clip(np.rint(out), 0, 255).astype(np.uint8)


def haar_forward(plane: np.ndarray):
    """One-level orthonormal 2-D Haar split into (ll, lh, hl, hh) subbands.

    Requires even dimensions. Exact for integer input (coefficients are
    half-integers), so the transform pair reconstructs perfectly.
    """
    plane = np.asarray(plane, dtype=np.float64)
    if plane.shape[0] % 2 or plane.shape[1] % 2:
        raise ValueError("Haar transform requires even width and height")
    a = plane[0::2, 0::2]
    b = plane[0::2, 1::2]
    c = plane[1::2, 0::2]
    d = plane[1::2, 1::2]
    ll = (a + b + c + d) / 2.0
    lh = (a - b + c - d) / 2.0
    hl = (a + b - c - d) / 2.0
    hh = (a - b - c + d) / 2.0
    return ll, lh, hl, hh


def haar_inverse(ll, lh, hl, hh) -> np.ndarray:
    """Inverse of haar_forward (the transform is its own inverse up to layout)."""
    h2, w2 = ll.shape
    out = np.empty((h2 * 2, w2 * 2), dtype=np.float64)
    out[0::2, 0::2] = (ll + lh + hl + hh) / 2.0
    out[0::2, 1::2] = (ll - lh + hl - hh) / 2.0
    out[1::2, 0::2] = (ll + lh - hl - hh) / 2.0
    out[1::2, 1::2] = (ll - lh - hl + hh) / 2.0
    return out


def haar_enhance(plane: np.ndarray) -> np.ndarray:
    """Wavelet enhancement of a uint8 plane: equalize the approximation band,
    boost the detail bands by the gain (from a fixed grid) that maximizes the
    histogram entropy of the reconstruction.
    """
    ll, lh, hl, hh = haar_forward(plane)
    # ll is twice the 2x2 block mean; map to 0..255, equalize, map back.
    ll_eq = equalize(np.clip(np.rint(ll / 2.0), 0, 255).astype(np.uint8))
    ll_eq = ll_eq.astype(np.float64) * 2.0

    best = None
    best_entropy = -1.0
    for gain in HAAR_GAIN_GRID:
        recon = haar_inverse(ll_eq, gain * lh, gain * hl, gain * hh)
        candidate = np.clip(np.rint(recon), 0, 255).astype(np.uint8)
        entropy = histogram_entropy(candidate)
        if entropy > best_entropy:
            best_entropy = entropy
            best = candidate
    return best

