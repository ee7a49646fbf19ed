"""Image values, a strict binary PGM codec, and the synthetic scene generator.

Images are immutable (height, width) uint8 gray-level grids. The codec accepts
only binary P5 with maxval 255 so fixture files stay bit-exact. The generator
produces five procedurally distinct indoor-scene stand-ins (one template per
class) with seeded additive noise.
"""

from dataclasses import dataclass, field

import numpy as np

# Additive Gaussian noise sigma per noise level (gray levels).
NOISE_SIGMA = {1: 4.0, 2: 10.0, 3: 18.0}


class PnmError(ValueError):
    """Base class for PNM codec failures."""


class PnmHeaderError(PnmError):
    """Magic number, dimension, or token structure is malformed."""


class PnmMaxvalError(PnmError):
    """Maxval is present but not 255."""


class PnmPayloadError(PnmError):
    """Pixel payload is truncated or has trailing bytes."""


class Image:
    """Immutable (height, width) raster of uint8 gray levels."""

    __slots__ = ("pixels",)

    def __init__(self, pixels):
        arr = np.asarray(pixels)
        if arr.ndim != 2:
            raise ValueError(f"unsupported pixel array shape {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError("image dimensions must be positive")
        if arr.dtype != np.uint8:
            if np.any(arr < 0) or np.any(arr > 255):
                raise ValueError("intensities must lie in [0, 255]")
            if not np.all(arr == np.floor(arr)):
                raise ValueError("intensities must be integers")
            arr = arr.astype(np.uint8)
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "pixels", arr)

    def __setattr__(self, name, value):
        raise AttributeError("Image is immutable")

    @property
    def height(self):
        return self.pixels.shape[0]

    @property
    def width(self):
        return self.pixels.shape[1]

    @property
    def channels(self):
        return 1  # always gray; read by the output check in bench/workloads.py

    def plane(self):
        """The (height, width) pixel grid."""
        return self.pixels

    def __eq__(self, other):
        if not isinstance(other, Image):
            return NotImplemented
        return self.pixels.shape == other.pixels.shape and bool(
            np.all(self.pixels == other.pixels)
        )

    def __hash__(self):
        return hash((self.pixels.shape, self.pixels.tobytes()))

    def __repr__(self):
        return f"Image({self.width}x{self.height})"


@dataclass(frozen=True)
class LabelField:
    """Per-pixel discrete strategy assignment: class label or displacement index."""

    labels: np.ndarray  # (height, width) int
    label_count: int

    def __post_init__(self):
        arr = np.asarray(self.labels, dtype=np.int64)
        if arr.ndim != 2:
            raise ValueError("labels must be a 2-D grid")
        if self.label_count < 1:
            raise ValueError("label_count must be >= 1")
        if arr.size and (arr.min() < 0 or arr.max() >= self.label_count):
            raise ValueError("labels must lie in [0, label_count)")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "labels", arr)

    @property
    def height(self):
        return self.labels.shape[0]

    @property
    def width(self):
        return self.labels.shape[1]

    def __eq__(self, other):
        if not isinstance(other, LabelField):
            return NotImplemented
        return (
            self.label_count == other.label_count
            and self.labels.shape == other.labels.shape
            and bool(np.all(self.labels == other.labels))
        )


@dataclass(frozen=True)
class DisplacementLabelSet:
    """The registration strategies of a radius >= 0: every (dx, dy) offset
    with |dx|, |dy| <= radius, row-major in (dy, dx). dx moves along columns,
    dy along rows.
    """

    radius: int
    offsets: tuple = field(init=False, repr=False)

    def __post_init__(self):
        if self.radius < 0:
            raise ValueError("radius must be >= 0")
        span = range(-self.radius, self.radius + 1)
        object.__setattr__(self, "offsets",
                           tuple((dx, dy) for dy in span for dx in span))

    @classmethod
    def dense(cls, radius: int) -> "DisplacementLabelSet":
        """The set of the given radius; the CLI and benchmark build it here."""
        return cls(radius)

    def __len__(self):
        return len(self.offsets)


# ---------------------------------------------------------------------------
# PGM codec (binary P5, maxval 255 only)
# ---------------------------------------------------------------------------

def _read_header_token(data: bytes, pos: int):
    """Return (token, new_pos), skipping whitespace and '#' comments."""
    n = len(data)
    while pos < n:
        b = data[pos]
        if b in b" \t\r\n\x0b\x0c":
            pos += 1
        elif b == ord("#"):
            while pos < n and data[pos] not in b"\r\n":
                pos += 1
        else:
            break
    start = pos
    while pos < n and data[pos] not in b" \t\r\n\x0b\x0c#":
        pos += 1
    if start == pos:
        raise PnmHeaderError("unexpected end of header")
    return data[start:pos], pos


def read_pnm(data: bytes) -> Image:
    """Decode a binary PGM (P5) byte string with maxval 255.

    Header comments are skipped; header numbers are ASCII decimal digits only.
    Raises PnmHeaderError, PnmMaxvalError, or PnmPayloadError depending on
    what is wrong.
    """
    data = bytes(data)
    if len(data) < 2:
        raise PnmHeaderError("file too short for a PNM magic number")
    magic = data[:2]
    if magic != b"P5":
        raise PnmHeaderError(f"unsupported magic number {magic!r}")

    pos = 2
    fields = []
    for name in ("width", "height", "maxval"):
        try:
            token, pos = _read_header_token(data, pos)
        except PnmHeaderError:
            raise PnmHeaderError(f"missing {name} in header")
        if not token.isdigit():  # bytes.isdigit is ASCII only; int() takes "+1_0"
            raise PnmHeaderError(f"non-numeric {name} {token!r}")
        fields.append(int(token))
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise PnmHeaderError(f"non-positive dimensions {width}x{height}")
    if maxval != 255:
        raise PnmMaxvalError(f"maxval must be 255, got {maxval}")

    # Exactly one whitespace byte separates the header from the payload.
    if pos >= len(data) or data[pos] not in b" \t\r\n\x0b\x0c":
        raise PnmHeaderError("missing whitespace after maxval")
    pos += 1

    expected = width * height
    payload = data[pos:]
    if len(payload) < expected:
        raise PnmPayloadError(
            f"truncated payload: got {len(payload)} bytes, expected {expected}"
        )
    if len(payload) > expected:
        raise PnmPayloadError(
            f"trailing data: got {len(payload)} bytes, expected {expected}"
        )
    return Image(np.frombuffer(payload, dtype=np.uint8).reshape(height, width))


def write_pnm(img: Image) -> bytes:
    """Encode to canonical binary P5: single-space separators, maxval 255."""
    header = f"P5\n{img.width} {img.height}\n255\n".encode("ascii")
    return header + img.pixels.tobytes()


# ---------------------------------------------------------------------------
# Synthetic 5-class scene generator
# ---------------------------------------------------------------------------

def scene_template(class_id: int, size: int) -> np.ndarray:
    """Noise-free uint8 template for a scene class.

    Layouts (documented in the README): 0 living_room = rectangles,
    1 bathroom = vertical stripes, 2 bedroom = centered disk,
    3 kitchen = diagonal gradient, 4 action = checkerboard.
    """
    if not 0 <= class_id <= 4:
        raise ValueError(f"class_id must be in 0..4, got {class_id}")
    if size < 8:
        raise ValueError(f"size must be >= 8, got {size}")
    s = size
    if class_id == 0:
        img = np.full((s, s), 190, dtype=np.int64)
        img[int(0.55 * s):int(0.9 * s), int(0.1 * s):int(0.7 * s)] = 60
        img[int(0.15 * s):int(0.35 * s), int(0.6 * s):int(0.9 * s)] = 120
    elif class_id == 1:
        stripe = max(1, s // 8)
        cols = (np.arange(s) // stripe) % 2
        img = np.where(cols == 0, 220, 90)[np.newaxis, :].repeat(s, axis=0)
    elif class_id == 2:
        yy, xx = np.mgrid[0:s, 0:s]
        center = (s - 1) / 2.0
        disk = (yy - center) ** 2 + (xx - center) ** 2 <= (0.3 * s) ** 2
        img = np.where(disk, 210, 70)
    elif class_id == 3:
        yy, xx = np.mgrid[0:s, 0:s]
        img = np.rint(30 + 200.0 * (xx + yy) / (2 * (s - 1))).astype(np.int64)
    else:
        cell = max(1, s // 5)
        yy, xx = np.mgrid[0:s, 0:s]
        img = np.where(((yy // cell) + (xx // cell)) % 2 == 0, 40, 215)
    return img.astype(np.uint8)


def check_noise_level(noise_level: int):
    """ValueError unless noise_level is one of NOISE_SIGMA's levels, the
    ones gen_scene accepts; the CLI checks --noise with it before any work."""
    if noise_level not in NOISE_SIGMA:
        raise ValueError(f"noise_level must be in 1..3, got {noise_level}")


def seeded_rng(seed: int, *keys: int) -> "np.random.Generator":
    """numpy's default generator on [seed mod 2**63, *keys]: the one seed
    rule of every draw. Any integer is a seed; seeds equal mod 2**63 draw the
    same (-1 as 2**63 - 1). With no keys the stream is that of
    default_rng(seed mod 2**63); keys separate call sites sharing a seed."""
    return np.random.default_rng([int(seed) % 2 ** 63, *keys])


def gen_scenes(class_id: int, size: int, noise_level: int, seeds) -> np.ndarray:
    """(N, size, size) uint8 stack of synthetic scenes of one class, one per
    seed: the class template plus seeded Gaussian noise.

    Pure function of its arguments; sigma grows with noise_level (1..3). Each
    image draws its noise from seeded_rng(seed, class_id, size, noise_level),
    so a scene does not depend on the others in the stack.
    """
    template = scene_template(class_id, size)
    check_noise_level(noise_level)
    sigma = NOISE_SIGMA[noise_level]
    noisy = np.empty((len(seeds), size, size))
    for plane, seed in zip(noisy, seeds):
        rng = seeded_rng(seed, class_id, size, noise_level)
        plane[...] = rng.normal(0.0, sigma, template.shape)
    noisy += template
    np.rint(noisy, out=noisy)
    return np.clip(noisy, 0, 255, out=noisy).astype(np.uint8)


def gen_scene(class_id: int, size: int, noise_level: int, seed: int) -> Image:
    """One scene of gen_scenes as an Image."""
    return Image(gen_scenes(class_id, size, noise_level, [seed])[0])
