import re

import numpy as np
import pytest

from scenegame.image import (
    NOISE_SIGMA,
    DisplacementLabelSet,
    Image,
    LabelField,
    PnmHeaderError,
    PnmMaxvalError,
    PnmPayloadError,
    check_noise_level,
    gen_scene,
    gen_scenes,
    read_pnm,
    scene_template,
    seeded_rng,
    write_pnm,
)


def test_read_minimal_p5():
    img = read_pnm(b"P5\n2 1\n255\n" + bytes([0, 255]))
    assert (img.width, img.height, img.channels) == (2, 1, 1)
    assert img.pixels.tolist() == [[0, 255]]


def test_write_canonical_gray():
    img = Image(np.array([[7]], dtype=np.uint8))
    assert write_pnm(img) == b"P5\n1 1\n255\n" + bytes([7])


def test_round_trip_random_images():
    rng = np.random.default_rng(321)
    for _ in range(50):
        h = int(rng.integers(1, 24))
        w = int(rng.integers(1, 24))
        img = Image(rng.integers(0, 256, (h, w), dtype=np.uint8))
        data = write_pnm(img)
        assert read_pnm(data) == img
        # canonical files survive a decode/encode cycle byte-for-byte
        assert write_pnm(read_pnm(data)) == data


def test_header_comments_skipped():
    data = b"P5 # a comment\n# another\n 2 1 # inline\n255\n" + bytes([3, 4])
    img = read_pnm(data)
    assert img.pixels.tolist() == [[3, 4]]


def test_bad_magic_is_header_error():
    with pytest.raises(PnmHeaderError):
        read_pnm(b"P3\n1 1\n255\n\x00")


def test_colour_ppm_is_an_unsupported_magic_number():
    with pytest.raises(PnmHeaderError, match=r"unsupported magic number b'P6'"):
        read_pnm(b"P6\n1 1\n255\n" + bytes([1, 2, 3]))


def test_wrong_maxval_is_maxval_error():
    with pytest.raises(PnmMaxvalError):
        read_pnm(b"P5\n1 1\n65535\n\x00\x00")


def test_truncated_payload_error():
    # header claims 4 pixels, payload has 3 bytes
    with pytest.raises(PnmPayloadError, match="truncated"):
        read_pnm(b"P5\n2 2\n255\n" + bytes([1, 2, 3]))


def test_trailing_payload_error():
    with pytest.raises(PnmPayloadError, match="trailing"):
        read_pnm(b"P5\n1 1\n255\n" + bytes([1, 2]))


def test_header_error_cases():
    with pytest.raises(PnmHeaderError):
        read_pnm(b"P5\n0 1\n255\n")
    with pytest.raises(PnmHeaderError):
        read_pnm(b"P5\nx 1\n255\n\x00")
    with pytest.raises(PnmHeaderError):
        read_pnm(b"P5\n1 1")


@pytest.mark.parametrize("header, name, token", [
    (b"P5\n1_0 1\n255\n", "width", b"1_0"),
    (b"P5\n+10 1\n255\n", "width", b"+10"),
    (b"P5\n10 -1\n255\n", "height", b"-1"),
    (b"P5\n10 1\n2_55\n", "maxval", b"2_55"),
    (b"P5\n10 1\n+255\n", "maxval", b"+255"),
    (b"P5\n\xd9\xa1 1\n255\n", "width", b"\xd9\xa1"),
])
def test_header_numbers_are_ascii_digits_only(header, name, token):
    with pytest.raises(PnmHeaderError, match=re.escape(f"non-numeric {name} {token!r}")):
        read_pnm(header + bytes(10))


def test_header_numbers_keep_leading_zeros():
    img = read_pnm(b"P5\n002 01\n0255\n" + bytes([5, 6]))
    assert img.pixels.tolist() == [[5, 6]]


def test_image_rejects_bad_values():
    with pytest.raises(ValueError):
        Image(np.array([[300]]))
    with pytest.raises(ValueError):
        Image(np.array([[-1]]))
    with pytest.raises(ValueError):
        Image(np.array([[0.5]]))


@pytest.mark.parametrize("shape", [(2, 2, 3), (2, 2, 1), (2, 2, 4), (4,)])
def test_image_is_gray_levels_only(shape):
    with pytest.raises(ValueError, match="unsupported pixel array shape"):
        Image(np.zeros(shape, dtype=np.uint8))


def test_image_is_immutable():
    img = Image(np.zeros((2, 2), dtype=np.uint8))
    with pytest.raises(ValueError):
        img.pixels[0, 0] = 1
    with pytest.raises(AttributeError):
        img.pixels = None


def test_gen_scene_deterministic():
    a = gen_scene(2, 20, 1, 99)
    b = gen_scene(2, 20, 1, 99)
    assert a == b
    assert a != gen_scene(2, 20, 1, 100)


def test_gen_scene_smallest_size():
    img = gen_scene(0, 20, 1, 0)
    assert (img.width, img.height) == (20, 20)


def test_gen_scene_errors():
    with pytest.raises(ValueError):
        gen_scene(5, 20, 1, 0)
    with pytest.raises(ValueError):
        gen_scene(0, 7, 1, 0)
    with pytest.raises(ValueError):
        gen_scene(0, 20, 4, 0)


def reference_gen_scene(class_id, size, noise_level, seed):
    """gen_scene as it was before the class-batched draw, verbatim."""
    template = scene_template(class_id, size)
    check_noise_level(noise_level)
    rng = np.random.default_rng([int(seed) % 2 ** 63, class_id, size, noise_level])
    noisy = template.astype(np.float64) + rng.normal(
        0.0, NOISE_SIGMA[noise_level], template.shape
    )
    return Image(np.clip(np.rint(noisy), 0, 255).astype(np.uint8))


@pytest.mark.parametrize("seed", [-1, 0, 2 ** 63 + 5])
@pytest.mark.parametrize("keys", [(), (3, 20, 2), (20, 1, 0, 7)])
def test_seeded_rng_is_default_rng_of_the_seed_mod_2_63_and_the_keys(seed, keys):
    expected = np.random.default_rng([seed % 2 ** 63, *keys]).random(8)
    assert seeded_rng(seed, *keys).random(8).tobytes() == expected.tobytes()
    if not keys:  # an int seed and its one-element list give one stream
        plain = np.random.default_rng(seed % 2 ** 63).random(8)
        assert seeded_rng(seed).random(8).tobytes() == plain.tobytes()
    # Seeds that agree mod 2**63 share a stream.
    again = seeded_rng(seed + 2 ** 63, *keys).random(8)
    assert again.tobytes() == expected.tobytes()


def test_batched_scenes_are_the_per_image_scenes():
    seeds = [0, 1, 99, 2 ** 62 + 7, 2 ** 63 + 5, 123_456_789_012]
    for class_id in range(5):
        for size in (8, 9, 13, 20, 32):
            for noise in (1, 2, 3):
                stack = gen_scenes(class_id, size, noise, seeds)
                assert stack.shape == (len(seeds), size, size)
                assert stack.dtype == np.uint8
                for plane, seed in zip(stack, seeds):
                    expected = reference_gen_scene(class_id, size, noise, seed)
                    assert plane.tobytes() == expected.pixels.tobytes()
                    assert gen_scene(class_id, size, noise, seed) == expected


def test_gen_scene_noise_grows_with_level():
    for class_id in range(5):
        template = scene_template(class_id, 20).astype(np.float64)
        mad1 = np.abs(gen_scene(class_id, 20, 1, 5).pixels - template).mean()
        mad3 = np.abs(gen_scene(class_id, 20, 3, 5).pixels - template).mean()
        assert mad3 > mad1


def test_templates_are_distinct():
    templates = [scene_template(c, 32) for c in range(5)]
    for i in range(5):
        for j in range(i + 1, 5):
            assert np.abs(templates[i].astype(int) - templates[j].astype(int)).mean() > 10


def test_classes_separable_in_feature_space_at_low_noise():
    from itertools import combinations

    from scenegame.features import extract_features

    per_class = 8
    vectors = {
        c: list(extract_features([gen_scene(c, 20, 1, 500 + i)
                                  for i in range(per_class)]))
        for c in range(5)
    }
    intra = [np.linalg.norm(a - b)
             for c in range(5) for a, b in combinations(vectors[c], 2)]
    inter = [np.linalg.norm(a - b)
             for c1, c2 in combinations(range(5), 2)
             for a in vectors[c1] for b in vectors[c2]]
    assert np.mean(inter) > np.mean(intra)


def test_label_field_invariants():
    field = LabelField(labels=np.array([[0, 1], [1, 0]]), label_count=2)
    assert (field.height, field.width) == (2, 2)
    with pytest.raises(ValueError):
        LabelField(labels=np.array([[0, 2]]), label_count=2)
    with pytest.raises(ValueError):
        LabelField(labels=np.array([[0, -1]]), label_count=2)
    with pytest.raises(ValueError):
        LabelField(labels=np.array([[0, 1]]), label_count=0)


def test_displacement_label_set():
    dense = DisplacementLabelSet.dense(1)
    assert len(dense) == 9
    assert (0, 0) in dense.offsets
    assert dense.offsets[0] == (-1, -1)
    with pytest.raises(ValueError):
        DisplacementLabelSet.dense(-1)


def test_dense_offsets_are_row_major_in_dy_dx():
    for r in range(5):
        expected = tuple((dx, dy) for dy in range(-r, r + 1)
                         for dx in range(-r, r + 1))
        label_set = DisplacementLabelSet.dense(r)
        assert label_set.offsets == expected
        assert (label_set.radius, len(label_set)) == (r, (2 * r + 1) ** 2)
