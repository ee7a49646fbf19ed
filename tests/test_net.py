import struct

import numpy as np
import pytest

from scenegame.image import Image, gen_scene
from scenegame.net import (
    Conv2D,
    Dense,
    Flatten,
    LossWeights,
    MaxPool2D,
    Network,
    ShapeMismatchError,
    TrainConfig,
    Triplet,
    augment,
    combined_loss,
    default_net,
    forward,
    grad_check,
    load_net,
    mine_triplets,
    predict,
    save_net,
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


def test_maxpool_window():
    pool = MaxPool2D(2, 2)
    x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 2, 2, 1)
    assert pool.forward(x).reshape(-1).tolist() == [4.0]


def test_conv_shape_mismatch():
    conv = Conv2D(3, 3, 2, 4)
    with pytest.raises(ShapeMismatchError):
        conv.forward(np.zeros((1, 5, 5, 1)))
    with pytest.raises(ShapeMismatchError):
        conv.forward(np.zeros((1, 2, 2, 2)))


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
    loss, _ = triplet_batch_loss(np.stack([a, p, n]), [Triplet(0, 1, 2, margin)])
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


def test_combined_loss_single_term():
    assert combined_loss(LossWeights((1.0,)), (0.7,)) == 0.7


def test_combined_loss_rejects_zero_weight():
    with pytest.raises(ValueError):
        LossWeights((1.0, 0.0))
    with pytest.raises(ValueError):
        LossWeights((-1.0,))


def test_combined_loss_weighted_sum():
    assert combined_loss(LossWeights((2.0, 3.0)), (0.5, 1.0)) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        combined_loss(LossWeights((1.0,)), (0.5, 1.0))


def test_combined_loss_monotone_in_terms():
    w = LossWeights((0.5, 2.0))
    base = combined_loss(w, (1.0, 1.0))
    assert combined_loss(w, (1.5, 1.0)) > base
    assert combined_loss(w, (1.0, 1.5)) > base


# ---------------------------------------------------------------------------
# gradient check
# ---------------------------------------------------------------------------

def test_grad_check_linear_net():
    rng = np.random.default_rng(51)
    net = Network([Flatten(), Dense(64, 16, rng=rng), Dense(16, 5, rng=rng)])
    images, labels = scene_batch(size=8)
    err = grad_check(net, images, labels, LossWeights((1.0, 1.0)), seed=5)
    assert err < 1e-6


def test_grad_check_default_stack():
    net = default_net(input_size=16, seed=3)
    images, labels = scene_batch(size=16)
    err = grad_check(net, images, labels, LossWeights((1.0, 1.0)),
                     samples=60, seed=11)
    assert err < 1e-3


def test_grad_check_rejects_large_nets():
    net = default_net(input_size=20, seed=0)  # 6053 parameters
    assert net.parameter_count() > 5000
    images, labels = scene_batch(size=20)
    with pytest.raises(ValueError):
        grad_check(net, images, labels, LossWeights((1.0, 1.0)))


# ---------------------------------------------------------------------------
# mining and augmentation
# ---------------------------------------------------------------------------

def test_mine_two_by_two_forced_choice():
    emb = np.array([[0.0], [1.0], [10.0], [11.0]])
    labels = [0, 0, 1, 1]
    triplets = mine_triplets(emb, labels)
    assert len(triplets) == 4
    t0 = triplets[0]
    assert (t0.anchor, t0.positive, t0.negative) == (0, 1, 2)


def test_mine_identical_embeddings_tie_to_lowest_index():
    emb = np.zeros((4, 3))
    labels = [0, 0, 1, 1]
    triplets = mine_triplets(emb, labels)
    assert (triplets[0].positive, triplets[0].negative) == (1, 2)
    assert (triplets[2].positive, triplets[2].negative) == (3, 0)
    again = mine_triplets(emb, labels)
    assert triplets == again


def test_mine_matches_brute_force_scan():
    rng = np.random.default_rng(52)
    emb = rng.normal(0, 1, (20, 4))
    labels = rng.integers(0, 3, 20)
    while np.unique(labels).size < 2:
        labels = rng.integers(0, 3, 20)
    triplets = mine_triplets(emb, labels)
    by_anchor = {t.anchor: t for t in triplets}
    for anchor, t in by_anchor.items():
        best_pos, best_pos_d = None, np.inf
        best_neg, best_neg_d = None, np.inf
        for j in range(20):
            d = float(((emb[anchor] - emb[j]) ** 2).sum())
            if j != anchor and labels[j] == labels[anchor] and d < best_pos_d:
                best_pos, best_pos_d = j, d
            if labels[j] != labels[anchor] and d < best_neg_d:
                best_neg, best_neg_d = j, d
        assert t.positive == best_pos
        assert t.negative == best_neg


def test_mine_skips_singleton_classes():
    emb = np.array([[0.0], [1.0], [2.0]])
    labels = [0, 1, 1]
    triplets = mine_triplets(emb, labels)
    assert all(t.anchor != 0 for t in triplets)
    assert len(triplets) == 2


def test_mine_requires_two_classes():
    with pytest.raises(ValueError):
        mine_triplets(np.zeros((3, 2)), [1, 1, 1])


def test_triplet_margin_validation():
    with pytest.raises(ValueError):
        Triplet(0, 1, 2, margin=0.0)


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
    for crop in augment(Image(arr), (4, 3)):
        found = False
        for r in range(9 - 4 + 1):
            for c in range(7 - 3 + 1):
                if np.array_equal(crop.pixels, arr[r:r + 4, c:c + 3]):
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
    train(net, images, labels, config, LossWeights((1.0, 1.0)))
    for a, b in zip(net.parameter_arrays(), before):
        assert np.array_equal(a, b)


def test_train_overfits_small_batch():
    net = default_net(input_size=16, seed=4)
    images, labels = scene_batch(size=16, per_class=2)
    config = TrainConfig(epochs=200, learning_rate=0.05, batch_size=10, seed=1)
    _, trace = train(net, images, labels, config, LossWeights((1.0, 1.0)))
    assert trace[-1] < 0.10 * trace[0]
    for img, lbl in zip(images, labels):
        assert predict(net, img)[0] == lbl


def test_train_deterministic_per_seed():
    images, labels = scene_batch(size=16)
    traces = []
    for _ in range(2):
        net = default_net(input_size=16, seed=6)
        config = TrainConfig(epochs=3, learning_rate=0.05, batch_size=5, seed=21)
        _, trace = train(net, images, labels, config, LossWeights((1.0, 1.0)))
        traces.append(trace)
    assert traces[0] == traces[1]


def test_train_validates_dataset():
    net = default_net(input_size=16, seed=0)
    with pytest.raises(ValueError):
        train(net, [], [], TrainConfig(), LossWeights((1.0, 1.0)))
    images, labels = scene_batch(size=16, per_class=1)
    with pytest.raises(ValueError, match="missing classes"):
        train(net, images[:3], labels[:3], TrainConfig(), LossWeights((1.0, 1.0)))


def test_train_with_augmentation_runs():
    images, labels = scene_batch(size=20, per_class=1)
    net = default_net(input_size=16, seed=0)
    config = TrainConfig(epochs=1, learning_rate=0.01, batch_size=10, seed=0,
                         augment=True, crop_size=16)
    _, trace = train(net, images, labels, config, LossWeights((1.0, 1.0)))
    assert len(trace) == 1


def test_predict_zeroed_final_layer_ties_to_class_zero():
    net = default_net(input_size=16, seed=7)
    final = net.layers[-1]
    final.weights[:] = 0.0
    final.bias[:] = 0.0
    cls, scores = predict(net, gen_scene(3, 16, 1, 5))
    assert cls == 0
    assert scores.shape == (5,)
    assert np.all(scores == scores[0])


def test_checkpoint_round_trip(tmp_path):
    net = default_net(input_size=16, seed=8)
    images, labels = scene_batch(size=16)
    config = TrainConfig(epochs=1, learning_rate=0.05, batch_size=5, seed=3)
    train(net, images, labels, config, LossWeights((1.0, 1.0)))
    path = tmp_path / "model.bin"
    save_net(net, path)
    loaded = load_net(path)
    for img in images:
        c1, s1 = predict(net, img)
        c2, s2 = predict(loaded, img)
        assert c1 == c2
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
