import numpy as np
import pytest
from scipy.stats import pearsonr

from scenegame.features import (
    DegenerateFeatureError,
    cluster_and_select,
    extract_features,
    feature_names,
    features_to_csv,
    optimize_weights,
    select_features,
    weight_objective,
)
from scenegame import cli
from scenegame.features import _abs_correlation
from scenegame.image import Image


NAMES = feature_names()


def gray(arr):
    return Image(np.asarray(arr, dtype=np.uint8))


def features_of(img):
    """The descriptor row of one image."""
    return extract_features([img])[0]


# ---------------------------------------------------------------------------
# extract_features
# ---------------------------------------------------------------------------

def test_constant_image_features():
    fv = features_of(gray(np.full((8, 8), 40)))
    assert len(fv) == len(NAMES) == 76
    for i, name in enumerate(NAMES):
        if name.endswith("_var") or name.endswith("_edges"):
            assert fv[i] == 0.0
        if name.endswith("_hist02"):  # 40 // 16 == 2
            assert fv[i] == 1.0


def test_zero_image_features():
    fv = features_of(gray(np.zeros((10, 12))))
    for i, name in enumerate(NAMES):
        if name.endswith("_mean") or name.endswith("_edges"):
            assert fv[i] == 0.0


def count_differing_pairs(block):
    # direct enumeration oracle for the edge density
    h, w = block.shape
    diff = 0
    total = 0
    for r in range(h):
        for c in range(w):
            if c + 1 < w:
                total += 1
                diff += block[r, c] != block[r, c + 1]
            if r + 1 < h:
                total += 1
                diff += block[r, c] != block[r + 1, c]
    return diff / total


def test_checkerboard_edge_density_is_one():
    yy, xx = np.mgrid[0:8, 0:8]
    board = ((yy + xx) % 2 * 255).astype(np.uint8)
    fv = features_of(Image(board))
    for i, name in enumerate(NAMES):
        if name.endswith("_edges"):
            assert fv[i] == 1.0
    assert count_differing_pairs(board[:4, :4]) == 1.0


def test_edge_density_matches_counting_oracle():
    rng = np.random.default_rng(30)
    arr = rng.integers(0, 4, (10, 10)).astype(np.uint8) * 80
    fv = features_of(Image(arr))
    blocks = [arr[:5, :5], arr[:5, 5:], arr[5:, :5], arr[5:, 5:]]
    edge_values = [fv[i] for i, n in enumerate(NAMES) if n.endswith("_edges")]
    for got, block in zip(edge_values, blocks):
        assert got == pytest.approx(count_differing_pairs(block))


def test_feature_invariants_on_random_images():
    rng = np.random.default_rng(31)
    for _ in range(10):
        arr = rng.integers(0, 256, (12, 16), dtype=np.uint8)
        fv = features_of(Image(arr))
        for block_idx in range(4):
            base = block_idx * 19
            hist = fv[base + 2:base + 18]
            assert hist.sum() == pytest.approx(1.0, abs=1e-9)
            assert 0.0 <= fv[base + 18] <= 1.0


def test_constant_intensity_shift_moves_only_means():
    # a shift inside one histogram bin leaves everything but the means alone
    a = features_of(gray(np.full((8, 8), 40)))
    b = features_of(gray(np.full((8, 8), 44)))
    for i, name in enumerate(NAMES):
        if name.endswith("_mean"):
            assert b[i] == pytest.approx(a[i] + 4 / 255.0, abs=1e-12)
        else:
            assert a[i] == b[i]


def test_intensity_shift_keeps_variance_and_edges():
    rng = np.random.default_rng(32)
    arr = rng.integers(0, 90, (8, 8), dtype=np.uint8)
    shifted = (arr + 160).astype(np.uint8)
    a = features_of(Image(arr))
    b = features_of(Image(shifted))
    for i, name in enumerate(NAMES):
        if name.endswith("_var") or name.endswith("_edges"):
            assert a[i] == pytest.approx(b[i], abs=1e-12)
        if name.endswith("_mean"):
            assert b[i] == pytest.approx(a[i] + 160 / 255.0, abs=1e-12)


def test_extract_rejects_small_images():
    with pytest.raises(ValueError):
        features_of(gray(np.zeros((7, 8))))


def reference_block_descriptor(block):
    """The per-block descriptor that the batched extract_features replaced,
    kept as the reference."""
    vals = block.astype(np.float64)
    mean = vals.mean() / 255.0
    var = vals.var() / (255.0 ** 2)
    hist = np.bincount((block // 16).ravel(), minlength=16).astype(np.float64)
    hist /= block.size
    horiz = (block[:, 1:] != block[:, :-1]).sum()
    vert = (block[1:, :] != block[:-1, :]).sum()
    pairs = block.shape[0] * (block.shape[1] - 1) + (block.shape[0] - 1) * block.shape[1]
    edges = (horiz + vert) / pairs
    return [mean, var, *hist, edges]


def reference_features(img):
    plane = img.plane()
    h2, w2 = plane.shape[0] // 2, plane.shape[1] // 2
    values = []
    for block in (plane[:h2, :w2], plane[:h2, w2:], plane[h2:, :w2], plane[h2:, w2:]):
        values.extend(reference_block_descriptor(block))
    return np.array(values)


def test_feature_matrix_rows_match_per_block_reference():
    rng = np.random.default_rng(32)
    for h, w in ((8, 8), (9, 11), (20, 20), (31, 17)):
        images = [gray(np.full((h, w), 40)),
                  gray(rng.integers(0, 4, (h, w)) * 80),
                  *(gray(rng.integers(0, 256, (h, w))) for _ in range(5))]
        matrix = extract_features(images)
        assert matrix.shape == (len(images), 76)
        for row, img in zip(matrix, images):
            assert row.tobytes() == reference_features(img).tobytes()
            assert features_of(img).tobytes() == row.tobytes()


def test_feature_matrix_rejects_mixed_sizes_and_small_images():
    with pytest.raises(ValueError, match="one size"):
        extract_features([gray(np.zeros((8, 8))), gray(np.zeros((9, 8)))])
    with pytest.raises(ValueError, match="one size"):
        extract_features([])
    with pytest.raises(ValueError, match="at least 8x8"):
        extract_features([gray(np.zeros((8, 7)))] * 2)


def test_features_csv_layout():
    fv = features_of(gray(np.zeros((8, 8))))
    csv = features_to_csv([fv, fv])
    lines = csv.strip().split("\n")
    assert lines[0].split(",") == list(feature_names())
    assert len(lines) == 3


# ---------------------------------------------------------------------------
# cluster_and_select
# ---------------------------------------------------------------------------

def test_identical_columns_single_cluster():
    rng = np.random.default_rng(34)
    base = rng.normal(0, 1, 20)
    samples = np.column_stack([base, 2.0 * base, 0.5 * base + 0.0])
    clusters, selected = cluster_and_select(samples, threshold=1.0 - 1e-9)
    assert clusters == ((0, 1, 2),)
    assert len(selected) == 1


def test_uncorrelated_columns_stay_apart():
    # orthogonal design: exact zero correlation
    a = np.array([1.0, 1.0, -1.0, -1.0])
    b = np.array([1.0, -1.0, 1.0, -1.0])
    assert cluster_and_select(np.column_stack([a, b]), threshold=0.5) == (
        ((0,), (1,)), (0, 1))


def test_high_threshold_no_merges():
    rng = np.random.default_rng(35)
    samples = rng.normal(0, 1, (30, 4))
    sim = np.abs(np.corrcoef(samples.T))
    np.fill_diagonal(sim, 0.0)
    theta = sim.max() + 1e-6
    clusters, selected = cluster_and_select(samples, threshold=theta)
    assert len(clusters) == 4
    assert selected == (0, 1, 2, 3)


def test_zero_variance_column_rejected():
    samples = np.column_stack([np.ones(5), np.arange(5.0)])
    with pytest.raises(DegenerateFeatureError):
        cluster_and_select(samples, threshold=0.5)


def test_clusters_partition_indices():
    rng = np.random.default_rng(36)
    base = rng.normal(0, 1, (40, 2))
    samples = np.column_stack([
        base[:, 0], base[:, 0] + rng.normal(0, 0.05, 40),
        base[:, 1], base[:, 1] + rng.normal(0, 0.05, 40),
    ])
    clusters, selected = cluster_and_select(samples, threshold=0.8)
    seen = sorted(i for cluster in clusters for i in cluster)
    assert seen == [0, 1, 2, 3]
    assert len(selected) == len(clusters)


def test_similarity_agrees_with_scipy_pearson():
    rng = np.random.default_rng(37)
    samples = rng.normal(0, 1, (25, 3))
    # clustering with threshold above 1 performs no merges; mirror the
    # similarity matrix through scipy as an independent reference
    sim = _abs_correlation(samples)
    for i in range(3):
        for j in range(3):
            expected = abs(pearsonr(samples[:, i], samples[:, j])[0])
            assert sim[i, j] == pytest.approx(expected, abs=1e-12)


def test_select_features_drops_constant_columns_keeps_original_indices():
    rng = np.random.default_rng(39)
    a, b = rng.normal(0, 1, (2, 6))
    tiny = np.full(6, 0.1)
    assert tiny.std() > 0  # rounding: a std test would keep this column
    samples = np.column_stack([tiny, a, np.zeros(6), 2.0 * a + 1.0, b])
    assert select_features(samples, threshold=0.9) == (1, 4)


def test_select_features_fewer_than_two_varying_columns():
    rng = np.random.default_rng(40)
    one = np.column_stack([np.ones(5), rng.normal(0, 1, 5), np.zeros(5)])
    assert select_features(one, threshold=0.9) == (1,)
    assert select_features(np.ones((5, 3)), threshold=0.9) == ()
    with pytest.raises(ValueError, match="at least 3 samples"):
        select_features(one[:2], threshold=0.9)


def test_cluster_order_invariance_up_to_tiebreak():
    rng = np.random.default_rng(38)
    base = rng.normal(0, 1, (50, 2))
    noise = rng.normal(0, 0.02, (50, 2))
    samples = np.column_stack([base[:, 0], base[:, 1],
                               base[:, 0] + noise[:, 0],
                               base[:, 1] + noise[:, 1]])
    clusters, _ = cluster_and_select(samples, threshold=0.9)
    perm = [1, 3, 0, 2]  # columns permuted
    clusters_p, _ = cluster_and_select(samples[:, perm], threshold=0.9)
    mapped = tuple(sorted(tuple(sorted(perm.index(i) for i in cluster))
                          for cluster in clusters))
    assert mapped == tuple(sorted(clusters_p))


def reference_cluster_and_select(samples, threshold):
    """The clustering loop that rescanned every cluster pair per merge,
    kept as the reference for the incremental linkage table."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 2 or samples.shape[1] < 2:
        raise ValueError("need a samples-by-features matrix with >= 2 features")
    if samples.shape[0] < 3:
        raise ValueError("need at least 3 samples")
    sim = _abs_correlation(samples)
    clusters = [[i] for i in range(samples.shape[1])]
    while len(clusters) > 1:
        best_pair = None
        best_sim = -1.0
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                pair_sim = float(np.mean(sim[np.ix_(clusters[i], clusters[j])]))
                if pair_sim > best_sim:
                    best_sim = pair_sim
                    best_pair = (i, j)
        if best_sim < threshold:
            break
        i, j = best_pair
        clusters[i] = sorted(clusters[i] + clusters[j])
        del clusters[j]
    clusters.sort(key=lambda c: c[0])

    selected = []
    for cluster in clusters:
        # Centrality: mean |correlation| with the whole cluster (self included).
        scores = [float(np.mean(sim[f, cluster])) for f in cluster]
        selected.append(cluster[int(np.argmax(scores))])
    return tuple(tuple(c) for c in clusters), tuple(sorted(selected))


def test_clustering_matches_pair_rescan_reference():
    rng = np.random.default_rng(39)
    merged_cases = 0
    for case in range(120):
        rows = int(rng.integers(3, 12))
        cols = int(rng.integers(2, 11))
        # small integers: many equal correlations and similarity ties
        samples = rng.integers(0, 3, (rows, cols)).astype(np.float64)
        for c in range(cols):
            if samples[:, c].std() == 0:
                samples[c % rows, c] += 1.0
        if case % 2:  # duplicated (and rescaled or negated) columns
            src = rng.integers(0, cols, int(rng.integers(1, 4)))
            scale = rng.choice([1.0, 2.0, -1.0], src.size)
            samples = np.column_stack([samples, samples[:, src] * scale])
            samples = samples[:, rng.permutation(samples.shape[1])]
        for threshold in (0.0, 0.5, 1.0, 1.5):
            got = cluster_and_select(samples, threshold)
            expected = reference_cluster_and_select(samples, threshold)
            assert got == expected
            if threshold == 1.0 and len(got[0]) < samples.shape[1]:
                merged_cases += 1
    assert merged_cases > 20


# ---------------------------------------------------------------------------
# optimize_weights
# ---------------------------------------------------------------------------

def test_single_criterion_weight_is_one():
    scores = np.array([[0.2], [0.5], [1.0]])
    weights, value = optimize_weights(scores)
    assert weights == pytest.approx([1.0])
    expected = ((scores[:, 0] - 0.2) / 0.8).sum()
    assert value == pytest.approx(expected)


def test_identical_criteria_stay_uniform():
    col = np.array([0.1, 0.4, 0.9, 0.3])
    weights, _ = optimize_weights(np.column_stack([col, col]))
    assert weights == pytest.approx([0.5, 0.5])


def grid_search_best(table, step=0.01):
    return max(
        weight_objective(table, np.array([w1, 1.0 - w1]))
        for w1 in np.arange(0.0, 1.0 + 1e-12, step)
    )


def test_dominant_criterion_matches_grid():
    rng = np.random.default_rng(4)
    n = 10
    strong = rng.uniform(0.7, 0.95, n)
    weak = rng.uniform(0.2, 0.4, n)
    strong[0] = weak[0] = 1.0
    strong[1] = weak[1] = 0.0
    table = np.column_stack([strong, weak])
    weights, value = optimize_weights(table)
    assert abs(weights[0] - 1.0) < 0.02
    assert abs(value - grid_search_best(table)) < 1e-3


def test_weights_stay_on_simplex_and_beat_uniform():
    rng = np.random.default_rng(40)
    for seed in range(10):
        a = rng.beta(4.0, 1.5, 12)
        b = rng.beta(1.5, 4.0, 12)
        table = np.column_stack([a, b])
        weights, value = optimize_weights(table)
        assert weights.min() >= 0.0
        assert weights.sum() == pytest.approx(1.0, abs=1e-9)
        uniform = weight_objective(table, np.full(2, 0.5))
        assert value >= uniform - 1e-12


def test_objective_invariant_under_affine_rescale():
    rng = np.random.default_rng(41)
    a = rng.beta(4.0, 1.5, 12)
    b = rng.beta(1.5, 4.0, 12)
    _, value = optimize_weights(np.column_stack([a, b]))
    rescaled = np.column_stack([3.0 * a + 10.0, 0.25 * b - 2.0])
    _, value2 = optimize_weights(rescaled)
    assert value2 == pytest.approx(value, abs=1e-6)


def test_many_criteria_closed_form_beats_vertices_and_interior():
    rng = np.random.default_rng(43)
    for m in range(3, 9):
        table = rng.beta(rng.uniform(1, 5, m), rng.uniform(1, 5, m),
                         (int(rng.integers(5, 30)), m))
        weights, value = optimize_weights(table)
        assert weights.min() >= 0.0
        assert weights.sum() == pytest.approx(1.0, abs=1e-9)
        assert value == weight_objective(table, weights)
        tol = 1e-12 * abs(value)
        for vertex in np.eye(m):
            assert value >= weight_objective(table, vertex) - tol
        for point in rng.dirichlet(np.ones(m), 170):
            assert value >= weight_objective(table, point) - tol


def test_three_identical_criteria_share_the_weight():
    col = np.array([0.1, 0.4, 0.9, 0.3, 0.7])
    table = np.column_stack([col, col, col])
    weights, value = optimize_weights(table)
    assert np.array_equal(weights, np.full(3, 1.0 / 3.0))
    assert value == pytest.approx(weight_objective(table, np.array([1.0, 0.0, 0.0])))


# The projected-gradient ascent optimize_weights used before its closed form.

def project_to_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    rho = np.nonzero(u * np.arange(1, v.size + 1) > (css - 1.0))[0][-1]
    theta = (css[rho] - 1.0) / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def reference_optimize_weights(table, step=0.05, iters=500):
    m = table.shape[1]
    anti_ideal = table.min(axis=0)
    gains = (table - anti_ideal).sum(axis=0)  # per-criterion numerators
    ranges = table.max(axis=0) - anti_ideal
    w = np.full(m, 1.0 / m)
    best_w = w
    best_val = weight_objective(table, w)
    for _ in range(iters):
        num = float(gains @ w)
        den = float(ranges @ w)
        grad = (gains * den - num * ranges) / (den * den)
        w = project_to_simplex(w + step * grad)
        val = weight_objective(table, w)
        if val > best_val:
            best_val = val
            best_w = w
    return best_w, best_val


def assert_matches_reference(table):
    weights, value = optimize_weights(table)
    ref_weights, ref_value = reference_optimize_weights(table)
    assert weights.tobytes() == ref_weights.tobytes()
    assert value == ref_value


def test_closed_form_matches_gradient_ascent_on_criterion_7_tables():
    for seed in range(20):
        rng = np.random.default_rng(9000 + seed)
        a = rng.beta(4.0, 1.5, 12)
        b = rng.beta(1.5, 4.0, 12)
        cols = (a, b) if seed % 2 == 0 else (b, a)
        assert_matches_reference(np.column_stack(cols))


@pytest.mark.parametrize("seed", [1, 7])
def test_closed_form_matches_gradient_ascent_on_experiment_sidecar(seed):
    # The table _feature_sidecar_row builds for the 20x20, noise-1 cell of
    # an experiment with 200 images per class and holdout 0.2.
    images, labels = cli._cell_dataset(seed, 200, 20, 1)
    rng = np.random.default_rng([seed, 20, 1, 0, 7])
    (train_x, _), _ = cli._split(images, labels, 0.2, rng)
    matrix = extract_features(train_x)
    selected = select_features(matrix, 0.9)
    table = matrix[:, list(selected)]
    assert table.shape[1] > 2
    assert_matches_reference(table)


def test_zero_range_criterion_rejected():
    with pytest.raises(ValueError):
        optimize_weights(np.array([[1.0, 2.0], [1.0, 3.0]]))
