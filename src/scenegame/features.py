"""Block image features, correlation-driven feature selection, and
closed-form simplex weights.
"""

import numpy as np

HISTOGRAM_BINS = 16


class DegenerateFeatureError(ValueError):
    """A feature column has zero variance, so its correlation is undefined."""


# ---------------------------------------------------------------------------
# Feature extraction
# ---------------------------------------------------------------------------

def feature_names() -> tuple:
    names = []
    for br in range(2):
        for bc in range(2):
            prefix = f"b{br}{bc}"
            names.append(f"{prefix}_mean")
            names.append(f"{prefix}_var")
            names.extend(f"{prefix}_hist{k:02d}" for k in range(HISTOGRAM_BINS))
            names.append(f"{prefix}_edges")
    return tuple(names)


def extract_features(images) -> np.ndarray:
    """(N, 76) block descriptors of N equal-size images, one row each, in
    feature_names() order.

    Per block of the 2x2 grid: mean and variance over the block's pixels
    (scaled to [0, 1]), a 16-bin histogram whose slice sums to 1, and the
    edge density, the fraction of 4-neighbor pairs inside the block whose
    intensities differ. Raises ValueError unless every image has the same
    size, at least 8x8.
    """
    planes = [img.plane() for img in images]
    sizes = sorted({plane.shape for plane in planes})
    if len(sizes) != 1:
        raise ValueError(f"need images of one size, got sizes {sizes}")
    h, w = sizes[0]
    if h < 8 or w < 8:
        raise ValueError(f"image must be at least 8x8, got {w}x{h}")
    stack = np.stack(planes)
    count = stack.shape[0]
    h2, w2 = h // 2, w // 2
    columns = []
    for block in (stack[:, :h2, :w2], stack[:, :h2, w2:],
                  stack[:, h2:, :w2], stack[:, h2:, w2:]):
        bh, bw = block.shape[1:]
        vals = block.astype(np.float64)
        columns.append(vals.mean(axis=(1, 2))[:, None] / 255.0)
        columns.append(vals.var(axis=(1, 2))[:, None] / (255.0 ** 2))
        # one bincount over (image, bin) pairs: image i's bins start at 16 i
        bins = block // (256 // HISTOGRAM_BINS) + (
            HISTOGRAM_BINS * np.arange(count))[:, None, None]
        hist = np.bincount(bins.ravel(), minlength=HISTOGRAM_BINS * count)
        hist = hist.reshape(count, HISTOGRAM_BINS).astype(np.float64)
        hist /= bh * bw
        columns.append(hist)
        horiz = (block[:, :, 1:] != block[:, :, :-1]).sum(axis=(1, 2))
        vert = (block[:, 1:, :] != block[:, :-1, :]).sum(axis=(1, 2))
        pairs = bh * (bw - 1) + (bh - 1) * bw
        columns.append(((horiz + vert) / pairs)[:, None])
    return np.hstack(columns)


def features_to_csv(rows) -> str:
    """One CSV row per descriptor row, under a header of component names."""
    lines = [",".join(repr(float(v)) for v in row) for row in rows]
    return "\n".join([",".join(feature_names()), *lines]) + "\n"


# ---------------------------------------------------------------------------
# Correlation clustering and representative selection
# ---------------------------------------------------------------------------

def _abs_correlation(samples: np.ndarray) -> np.ndarray:
    stds = samples.std(axis=0)
    if np.any(stds == 0):
        bad = int(np.argmin(stds))
        raise DegenerateFeatureError(f"feature column {bad} has zero variance")
    centered = (samples - samples.mean(axis=0)) / stds
    corr = centered.T @ centered / samples.shape[0]
    return np.minimum(np.abs(corr), 1.0)


def cluster_and_select(samples, threshold: float) -> tuple:
    """Agglomerative feature grouping by |Pearson correlation|: returns
    (clusters, selected), the clusters as sorted index tuples ordered by
    their first index, and the sorted representatives, one per cluster.

    Cluster-to-cluster similarity is the average pairwise |correlation|;
    merging continues while the maximum similarity is at least the threshold
    (the first merge is guarded too). Each cluster contributes the feature
    with the highest within-cluster centrality (mean |correlation| with its
    own cluster), ties to the lowest index. Equal similarities merge the
    first pair in cluster-list order. The linkage table is kept between
    merges: a merge recomputes only the merged cluster's row and column.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 2 or samples.shape[1] < 2:
        raise ValueError("need a samples-by-features matrix with >= 2 features")
    if samples.shape[0] < 3:
        raise ValueError("need at least 3 samples")
    sim = _abs_correlation(samples)
    m = sim.shape[1]
    clusters = [[i] for i in range(m)]
    # link[i, j], i < j: average linkage of clusters i and j; -inf elsewhere.
    # Row-major argmax takes the first maximum over pairs (i, j), i < j.
    link = np.full((m, m), -np.inf)
    upper = np.triu_indices(m, 1)
    link[upper] = sim[upper]
    while len(clusters) > 1:
        i, j = divmod(int(np.argmax(link)), len(clusters))
        if link[i, j] < threshold:
            break
        clusters[i] = sorted(clusters[i] + clusters[j])
        del clusters[j]
        link = np.delete(np.delete(link, j, axis=0), j, axis=1)
        for k in range(len(clusters)):
            if k < i:
                link[k, i] = np.mean(sim[np.ix_(clusters[k], clusters[i])])
            elif k > i:
                link[i, k] = np.mean(sim[np.ix_(clusters[i], clusters[k])])
    clusters.sort(key=lambda c: c[0])

    selected = []
    for cluster in clusters:
        # Centrality: mean |correlation| with the whole cluster (self included).
        scores = [float(np.mean(sim[f, cluster])) for f in cluster]
        selected.append(cluster[int(np.argmax(scores))])
    return tuple(tuple(c) for c in clusters), tuple(sorted(selected))


def check_select(threshold: float, sample_count: int):
    """select_features' threshold and sample count; the CLI checks them, with
    one sample per input, before any input is read."""
    if not np.isfinite(threshold):
        raise ValueError(f"threshold must be finite, got {threshold}")
    if sample_count < 3:
        raise ValueError("need a samples-by-features matrix with at least 3 samples")


def select_features(samples, threshold: float) -> tuple:
    """Original column indices of the representatives cluster_and_select picks
    among the non-constant columns of a samples-by-features matrix.

    A column with zero peak-to-peak range has no correlation and is dropped
    first. With fewer than two columns left, each is its own representative.
    The threshold must be finite.
    """
    samples = np.asarray(samples, dtype=np.float64)
    check_select(threshold, samples.shape[0] if samples.ndim == 2 else 0)
    varying = np.flatnonzero(np.ptp(samples, axis=0) > 0)
    if varying.size < 2:
        return tuple(int(i) for i in varying)
    _, selected = cluster_and_select(samples[:, varying], threshold)
    return tuple(int(varying[i]) for i in selected)


# ---------------------------------------------------------------------------
# Simplex weights
# ---------------------------------------------------------------------------

def _gains_and_ranges(scores):
    """Per-sample gains H_ij - min_j and per-criterion ranges max_j - min_j
    of a sample-by-criterion score table.

    Raises ValueError unless the table is a nonempty 2-D table whose
    criteria all have a range > 0; the caller drops zero-range criteria.
    """
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim != 2 or s.shape[0] < 1 or s.shape[1] < 1:
        raise ValueError("scores must be a nonempty 2-D table")
    hi = s.max(axis=0)
    lo = s.min(axis=0)
    if np.any(hi <= lo):
        raise ValueError(f"criterion {int(np.argmin(hi - lo))} has zero score range")
    return s - lo, hi - lo


def weight_objective(scores, weights: np.ndarray) -> float:
    """Sum over samples of the weighted normalized score ratio.

    Per sample: (sum_j w_j (H_ij - min_j)) / (sum_j w_j (max_j - min_j)).
    """
    gains, ranges = _gains_and_ranges(scores)
    return float((gains @ weights).sum() / float(ranges @ weights))


def optimize_weights(scores):
    """Exact maximum of the normalized weighted objective over the simplex.

    With G_j = sum_i (H_ij - min_j) and R_j = max_j - min_j > 0, the
    objective is the linear-fractional (G.w) / (R.w) (Charnes & Cooper 1962),
    which equals sum_j [w_j R_j / sum_k w_k R_k] (G_j / R_j): a convex
    combination of the per-criterion ratios G_j / R_j. It can be no larger
    than the largest ratio, and the vertex of that criterion attains it, so
    no point of the simplex, the uniform one included, scores higher. The
    weight is spread evenly over the criteria whose ratio equals the maximum
    exactly (identical criteria share it). Returns (weights, objective
    value): the weights as a 1-D array, the value computed by
    weight_objective.
    """
    gains, ranges = _gains_and_ranges(scores)
    ratio = gains.sum(axis=0) / ranges
    best = ratio == ratio.max()
    weights = best / np.count_nonzero(best)
    return weights, weight_objective(scores, weights)
