"""Image-scale oracle for binary Potts models: s-t minimum cut.

A binary Potts energy is submodular, so a minimum s-t cut of its graph gives
an exact global minimizer (Greig, Porteous & Seheult 1989; Kolmogorov & Zabih
2004). This test-only oracle measures how far the solvers' equilibria sit
from the optimum at sizes exhaustive_oracle cannot reach.
"""

import numpy as np
import pytest

from scenegame.image import LabelField
from scenegame.mrf import EnergyModel, energy_of, exhaustive_oracle, solve_anneal, solve_icm

sparse = pytest.importorskip("scipy.sparse")
csgraph = pytest.importorskip("scipy.sparse.csgraph")

# maximum_flow needs integer capacities: each is rounded to a multiple of
# 1 / MINCUT_SCALE energy units.
MINCUT_SCALE = 10_000


def mincut_potts(model):
    """Global minimizer of a binary Potts model by s-t minimum cut.

    Returns (labels, tolerance). Pixels on the source side take label 0,
    the others label 1. Each pixel's data terms become one terminal edge
    (its two costs less the smaller one) and each grid edge two directed
    edges of capacity prior_weight * edge weight. Rounding moves each of the
    n pixel terms and m edge terms of any labeling's energy by at most
    0.5 / MINCUT_SCALE, so every energy is within (n + m) / (2 * MINCUT_SCALE)
    of its rounded value, and the returned labels' energy is within
    tolerance = (n + m) / MINCUT_SCALE of the true minimum (3e-4 per pixel on
    large grids).
    """
    assert model.prior_kind == "potts" and model.label_count == 2
    h, w = model.height, model.width
    n = h * w
    source, sink = n, n + 1
    costs = model.data_costs.reshape(n, 2)
    low = costs.min(axis=1)
    # s -> p is cut when p takes label 1, p -> t when it takes label 0.
    to_label = np.rint((costs - low[:, None]) * MINCUT_SCALE)
    edge_x = np.rint(model.prior_weight * model.edge_weights_x * MINCUT_SCALE).ravel()
    edge_y = np.rint(model.prior_weight * model.edge_weights_y * MINCUT_SCALE).ravel()
    idx = np.arange(n).reshape(h, w)
    left, right = idx[:, :-1].ravel(), idx[:, 1:].ravel()
    up, down = idx[:-1, :].ravel(), idx[1:, :].ravel()
    tails = np.concatenate((np.full(n, source), idx.ravel(), left, right, up, down))
    heads = np.concatenate((idx.ravel(), np.full(n, sink), right, left, down, up))
    caps = np.concatenate((to_label[:, 1], to_label[:, 0], edge_x, edge_x, edge_y, edge_y))
    assert caps.min() >= 0 and caps.sum() < 2 ** 31  # no int32 overflow
    graph = sparse.csr_array((caps.astype(np.int32), (tails, heads)), shape=(n + 2, n + 2))
    graph.eliminate_zeros()
    result = csgraph.maximum_flow(graph, source, sink)
    # The flow is antisymmetric, so capacity - flow is the residual graph,
    # reverse edges included; the source side is what it still reaches.
    residual = graph - result.flow
    residual = sparse.csr_array(residual.multiply(residual > 0))
    reached = csgraph.breadth_first_order(residual, source, directed=True,
                                          return_predecessors=False)
    lab = np.ones(n + 2, dtype=np.int64)
    lab[reached] = 0
    lab = lab[:n].reshape(h, w)
    # The cut's rounded capacity is the maximum flow, exactly.
    cut = (to_label[np.arange(n), lab.ravel()].sum()
           + edge_x[(lab[:, :-1] != lab[:, 1:]).ravel()].sum()
           + edge_y[(lab[:-1, :] != lab[1:, :]).ravel()].sum())
    assert cut == result.flow_value
    return LabelField(labels=lab, label_count=2), (n + edge_x.size + edge_y.size) / MINCUT_SCALE


def binary_potts(rng, shape, prior_weight, weighted=False):
    """Frustrated binary Potts instance: N(0, 1) data costs per label."""
    h, w = shape
    return EnergyModel(data_costs=rng.normal(0.0, 1.0, shape + (2,)),
                       prior_weight=prior_weight, prior_kind="potts",
                       edge_weights_x=rng.uniform(0, 2, (h, w - 1)) if weighted else None,
                       edge_weights_y=rng.uniform(0, 2, (h - 1, w)) if weighted else None)


def test_mincut_matches_exhaustive_oracle():
    rng = np.random.default_rng(61)
    for k in range(40):
        shape = ((3, 3), (4, 4))[k % 2]
        model = binary_potts(rng, shape, float(rng.uniform(0.1, 2.5)), weighted=k % 4 >= 2)
        labels, tolerance = mincut_potts(model)
        _, best = exhaustive_oracle(model)
        assert best - 1e-12 <= energy_of(model, labels) <= best + tolerance


# Per-pixel energy gap to the min-cut optimum at 64x64, seeds 0-3, measured:
#   prior 1.0: ICM 0.091-0.100, anneal 0.021-0.029
#   prior 2.0: ICM 0.366-0.382, anneal 0.078-0.105
# Each bound is 10-20% above the largest measured gap.
GAP_BOUNDS = {1.0: (0.11, 0.035), 2.0: (0.42, 0.12)}


@pytest.mark.parametrize("prior_weight", sorted(GAP_BOUNDS))
def test_equilibrium_gaps_to_the_optimum_at_image_scale(prior_weight):
    icm_bound, anneal_bound = GAP_BOUNDS[prior_weight]
    n = 64
    for seed in range(4):
        model = binary_potts(np.random.default_rng(seed), (n, n), prior_weight)
        optimum, tolerance = mincut_potts(model)
        best = energy_of(model, optimum)
        # Each pixel starts on its cheapest data label, as the CLI does.
        init = LabelField(labels=np.argmin(model.data_costs, axis=2), label_count=2)
        icm_gap = (energy_of(model, solve_icm(model, init)[0]) - best) / n ** 2
        anneal_gap = (energy_of(model, solve_anneal(model, init, seed=seed)[0]) - best) / n ** 2
        # No labeling beats the optimum by more than the quantization.
        assert min(icm_gap, anneal_gap) >= -tolerance / n ** 2
        assert icm_gap <= icm_bound
        assert anneal_gap <= anneal_bound
        assert anneal_gap < icm_gap
