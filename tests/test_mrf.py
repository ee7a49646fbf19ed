import math
import re
import tracemalloc

import numpy as np
import pytest

from scenegame import mrf
from scenegame.gmm import GmmParams
from scenegame.gmm import fit as gmm_fit
from scenegame.image import DisplacementLabelSet, Image, LabelField, gen_scene
from scenegame.mrf import (
    EllipticityError,
    EnergyModel,
    SmoothnessField,
    SweepRecord,
    _check_dims,
    _gibbs_weights,
    _site_costs,
    _site_table,
    build_registration_game,
    build_segmentation_game,
    ellipticity_check,
    energy_of,
    exhaustive_oracle,
    labels_to_image,
    nash_check,
    smoothness_residual,
    solve_anneal,
    solve_icm,
    trace_to_csv,
)


def potts_model(dc, beta):
    return EnergyModel(data_costs=np.asarray(dc, dtype=float),
                       prior_weight=beta, prior_kind="potts")


def field_of(arr, label_count):
    return LabelField(labels=np.asarray(arr), label_count=label_count)


def random_instance(rng, shape=(3, 3), labels=2, scale=1.0, beta=None):
    dc = rng.uniform(0, scale, shape + (labels,))
    if beta is None:
        beta = float(rng.uniform(0.1, 0.8))
    return potts_model(dc, beta)


def naive_energy(model, labels):
    """Reference double-loop implementation, independent of energy_of."""
    lab = labels.labels
    h, w = lab.shape
    total = 0.0
    for r in range(h):
        for c in range(w):
            total += model.data_costs[r, c, lab[r, c]]
    for r in range(h):
        for c in range(w):
            for dr, dc_ in ((0, 1), (1, 0)):
                rr, cc = r + dr, c + dc_
                if rr < h and cc < w:
                    if model.prior_kind == "potts":
                        v = 0.0 if lab[r, c] == lab[rr, cc] else 1.0
                    else:
                        v = model.pair_cost[lab[r, c], lab[rr, cc]]
                    grid = model.edge_weights_x if dr == 0 else model.edge_weights_y
                    total += model.prior_weight * grid[r, c] * v
    return total


def naive_site_costs(model, lab, r, c):
    """Per-site reference for one row of _site_costs: data cost plus each
    neighbor's weighted pair cost, added left, right, up, down."""
    h, w = lab.shape
    wx, wy = model.edge_weights_x, model.edge_weights_y
    nbrs = []
    if c > 0:
        nbrs.append((lab[r, c - 1], wx[r, c - 1]))
    if c < w - 1:
        nbrs.append((lab[r, c + 1], wx[r, c]))
    if r > 0:
        nbrs.append((lab[r - 1, c], wy[r - 1, c]))
    if r < h - 1:
        nbrs.append((lab[r + 1, c], wy[r, c]))
    costs = [float(v) for v in model.data_costs[r, c]]
    for nb, wgt in nbrs:
        scale = model.prior_weight * float(wgt)
        for lbl in range(len(costs)):
            costs[lbl] += scale * float(model.pair_cost[nb, lbl])
    return costs


def random_weighted_model(rng, shape, labels, kind):
    h, w = shape
    return EnergyModel(data_costs=rng.uniform(0, 5, shape + (labels,)),
                       prior_weight=float(rng.uniform(0, 2)), prior_kind=kind,
                       edge_weights_x=rng.uniform(0, 2, (h, w - 1)),
                       edge_weights_y=rng.uniform(0, 2, (h - 1, w)))


# ---------------------------------------------------------------------------
# energy_of
# ---------------------------------------------------------------------------

def test_energy_beta_zero_is_data_sum():
    dc = np.arange(8, dtype=float).reshape(2, 2, 2)
    model = potts_model(dc, 0.0)
    labels = field_of([[0, 1], [1, 0]], 2)
    expected = dc[0, 0, 0] + dc[0, 1, 1] + dc[1, 0, 1] + dc[1, 1, 0]
    assert energy_of(model, labels) == expected


def test_energy_potts_pair_terms():
    dc = np.zeros((1, 2, 2))
    model = potts_model(dc, 2.5)
    assert energy_of(model, field_of([[0, 0]], 2)) == 0.0
    assert energy_of(model, field_of([[0, 1]], 2)) == 2.5


def test_energy_matches_naive_reference():
    rng = np.random.default_rng(21)
    for _ in range(20):
        model = random_instance(rng, shape=(4, 4), labels=3, scale=5.0)
        labels = field_of(rng.integers(0, 3, (4, 4)), 3)
        assert energy_of(model, labels) == pytest.approx(
            naive_energy(model, labels), abs=1e-12)


def reference_energy(model, lab):
    """Verbatim copy of mrf._energy as it read pair_cost by fancy indexing,
    pair[a, b]; the solver traces print repr(energy), so the flat-index read
    must give these bits exactly."""
    label_count = model.label_count
    # Flat index of (site, label) in data_costs is site * label_count + label.
    picks = np.arange(0, lab.size * label_count, label_count) + lab.ravel()
    total = float(model.data_costs.take(picks).sum())
    pair = model.pair_cost
    horiz = pair[lab[:, :-1], lab[:, 1:]] * model.edge_weights_x
    vert = pair[lab[:-1, :], lab[1:, :]] * model.edge_weights_y
    return total + model.prior_weight * float(horiz.sum() + vert.sum())


def test_energy_is_bitwise_the_fancy_indexed_reference():
    rng = np.random.default_rng(41)
    shapes = ((1, 1), (1, 9), (9, 1), (1, 64), (64, 1), (5, 7), (33, 20), (64, 64))
    for labels in (1, 2, 3, 9, 49):
        for kind in ("potts", "quadratic", "quadratic 2-D values"):
            for shape in shapes:
                if kind == "quadratic 2-D values":
                    h, w = shape
                    model = EnergyModel(
                        data_costs=rng.normal(0, 3, shape + (labels,)),
                        prior_weight=float(rng.uniform(0, 2)), prior_kind="quadratic",
                        label_values=rng.normal(0, 2, (labels, 2)),
                        edge_weights_x=rng.uniform(0, 2, (h, w - 1)),
                        edge_weights_y=rng.uniform(0, 2, (h - 1, w)))
                else:
                    model = random_weighted_model(rng, shape, labels, kind)
                lab = rng.integers(0, labels, shape)
                assert mrf._energy(model, lab) == reference_energy(model, lab)
                # Every site on the last label reads the table's last entry.
                last = np.full(shape, labels - 1)
                assert mrf._energy(model, last) == reference_energy(model, last)


def test_energy_dimension_mismatch():
    model = potts_model(np.zeros((2, 2, 2)), 1.0)
    with pytest.raises(ValueError):
        energy_of(model, field_of([[0]], 2))
    with pytest.raises(ValueError):
        energy_of(model, field_of(np.zeros((2, 2), dtype=int), 3))


def test_model_validation():
    with pytest.raises(ValueError):
        potts_model(np.full((1, 1, 2), np.inf), 1.0)
    with pytest.raises(ValueError):
        potts_model(np.zeros((1, 1, 2)), -0.5)
    with pytest.raises(ValueError):
        EnergyModel(data_costs=np.zeros((1, 1, 2)), prior_weight=0.0,
                    prior_kind="cubic")


def test_model_rejects_non_finite_edge_weights_and_label_values():
    dc = np.zeros((3, 3, 2))
    for bad in (np.inf, -np.inf, np.nan):
        for name, shape in (("edge_weights_x", (3, 2)), ("edge_weights_y", (2, 3))):
            for grid in (np.full(shape, bad), np.where(np.eye(*shape), bad, 1.0)):
                with pytest.raises(ValueError, match=f"{name} must be finite"):
                    EnergyModel(data_costs=dc, prior_weight=1.0, **{name: grid})
        with pytest.raises(ValueError, match="label_values must be finite"):
            EnergyModel(data_costs=dc, prior_weight=1.0, prior_kind="quadratic",
                        label_values=[0.0, bad])
    # Negative edge weights stay legal.
    model = EnergyModel(data_costs=dc, prior_weight=1.0,
                        edge_weights_x=-np.ones((3, 2)), edge_weights_y=-np.ones((2, 3)))
    assert model.edge_weights_x.tolist() == [[-1.0, -1.0]] * 3


def test_model_rejects_an_empty_grid_naming_its_shape():
    for shape in ((0, 3, 2), (3, 0, 2), (0, 0, 1)):
        with pytest.raises(ValueError, match=re.escape(f"data_costs shape {shape}")):
            EnergyModel(data_costs=np.zeros(shape), prior_weight=1.0)
        with pytest.raises(ValueError, match="empty grid"):
            EnergyModel(data_costs=np.zeros(shape), prior_weight=1.0,
                        prior_kind="quadratic",
                        edge_weights_x=np.ones((shape[0], max(shape[1] - 1, 0))),
                        edge_weights_y=np.ones((max(shape[0] - 1, 0), shape[1])))


def test_derived_fields_are_not_constructor_arguments():
    with pytest.raises(TypeError):
        EnergyModel(data_costs=np.zeros((2, 2, 2)), prior_weight=1.0,
                    pair_cost=np.full((2, 2), 99.0))
    assert potts_model(np.zeros((2, 2, 2)), 1.0).pair_cost.tolist() == [
        [0.0, 1.0], [1.0, 0.0]]


def test_array_records_compare_by_identity():
    # Equality of records holding arrays is identity: == never compares the
    # arrays, so it returns a bool instead of raising.
    def build():
        return (potts_model(np.zeros((2, 2, 2)), 1.0),
                GmmParams(weights=[0.5, 0.5], means=[0.2, 0.8], variances=[0.1, 0.1]))

    for first, second in zip(build(), build()):
        assert first == first
        assert (first == second) is False
        assert (first != second) is True


# ---------------------------------------------------------------------------
# one raster sweep
# ---------------------------------------------------------------------------

def test_sweep_beta_zero_pointwise_argmin():
    rng = np.random.default_rng(2)
    dc = rng.uniform(0, 1, (3, 4, 3))
    model = potts_model(dc, 0.0)
    labels = field_of(np.zeros((3, 4), dtype=int), 3)
    out, _ = solve_icm(model, labels, max_sweeps=1)
    assert np.array_equal(out.labels, np.argmin(dc, axis=2))
    again, trace = solve_icm(model, out, max_sweeps=1)
    assert trace[0].changed == 0
    assert again == out


def test_sweep_uniform_costs_constant_labeling_is_stable():
    model = potts_model(np.ones((3, 3, 2)), 1.0)
    labels = field_of(np.ones((3, 3), dtype=int), 2)
    _, trace = solve_icm(model, labels, max_sweeps=1)
    assert trace[0].changed == 0


def test_sweep_two_pixel_instance_matches_brute_force():
    dc = np.array([[[0.0, 10.0], [10.0, 0.0]]])
    model = potts_model(dc, 1.0)
    out, _ = solve_icm(model, field_of([[1, 0]], 2), max_sweeps=1)
    assert out.labels.tolist() == [[0, 1]]
    best, best_energy = exhaustive_oracle(model)
    assert best.labels.tolist() == [[0, 1]]
    assert energy_of(model, out) == best_energy


def test_sweep_never_increases_energy():
    rng = np.random.default_rng(3)
    for _ in range(25):
        model = random_instance(rng, shape=(4, 4), labels=3, scale=2.0)
        labels = field_of(rng.integers(0, 3, (4, 4)), 3)
        before = energy_of(model, labels)
        out, trace = solve_icm(model, labels, max_sweeps=1)
        after = energy_of(model, out)
        assert after <= before  # exact float comparison
        if trace[0].changed == 0:
            assert after == before


# ---------------------------------------------------------------------------
# _site_costs (the one site-cost kernel)
# ---------------------------------------------------------------------------

def test_local_costs_match_per_site_reference():
    rng = np.random.default_rng(24)
    for k in range(60):
        shape = (int(rng.integers(1, 6)), int(rng.integers(1, 6)))
        h, w = shape
        labels = int(rng.integers(1, 5))
        kind = ("potts", "quadratic")[k % 2]
        weighted = random_weighted_model(rng, shape, labels, kind)
        plain = EnergyModel(data_costs=weighted.data_costs,
                            prior_weight=weighted.prior_weight, prior_kind=kind)
        lab = rng.integers(0, labels, shape)
        # The groups the callers iterate: all sites (nash_check), one
        # anti-diagonal (ICM) and one checkerboard colour (anneal).
        diagonal, colour = int(rng.integers(0, h + w - 1)), int(rng.integers(0, 2))
        groups = ([(r, c) for r in range(h) for c in range(w)],
                  [(r, c) for r in range(h) for c in range(w) if r + c == diagonal],
                  [(r, c) for r in range(h) for c in range(w) if (r + c) % 2 == colour])
        for model in (weighted, plain):
            for group in groups:
                sites = [r * w + c for r, c in group]
                costs = _site_costs(model, lab.ravel(), sites,
                                    *reference_neighbors(model, sites))
                assert costs.shape == (len(sites), labels)
                for (r, c), row in zip(group, costs):
                    # same arithmetic in the same order: exact equality
                    assert row.tolist() == naive_site_costs(model, lab, r, c)


# ---------------------------------------------------------------------------
# Whole-array set-up and kernel against the per-label and per-side loops
# ---------------------------------------------------------------------------

def reference_registration_costs(fixed, moving, labels):
    """The registration cost table as one clamped fancy-index pass per label."""
    h, w = fixed.height, fixed.width
    fixed_plane = fixed.plane().astype(np.float64)
    moving_plane = moving.plane().astype(np.float64)
    rows, cols = np.indices((h, w))
    costs = np.empty((h, w, len(labels)), dtype=np.float64)
    for l, (dx, dy) in enumerate(labels.offsets):
        sample_rows = np.clip(rows + dy, 0, h - 1)
        sample_cols = np.clip(cols + dx, 0, w - 1)
        diff = fixed_plane - moving_plane[sample_rows, sample_cols]
        costs[:, :, l] = diff ** 2
    return costs


def reference_site_table(model):
    """_site_table with per-side boolean-mask scatters in table order."""
    h, w = model.height, model.width
    diagonal = np.add.outer(np.arange(h), np.arange(w)).ravel()
    sites = np.argsort(diagonal % 2 * (h + w) + diagonal, kind="stable")
    r, c = np.divmod(sites, w)
    nbrs = np.tile(sites, (4, 1))
    scales = np.zeros((4, sites.size, 1))
    sx = model.prior_weight * model.edge_weights_x
    sy = model.prior_weight * model.edge_weights_y
    # Per side: has-neighbor mask, flat step to the neighbor, edge grid and
    # the edge's row/col offset from the site.
    for k, (has, step, grid, er, ec) in enumerate(((c > 0, -1, sx, 0, -1),
                                                   (c < w - 1, 1, sx, 0, 0),
                                                   (r > 0, -w, sy, -1, 0),
                                                   (r < h - 1, w, sy, 0, 0))):
        nbrs[k, has] += step
        scales[k, has, 0] = grid[r[has] + er, c[has] + ec]
    in_order = np.concatenate((np.arange(0, h + w - 1, 2), np.arange(1, h + w - 1, 2)))
    sizes = np.bincount(diagonal)[in_order]
    starts, ends = np.empty((2, h + w - 1), dtype=np.intp)
    ends[in_order] = np.cumsum(sizes)
    starts[in_order] = ends[in_order] - sizes
    return sites, nbrs, scales, diagonal, starts, ends


def reference_site_costs(model, flat, sites, nbrs, scales):
    """_site_costs with one gather, product and add per side."""
    costs = model.data_costs.reshape(-1, model.label_count).take(sites, axis=0)
    for nb, scale in zip(nbrs, scales):
        term = model.pair_cost.take(flat[nb], axis=0)
        term *= scale
        costs += term
    return costs


def assert_same_array(actual, expected):
    assert actual.shape == expected.shape
    assert actual.dtype == expected.dtype
    assert actual.tobytes() == expected.tobytes()


GRIDS = ((1, 1), (1, 7), (6, 1), (5, 9), (9, 4), (3, 3))


def test_registration_cost_table_is_bitwise_the_per_label_loop():
    rng = np.random.default_rng(40)
    for h, w in GRIDS:
        fixed, moving = (Image(rng.integers(0, 256, (h, w)).astype(np.uint8))
                         for _ in range(2))
        for radius in range(7):  # up to radius >= both sides
            label_set = DisplacementLabelSet.dense(radius)
            model = build_registration_game(fixed, moving, label_set, 0.5,
                                            SmoothnessField.identity(h, w))
            assert_same_array(model.data_costs,
                              reference_registration_costs(fixed, moving, label_set))


def weighted_models(rng):
    """Models on every test grid with L = 1, 3 and 49, random edge weights
    with zeros, and a zero prior weight times negative edge weights (-0.0
    scales)."""
    for h, w in GRIDS:
        for labels in (1, 3, 49):
            for kind in ("potts", "quadratic"):
                model = random_weighted_model(rng, (h, w), labels, kind)
                for grid in (model.edge_weights_x, model.edge_weights_y):
                    grid[rng.random(grid.shape) < 0.3] = 0.0
                yield model
            yield EnergyModel(data_costs=rng.uniform(0, 5, (h, w, labels)),
                              prior_weight=0.0, prior_kind="potts",
                              edge_weights_x=-rng.uniform(0, 2, (h, w - 1)),
                              edge_weights_y=-rng.uniform(0, 2, (h - 1, w)))


def test_site_table_is_bitwise_the_masked_scatter():
    for model in weighted_models(np.random.default_rng(41)):
        for actual, expected in zip(_site_table(model), reference_site_table(model),
                                    strict=True):
            assert_same_array(actual, expected)


def test_site_costs_are_bitwise_the_per_side_loop():
    rng = np.random.default_rng(42)
    for model in weighted_models(rng):
        table, nbrs, scales, diagonal, starts, ends = _site_table(model)
        flat = rng.integers(0, model.label_count, table.size)
        d = int(rng.integers(0, diagonal.max() + 1))
        even = (table.size + 1) // 2
        subset = np.flatnonzero(rng.random(table.size) < 0.5)
        # The groups the callers pass: the whole table (nash_check), a
        # diagonal's slice and a dirty subset (ICM), each colour (anneal).
        for at in (slice(None), slice(starts[d], ends[d]), subset,
                   slice(0, even), slice(even, None)):
            args = (model, flat, table[at], nbrs[:, at], scales[:, at])
            assert_same_array(_site_costs(*args), reference_site_costs(*args))


def solve_everything(model, seed):
    """ICM and anneal labels and trace CSVs from the cheapest-label start,
    and nash_check on each result, on the start and on one-pixel changes."""
    h, w, labels = model.data_costs.shape
    init = field_of(np.argmin(model.data_costs, axis=2), labels)
    icm, icm_trace = solve_icm(model, init)
    anneal, anneal_trace = solve_anneal(model, init, 60, seed)
    rng = np.random.default_rng(seed)
    checks = []
    for field_ in (icm, anneal, init):
        lab = field_.labels.copy()
        checks.append(nash_check(model, field_of(lab, labels)))
        for _ in range(3):
            lab[rng.integers(h), rng.integers(w)] = rng.integers(labels)
            checks.append(nash_check(model, field_of(lab, labels)))
    return (icm.labels.tobytes(), trace_to_csv(icm_trace),
            anneal.labels.tobytes(), trace_to_csv(anneal_trace), checks)


def test_solves_and_witnesses_match_the_loop_set_up_and_kernel(monkeypatch):
    # A 32x32 registration model (radius 3, prior 20) as the register
    # workload builds it, and a 64x64 segmentation model as segment does.
    n = 32
    rng = np.random.default_rng(43)
    rows, cols = np.indices((n, n))
    base = rng.integers(0, 256, (n, n)).astype(np.uint8)
    shifted = base[np.clip(rows + 1, 0, n - 1), np.clip(cols - 2, 0, n - 1)]
    moving = Image(np.clip(np.rint(shifted + rng.normal(0.0, 8.0, (n, n))), 0, 255)
                   .astype(np.uint8))
    label_set = DisplacementLabelSet.dense(3)
    registration = build_registration_game(Image(base), moving, label_set, 20.0,
                                           SmoothnessField.identity(n, n))
    scene = gen_scene(0, 64, 2, 2026)
    params, _ = gmm_fit(scene.plane().astype(np.float64).ravel() / 255.0, 3)
    segmentation = build_segmentation_game(scene, params, 1.0, "potts")
    results = [solve_everything(model, 7) for model in (registration, segmentation)]
    assert any(not ok for ok, _ in results[0][-1])  # some checks find witnesses

    monkeypatch.setattr(mrf, "_site_table", reference_site_table)
    monkeypatch.setattr(mrf, "_site_costs", reference_site_costs)
    loop_registration = EnergyModel(
        data_costs=reference_registration_costs(Image(base), moving, label_set),
        prior_weight=20.0, prior_kind="quadratic",
        label_values=np.array(label_set.offsets, dtype=np.float64))
    loop_segmentation = EnergyModel(data_costs=segmentation.data_costs,
                                    prior_weight=1.0, prior_kind="potts")
    for model, expected in zip((loop_registration, loop_segmentation), results):
        assert solve_everything(model, 7) == expected


# ---------------------------------------------------------------------------
# solve_icm
# ---------------------------------------------------------------------------

def reference_neighbor_table(model):
    """Per flat site: [(neighbor index, edge scale)] in the kernel's left,
    right, up, down order."""
    h, w = model.height, model.width
    sx, sy = ((model.prior_weight * g).tolist()
              for g in (model.edge_weights_x, model.edge_weights_y))
    table = []
    for r in range(h):
        for c in range(w):
            nbrs = []
            if c > 0:
                nbrs.append((r * w + c - 1, sx[r][c - 1]))
            if c < w - 1:
                nbrs.append((r * w + c + 1, sx[r][c]))
            if r > 0:
                nbrs.append(((r - 1) * w + c, sy[r - 1][c]))
            if r < h - 1:
                nbrs.append(((r + 1) * w + c, sy[r][c]))
            table.append(nbrs)
    return table


def reference_neighbors(model, sites):
    """The kernel's (4, n) neighbor indices and (4, n, 1) edge scales for the
    given flat sites, from reference_neighbor_table: rows left, right, up,
    down, and a side with no neighbor points at the site itself with scale 0."""
    w = model.width
    table = reference_neighbor_table(model)
    sites = np.asarray(sites, dtype=np.intp)
    nbrs = np.tile(sites, (4, 1))
    scales = np.zeros((4, sites.size, 1))
    for i, site in enumerate(sites.tolist()):
        for nb, scale in table[site]:
            # left/right share the site's row; up/down do not
            side = 2 * (nb // w != site // w) + (nb > site)
            nbrs[side, i] = nb
            scales[side, i, 0] = scale
    return nbrs, scales


def reference_descend(model, labels, first_sweep=1, max_sweeps=None):
    """Sequential raster reference: best-respond one site at a time in raster
    order, each site seeing its earlier neighbors' new labels."""
    h, w, label_count = model.data_costs.shape
    dc = model.data_costs.reshape(h * w, label_count).tolist()
    pair = model.pair_cost.tolist()
    nbr_table = reference_neighbor_table(model)
    flat = labels.labels.ravel().tolist()
    labels_range = range(label_count)
    trace = []
    sweep = first_sweep
    while True:
        changed = 0
        for idx, nbrs in enumerate(nbr_table):
            costs = list(dc[idx])
            for nb, scale in nbrs:
                row = pair[flat[nb]]
                for lbl in labels_range:
                    costs[lbl] += scale * row[lbl]
            low = min(costs)
            if low < costs[flat[idx]]:
                flat[idx] = costs.index(low)
                changed += 1
        current = LabelField(labels=np.array(flat, dtype=np.int64).reshape(h, w),
                             label_count=label_count)
        trace.append(SweepRecord(sweep=sweep, energy=energy_of(model, current),
                                 changed=changed, temperature=0.0))
        if changed == 0 or len(trace) == max_sweeps:
            return current, trace
        sweep += 1


def per_diagonal_descend(model, labels, first_sweep=1, max_sweeps=None):
    """The sequential-sweep schedule: each sweep scores the dirty sites of one
    anti-diagonal per kernel call, in increasing diagonal, and ends before
    the next sweep starts. The pipelined _descend must match it exactly."""
    h, w, label_count = model.data_costs.shape
    diagonal = np.add.outer(np.arange(h), np.arange(w)).ravel()
    order = np.argsort(diagonal, kind="stable")
    table_nbrs, table_scales = reference_neighbors(model, order)
    sizes = np.bincount(diagonal)
    ends = np.cumsum(sizes)
    fronts = [(order[lo:hi], table_nbrs[:, lo:hi], table_scales[:, lo:hi])
              for lo, hi in zip(ends - sizes, ends)]
    flat = labels.labels.ravel().copy()
    dirty = np.ones(flat.size, dtype=bool)
    trace = []
    sweep = first_sweep
    while True:
        changed = 0
        for sites, nbrs, scales in fronts:
            keep = dirty[sites].nonzero()[0]
            if keep.size == 0:
                continue
            sites, nbrs, scales = sites[keep], nbrs[:, keep], scales[:, keep]
            dirty[sites] = False
            costs = _site_costs(model, flat, sites, nbrs, scales)
            rows = np.arange(keep.size)
            best = costs.argmin(axis=1)
            move = costs[rows, best] < costs[rows, flat[sites]]
            flat[sites[move]] = best[move]
            dirty[nbrs[:, move]] = True
            changed += int(np.count_nonzero(move))
        trace.append(SweepRecord(sweep=sweep, energy=mrf._energy(model, flat.reshape(h, w)),
                                 changed=changed, temperature=0.0))
        if changed == 0 or len(trace) == max_sweeps:
            return LabelField(labels=flat.reshape(h, w), label_count=label_count), trace
        sweep += 1


def count_kernel_calls(monkeypatch):
    calls = []

    def counting(model, flat, sites, nbrs, scales):
        calls.append(len(sites))
        return _site_costs(model, flat, sites, nbrs, scales)

    monkeypatch.setattr(mrf, "_site_costs", counting)
    return calls


def assert_pipelined_matches(model, init, calls, first_sweep=1, max_sweeps=None,
                             raster=True):
    """Pipelined _descend against the per-diagonal schedule and, if raster,
    the per-site reference: the same label bytes and trace repr, and at most
    one kernel call per step of the pipeline."""
    calls.clear()
    out, trace = mrf._descend(model, init, first_sweep, max_sweeps)
    steps = model.height + model.width - 1 + 2 * (len(trace) - 1)
    assert len(calls) <= steps
    references = [per_diagonal_descend(model, init, first_sweep, max_sweeps)]
    if raster:
        references.append(reference_descend(model, init, first_sweep, max_sweeps))
    for expected, expected_trace in references:
        assert out.labels.tobytes() == expected.labels.tobytes()
        assert out.label_count == expected.label_count
        assert repr(trace) == repr(expected_trace)
    return trace


def test_icm_matches_sequential_raster_reference(monkeypatch):
    # The pipelined anti-diagonal sweeps must reproduce the per-site raster
    # loop and the per-diagonal sweeps exactly: labels and every trace field,
    # ties and sweep cuts included, on 1x1, 1xN, Nx1 and NxM grids.
    calls = count_kernel_calls(monkeypatch)
    rng = np.random.default_rng(27)
    for k in range(240):
        n, m = (int(v) for v in rng.integers(2, 9, 2))
        shape = ((1, 1), (1, n), (n, 1), (n, m))[k % 4]
        labels = 1 if k % 5 == 4 else int(rng.integers(2, 6))
        kind = ("potts", "quadratic")[k // 4 % 2]
        h, w = shape
        if k // 8 % 2:  # small integers: many exact ties between labels
            draw = lambda size: rng.integers(0, 3, size).astype(float)
            beta = float(rng.integers(0, 3))
        else:
            draw = lambda size: rng.uniform(0, 2, size)
            beta = float(rng.uniform(0, 2))
        weighted = k // 16 % 2
        model = EnergyModel(data_costs=draw(shape + (labels,)), prior_weight=beta,
                            prior_kind=kind,
                            edge_weights_x=draw((h, w - 1)) if weighted else None,
                            edge_weights_y=draw((h - 1, w)) if weighted else None)
        init = field_of(rng.integers(0, labels, shape), labels)
        # An offset first sweep, as in the annealed solver's tail.
        first_sweep = 61 if k % 3 == 0 else 1
        for max_sweeps in (1, 2, 3, None):
            assert_pipelined_matches(model, init, calls, first_sweep, max_sweeps)


def test_icm_matches_sequential_raster_reference_at_image_scale(monkeypatch):
    # At image scale most sites stop moving after a few sweeps, so the
    # active-set sweep skips most of the grid; labels and trace must not show
    # it. Cases: non-square grids, both priors, weighted edges, exact ties
    # from integer costs, and one cut at max_sweeps.
    calls = count_kernel_calls(monkeypatch)
    rng = np.random.default_rng(28)
    cases = (((40, 33), 4, "potts", False, False, 60),
             ((33, 40), 5, "quadratic", True, False, 60),
             ((40, 33), 3, "potts", True, True, 60),
             ((40, 33), 6, "quadratic", True, False, 3))
    for (h, w), labels, kind, weighted, ties, max_sweeps in cases:
        if ties:
            draw = lambda size: rng.integers(0, 3, size).astype(float)
        else:
            draw = lambda size: rng.uniform(0, 2, size)
        model = EnergyModel(data_costs=draw((h, w, labels)),
                            prior_weight=0.6 if kind == "potts" else 0.15,
                            prior_kind=kind,
                            edge_weights_x=draw((h, w - 1)) if weighted else None,
                            edge_weights_y=draw((h - 1, w)) if weighted else None)
        init = field_of(rng.integers(0, labels, (h, w)), labels)
        out, trace = solve_icm(model, init, max_sweeps=max_sweeps)
        assert repr(assert_pipelined_matches(model, init, calls, max_sweeps=max_sweeps)) \
            == repr(trace)


def test_icm_scores_only_sites_whose_neighborhood_changed(monkeypatch):
    scored = []

    def counting(model, flat, sites, nbrs, scales):
        scored.append(len(sites))
        return _site_costs(model, flat, sites, nbrs, scales)

    monkeypatch.setattr(mrf, "_site_costs", counting)
    # From an equilibrium, the one sweep that confirms it scores every site
    # exactly once.
    rng = np.random.default_rng(29)
    model = random_weighted_model(rng, (12, 9), 4, "quadratic")
    settled, trace = solve_icm(model, field_of(rng.integers(0, 4, (12, 9)), 4))
    assert trace[-1].changed == 0
    scored.clear()
    _, trace = solve_icm(model, settled)
    assert [r.changed for r in trace] == [0]
    assert sum(scored) == 12 * 9
    # On a segmentation game, later sweeps rescore only near earlier moves.
    img = gen_scene(0, 64, 2, 31)
    params, _ = gmm_fit(img.plane().astype(float).ravel() / 255.0, 3)
    model = build_segmentation_game(img, params, 1.0)
    init = field_of(np.argmin(model.data_costs, axis=2), 3)
    scored.clear()
    _, trace = solve_icm(model, init)
    assert len(trace) > 2 and trace[-1].changed == 0
    assert sum(scored) < len(trace) * 64 * 64 // 2


def test_site_table_slices_match_per_diagonal_neighbors():
    rng = np.random.default_rng(30)
    for h, w in ((1, 1), (1, 7), (6, 1), (5, 8), (9, 4), (5, 7)):
        model = random_weighted_model(rng, (h, w), 3, "potts")
        sites, nbrs, scales, diagonal, starts, ends = _site_table(model)
        assert np.array_equal(diagonal, np.add.outer(np.arange(h), np.arange(w)).ravel())
        assert np.array_equal(np.sort(sites), np.arange(h * w))
        for d in range(h + w - 1):
            r = np.arange(max(0, d - w + 1), min(h, d + 1))
            expected = r * w + d - r
            expected_nbrs, expected_scales = reference_neighbors(model, expected)
            lo, hi = starts[d], ends[d]
            assert np.array_equal(sites[lo:hi], expected)
            assert np.array_equal(nbrs[:, lo:hi], expected_nbrs)
            assert np.array_equal(scales[:, lo:hi], expected_scales)
            # Diagonals of one parity are adjacent in the table, so the
            # diagonals a step scores form one slice.
            if d + 2 < h + w - 1:
                assert ends[d] == starts[d + 2]
        # The first (h * w + 1) // 2 rows are the even checkerboard colour,
        # the rest the odd one: annealing's two halves.
        even = (h * w + 1) // 2
        assert np.all(diagonal[sites[:even]] % 2 == 0)
        assert np.all(diagonal[sites[even:]] % 2 == 1)


def test_pipelined_icm_matches_sequential_sweeps_on_registration(monkeypatch):
    # 96x96 registration at radius 3 (49 labels), as the benchmark runs it:
    # many sweeps in flight at once, each scoring only near earlier moves.
    calls = count_kernel_calls(monkeypatch)
    n = 96
    rows, cols = np.indices((n, n))
    for seed, max_sweeps in ((1, None), (2, 3)):
        rng = np.random.default_rng(seed)
        fixed = rng.integers(0, 256, (n, n)).astype(np.uint8)
        shifted = fixed[np.clip(rows + 1, 0, n - 1), np.clip(cols - 2, 0, n - 1)]
        moving = np.clip(np.rint(shifted + rng.normal(0.0, 8.0, (n, n))), 0, 255)
        model = build_registration_game(Image(fixed), Image(moving.astype(np.uint8)),
                                        DisplacementLabelSet.dense(3), 20.0,
                                        SmoothnessField.identity(n, n))
        init = field_of(np.argmin(model.data_costs, axis=2), model.label_count)
        trace = assert_pipelined_matches(model, init, calls, max_sweeps=max_sweeps,
                                         raster=False)
        assert len(trace) > 2
        if max_sweeps is None:
            assert trace[-1].changed == 0
            # Far fewer kernel calls than one per diagonal per sweep.
            assert len(calls) < (2 * n - 1) * len(trace) // 3
    # The per-site reference on the first two sweeps of the last pair.
    out, trace = solve_icm(model, init, max_sweeps=2)
    expected, expected_trace = reference_descend(model, init, max_sweeps=2)
    assert out.labels.tobytes() == expected.labels.tobytes()
    assert repr(trace) == repr(expected_trace)


def test_icm_beta_zero_two_sweeps():
    rng = np.random.default_rng(4)
    dc = rng.uniform(0, 1, (4, 4, 2))
    model = potts_model(dc, 0.0)
    init = field_of(rng.integers(0, 2, (4, 4)), 2)
    labels, trace = solve_icm(model, init, max_sweeps=10)
    assert len(trace) <= 2
    assert np.array_equal(labels.labels, np.argmin(dc, axis=2))


def test_icm_output_is_nash_and_trace_decreases():
    rng = np.random.default_rng(5)
    for _ in range(30):
        model = random_instance(rng)
        init = field_of(rng.integers(0, 2, (3, 3)), 2)
        labels, trace = solve_icm(model, init, max_sweeps=60)
        ok, witness = nash_check(model, labels)
        assert ok and witness is None
        energies = [r.energy for r in trace]
        for prev, cur, rec in zip(energies, energies[1:], trace[1:]):
            if rec.changed:
                assert cur < prev
            else:
                assert cur == prev


def test_icm_energy_at_least_global_minimum():
    rng = np.random.default_rng(6)
    for _ in range(50):
        model = random_instance(rng)
        init = field_of(rng.integers(0, 2, (3, 3)), 2)
        labels, _ = solve_icm(model, init, max_sweeps=60)
        _, best_energy = exhaustive_oracle(model)
        assert energy_of(model, labels) >= best_energy - 1e-12


# ---------------------------------------------------------------------------
# solve_anneal
# ---------------------------------------------------------------------------

def gibbs_site_probabilities(model, labels, site, temperature):
    """Resampling distribution of one site at the given temperature, from the
    kernels solve_anneal samples with."""
    _check_dims(model, labels)
    if temperature <= 0:
        raise ValueError("temperature must be > 0")
    r, c = site
    if not (0 <= r < model.height and 0 <= c < model.width):
        raise ValueError(f"site {site} is outside the {model.height}x{model.width} grid")
    site = [r * model.width + c]
    costs = _site_costs(model, labels.labels.ravel(), site,
                        *reference_neighbors(model, site))
    # The solver passes label-major (L, n) costs; this site is one column.
    weights = _gibbs_weights(costs.T, temperature)[:, 0]
    return (weights / weights.sum()).tolist()


def test_anneal_high_temperature_is_uniform():
    from scipy.stats import chisquare

    rng = np.random.default_rng(7)
    dc = rng.uniform(0, 1, (1, 1, 4))
    model = potts_model(dc, 0.0)
    labels = field_of([[0]], 4)
    probs = gibbs_site_probabilities(model, labels, (0, 0), temperature=1e9)
    assert probs == pytest.approx([0.25] * 4, abs=1e-6)
    # sampling check over 10^4 draws at T -> infinity
    draw_rng = np.random.default_rng(8)
    counts = np.zeros(4)
    cumulative = np.cumsum(probs)
    for u in draw_rng.random(10_000):
        counts[np.searchsorted(cumulative, u)] += 1
    _, pvalue = chisquare(counts)
    assert pvalue > 1e-4


def test_anneal_tiny_temperature_is_greedy():
    dc = np.array([[[5.0, 1.0, 3.0]]])
    model = potts_model(dc, 0.0)
    labels = field_of([[0]], 3)
    probs = gibbs_site_probabilities(model, labels, (0, 0), temperature=1e-9)
    assert probs[1] > 1.0 - 1e-6
    assert probs[0] + probs[2] < 1e-6


def test_gibbs_site_outside_grid_rejected():
    model = potts_model(np.zeros((2, 2, 3)), 1.0)
    labels = field_of(np.zeros((2, 2), dtype=int), 3)
    for site in ((0, -1), (-1, 0), (2, 0), (0, 2)):
        with pytest.raises(ValueError):
            gibbs_site_probabilities(model, labels, site, temperature=1.0)


def test_anneal_deterministic_per_seed():
    rng = np.random.default_rng(9)
    model = random_instance(rng, scale=10.0)
    init = field_of(rng.integers(0, 2, (3, 3)), 2)
    out1, trace1 = solve_anneal(model, init, max_sweeps=30, seed=123)
    out2, trace2 = solve_anneal(model, init, max_sweeps=30, seed=123)
    assert out1 == out2
    assert trace_to_csv(trace1) == trace_to_csv(trace2)


def test_anneal_reaches_global_minimum_mostly():
    # smaller companion of the acceptance run
    rng = np.random.default_rng(10)
    hits = 0
    for k in range(20):
        model = random_instance(rng, scale=14.0, beta=float(rng.uniform(0.1, 0.7)))
        init = field_of(rng.integers(0, 2, (3, 3)), 2)
        labels, _ = solve_anneal(model, init, max_sweeps=60, seed=k)
        ok, _ = nash_check(model, labels)
        assert ok
        _, best_energy = exhaustive_oracle(model)
        hits += energy_of(model, labels) == pytest.approx(best_energy, abs=1e-12)
    assert hits >= 18


def sequential_gibbs(model, init, max_sweeps, seed):
    """Per-site reference for the hot phase: raster order over even sites
    ((row + col) even), then odd ones, one uniform per site."""
    lab = init.labels.copy()
    h, w = lab.shape
    order = [(r, c) for parity in (0, 1)
             for r in range(h) for c in range(w) if (r + c) % 2 == parity]
    rng = np.random.default_rng(seed)
    records = []
    for sweep in range(max_sweeps):
        temp = mrf.ANNEAL_T0 * mrf.ANNEAL_DECAY ** (sweep // mrf.ANNEAL_SWEEPS_PER_TEMP)
        changed = 0
        for r, c in order:
            costs = naive_site_costs(model, lab, r, c)
            weights = [math.exp(-(x - min(costs)) / temp) for x in costs]
            u = rng.random() * sum(weights)
            acc, pick = 0.0, len(costs) - 1
            for lbl, wgt in enumerate(weights):
                acc += wgt
                if u < acc:
                    pick = lbl
                    break
            changed += pick != lab[r, c]
            lab[r, c] = pick
        records.append((sweep + 1, energy_of(model, field_of(lab, model.label_count)),
                        changed, temp))
    return field_of(lab, model.label_count), records


def test_anneal_hot_phase_matches_sequential_gibbs():
    # Sites of one checkerboard colour share no edge, so resampling a whole
    # colour at once must reproduce the sequential sampler draw for draw.
    # The colours are the site table's first (h * w + 1) // 2 rows and the
    # rest, each drawing its uniforms in raster order; the fixed shapes add
    # 1x1 (no odd colour), thin grids and odd pixel counts (one even site
    # more than odd).
    rng = np.random.default_rng(25)
    fixed = ((1, 1), (1, 1), (1, 2), (1, 7), (1, 8), (2, 1), (7, 1), (6, 1),
             (3, 3), (3, 5), (7, 3), (5, 5))
    for k in range(40 + len(fixed)):
        if k < 40:
            shape = (int(rng.integers(1, 6)), int(rng.integers(1, 6)))
        else:
            shape = fixed[k - 40]
        labels = int(rng.integers(2, 5))
        model = random_weighted_model(rng, shape, labels, ("potts", "quadratic")[k % 2])
        init = field_of(rng.integers(0, labels, shape), labels)
        max_sweeps = int(rng.integers(1, 25))
        assert_anneal_matches_sequential_gibbs(model, init, max_sweeps, k)


def assert_anneal_matches_sequential_gibbs(model, init, max_sweeps, seed):
    out, trace = solve_anneal(model, init, max_sweeps=max_sweeps, seed=seed)
    hot, records = sequential_gibbs(model, init, max_sweeps, seed)
    assert [(r.sweep, r.energy, r.changed, r.temperature)
            for r in trace[:max_sweeps]] == records
    assert all(r.temperature == 0.0 for r in trace[max_sweeps:])
    tail, tail_trace = reference_descend(model, hot, first_sweep=max_sweeps + 1)
    assert out == tail
    assert trace_to_csv(trace[max_sweeps:]) == trace_to_csv(tail_trace)


def test_anneal_matches_sequential_gibbs_at_more_label_counts():
    # The random cases above draw 2-4 labels. One label leaves the row
    # accumulation empty (every pick is 0); 7 and 9 labels run it six and
    # eight times. Thin grids and odd pixel counts as above.
    rng = np.random.default_rng(27)
    shapes = ((1, 1), (1, 6), (5, 1), (1, 9), (3, 5), (4, 4))
    k = 0
    for labels in (1, 7, 9):
        for kind in ("potts", "quadratic"):
            for shape in shapes:
                model = random_weighted_model(rng, shape, labels, kind)
                init = field_of(rng.integers(0, labels, shape), labels)
                assert_anneal_matches_sequential_gibbs(model, init, 12, 100 + k)
                k += 1


def reference_gibbs_weights(costs, temperature):
    """_gibbs_weights over a site-major (n, L) table's last axis."""
    return np.exp(-(costs - costs.min(axis=-1, keepdims=True)) / temperature)


def reference_anneal(model, init, max_sweeps, seed):
    """Verbatim copy of solve_anneal with its site-major colour step: a
    cumsum and a pick along the last axis of the (n, L) kernel output, and
    trace energies from reference_energy."""
    h, w, label_count = model.data_costs.shape
    rng = np.random.default_rng(int(seed) % 2 ** 63)
    flat = init.labels.ravel().copy()
    table, nbrs, scales = model.site_table[:3]
    even = (h * w + 1) // 2  # the table's even-colour rows come first
    # Each row's raster rank within its colour picks its uniform.
    colours = [(table[half], nbrs[:, half], scales[:, half], np.argsort(np.argsort(table[half])))
               for half in (slice(0, even), slice(even, None))]
    trace = []
    for sweep in range(max_sweeps):
        temp = mrf.ANNEAL_T0 * mrf.ANNEAL_DECAY ** (sweep // mrf.ANNEAL_SWEEPS_PER_TEMP)
        changed = 0
        for sites, nbrs, scales, rank in colours:
            cumulative = np.cumsum(
                reference_gibbs_weights(_site_costs(model, flat, sites, nbrs, scales), temp),
                axis=1)
            u = rng.random(sites.size)[rank] * cumulative[:, -1]
            # First label whose cumulative weight exceeds u, else the last.
            pick = np.minimum((cumulative <= u[:, None]).sum(axis=1), label_count - 1)
            changed += int(np.count_nonzero(pick != flat[sites]))
            flat[sites] = pick
        trace.append(SweepRecord(sweep=sweep + 1,
                                 energy=reference_energy(model, flat.reshape(h, w)),
                                 changed=changed, temperature=temp))
    out, tail = mrf._descend(model, LabelField(labels=flat.reshape(h, w),
                                               label_count=label_count),
                             first_sweep=max_sweeps + 1)
    return out, trace + tail


def test_label_major_weights_and_row_sums_are_bitwise_the_site_major_ones():
    # The colour step's pieces on their own: label-major weights equal the
    # site-major ones, and adding rows in place equals cumsum along the
    # last axis, bit for bit.
    rng = np.random.default_rng(28)
    for labels in (1, 2, 3, 7, 49):
        for n in (1, 5, 2048):
            costs = rng.normal(0, 4, (n, labels))
            for temp in (2.0, 2.0 * 0.9 ** 7, 1e-3):
                weights = _gibbs_weights(costs.T.copy(), temp)
                expected = reference_gibbs_weights(costs, temp)
                assert np.array_equal(weights, expected.T)
                for l in range(1, labels):
                    weights[l] += weights[l - 1]
                assert np.array_equal(weights, np.cumsum(expected, axis=1).T)


def test_anneal_matches_the_site_major_step_at_benchmark_scale():
    # The anneal benchmark's models: 64x64 class-0 scenes at noise 2, a
    # 3-component mixture, Potts prior 1.0, the cheapest-label start and 60
    # sweeps. Labels and the trace CSV must be the same bytes as the
    # site-major colour step gives.
    for seed in (2026, 4747):
        for i in range(2):
            scene = gen_scene(0, 64, 2, seed * 100 + i)
            params, _ = gmm_fit(scene.plane().astype(np.float64).ravel() / 255.0, 3)
            model = build_segmentation_game(scene, params, 1.0, "potts")
            init = field_of(np.argmin(model.data_costs, axis=2), 3)
            out, trace = solve_anneal(model, init, 60, seed)
            ref, ref_trace = reference_anneal(model, init, 60, seed)
            assert out.labels.tobytes() == ref.labels.tobytes()
            assert trace_to_csv(trace) == trace_to_csv(ref_trace)


def test_site_table_is_built_once_per_model(monkeypatch):
    builds = []

    def counting(model):
        builds.append(model)
        return _site_table(model)

    monkeypatch.setattr(mrf, "_site_table", counting)
    rng = np.random.default_rng(32)
    # Annealing's Gibbs phase, its best-response tail and nash_check.
    model = random_weighted_model(rng, (7, 5), 3, "potts")
    init = field_of(rng.integers(0, 3, (7, 5)), 3)
    out, trace = solve_anneal(model, init, max_sweeps=4, seed=1)
    assert len(trace) > 4
    assert nash_check(model, out) == (True, None)
    assert len(builds) == 1 and builds[0] is model
    # Two ICM solves of one model; the second gives what a fresh model gives.
    model = random_weighted_model(rng, (6, 9), 4, "quadratic")
    starts = [field_of(rng.integers(0, 4, (6, 9)), 4) for _ in range(2)]
    first = solve_icm(model, starts[0])
    second = solve_icm(model, starts[1])
    assert len(builds) == 2 and builds[1] is model
    fresh = EnergyModel(data_costs=model.data_costs, prior_weight=model.prior_weight,
                        prior_kind=model.prior_kind,
                        edge_weights_x=model.edge_weights_x,
                        edge_weights_y=model.edge_weights_y)
    assert repr(solve_icm(fresh, starts[1])) == repr(second)
    assert repr(first) != repr(second)
    assert len(builds) == 3


# ---------------------------------------------------------------------------
# nash_check
# ---------------------------------------------------------------------------

def test_nash_single_pixel_argmin():
    dc = np.array([[[2.0, 1.0, 3.0]]])
    model = potts_model(dc, 1.0)
    ok, _ = nash_check(model, field_of([[1]], 3))
    assert ok
    ok, witness = nash_check(model, field_of([[0]], 3))
    assert not ok
    assert witness == ((0, 0), 1)


def better_labels(model, lab, r, c):
    """The labels that strictly lower site (r, c)'s local cost."""
    costs = naive_site_costs(model, lab, r, c)
    return [lbl for lbl, x in enumerate(costs) if x < costs[lab[r, c]]]


def reference_nash(model, lab):
    """Per-site reference for nash_check: the first raster-order site with a
    strictly better label, and its lowest such label."""
    for r, c in np.ndindex(lab.shape):
        better = better_labels(model, lab, r, c)
        if better:
            return False, ((r, c), better[0])
    return True, None


def test_nash_witness_matches_per_site_reference():
    rng = np.random.default_rng(26)
    for k in range(60):
        shape = (int(rng.integers(1, 6)), int(rng.integers(1, 6)))
        labels = int(rng.integers(1, 5))
        model = random_weighted_model(rng, shape, labels, ("potts", "quadratic")[k % 2])
        lab = rng.integers(0, labels, shape)
        if k % 3 == 0:  # also probe equilibria
            lab = solve_icm(model, field_of(lab, labels))[0].labels
        assert nash_check(model, field_of(lab, labels)) == reference_nash(model, lab)


def test_nash_witness_on_thin_and_non_square_grids():
    # nash_check scores the site table, whose (parity, diagonal, row) order
    # is not raster order; the witness is still the mover with the lowest
    # flat index. Equilibria with a few sites knocked off leave scattered
    # movers, so the first mover in table order is often not the witness.
    rng = np.random.default_rng(33)
    table_order_differs = 0
    for k in range(80):
        n = int(rng.integers(2, 12))
        shape = ((1, n), (n, 1), (3, 7), (7, 4), (2, 9))[k % 5]
        labels = int(rng.integers(2, 5))
        model = random_weighted_model(rng, shape, labels, ("potts", "quadratic")[k % 2])
        lab = solve_icm(model, field_of(rng.integers(0, labels, shape), labels))[0].labels
        lab = lab.copy()
        for _ in range(int(rng.integers(1, 4))):
            lab[tuple(int(rng.integers(0, size)) for size in shape)] = rng.integers(0, labels)
        expected = reference_nash(model, lab)
        assert nash_check(model, field_of(lab, labels)) == expected
        if not expected[0]:
            movers = {(r, c) for r, c in np.ndindex(shape) if better_labels(model, lab, r, c)}
            in_table = [divmod(int(site), shape[1]) for site in _site_table(model)[0]]
            table_order_differs += next(s for s in in_table if s in movers) != expected[1][0]
    assert table_order_differs > 0


def whole_table_nash(model, labels):
    """nash_check as it was when it scored the whole site table in one
    _site_costs call, verbatim: the reference for the check by colour."""
    _check_dims(model, labels)
    flat = labels.labels.ravel()
    sites, nbrs, scales = model.site_table[:3]
    costs = _site_costs(model, flat, sites, nbrs, scales)
    better = costs < costs[np.arange(sites.size), flat[sites]][:, None]
    movers = np.flatnonzero(better.any(axis=1))
    if movers.size == 0:
        return True, None
    first = movers[np.argmin(sites[movers])]
    r, c = divmod(int(sites[first]), model.width)
    return False, ((r, c), int(np.argmax(better[first])))


def test_nash_by_colour_is_the_whole_table_check():
    # Random labels, equilibria, and equilibria with a few sites knocked off,
    # on every test grid (1x1, 1x7 and 6x1 among them) with L = 1, 3 and 49.
    rng = np.random.default_rng(57)
    odd_witnesses = 0
    for model in weighted_models(rng):
        labels, shape = model.label_count, (model.height, model.width)
        equilibrium = solve_icm(model, field_of(rng.integers(0, labels, shape), labels))[0]
        knocked = equilibrium.labels.copy()
        for _ in range(int(rng.integers(1, 4))):
            knocked[tuple(int(rng.integers(0, size)) for size in shape)] = rng.integers(0, labels)
        for lab in (rng.integers(0, labels, shape), equilibrium.labels, knocked):
            expected = whole_table_nash(model, field_of(lab, labels))
            assert nash_check(model, field_of(lab, labels)) == expected
            if not expected[0]:
                odd_witnesses += sum(expected[1][0]) % 2
    assert odd_witnesses > 0  # witnesses come from both colours


def test_nash_by_colour_lowers_the_peak_at_register_scale():
    rng = np.random.default_rng(58)
    fixed = Image(rng.integers(0, 256, (96, 96)).astype(np.uint8))
    moving = Image(np.roll(fixed.pixels, (1, 2), axis=(0, 1)))
    model = build_registration_game(fixed, moving, DisplacementLabelSet.dense(3),
                                    20.0, SmoothnessField.identity(96, 96))
    labels = field_of(rng.integers(0, 49, (96, 96)), 49)
    model.site_table  # built once, outside the measured calls
    peaks, results = [], []
    for check in (whole_table_nash, nash_check):
        tracemalloc.start()
        try:
            results.append(check(model, labels))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert results[0] == results[1]
    # The whole table stacks a 14.5 MB (4, n, L) block; one colour, half that.
    assert peaks[1] < 0.6 * peaks[0]


def test_nash_global_minimizer_passes():
    rng = np.random.default_rng(11)
    for _ in range(10):
        model = random_instance(rng)
        best, _ = exhaustive_oracle(model)
        ok, _ = nash_check(model, best)
        assert ok


def test_nash_flipped_pixel_is_witnessed():
    rng = np.random.default_rng(12)
    model = random_instance(rng, scale=5.0)
    best, _ = exhaustive_oracle(model)
    flipped = best.labels.copy()
    flipped[1, 1] = 1 - flipped[1, 1]
    after = field_of(flipped, 2)
    if energy_of(model, after) > energy_of(model, best):
        ok, witness = nash_check(model, after)
        assert not ok
        assert witness is not None
        (r, c), better = witness
        repaired = after.labels.copy()
        repaired[r, c] = better
        assert energy_of(model, field_of(repaired, 2)) < energy_of(model, after)


# ---------------------------------------------------------------------------
# exhaustive_oracle
# ---------------------------------------------------------------------------

def test_exhaustive_single_pixel():
    dc = np.array([[[3.0, 1.0, 2.0]]])
    labels, energy = exhaustive_oracle(potts_model(dc, 1.0))
    assert labels.labels.tolist() == [[1]]
    assert energy == 1.0


def test_exhaustive_beta_zero_pointwise():
    rng = np.random.default_rng(13)
    dc = rng.uniform(0, 1, (2, 3, 2))
    labels, _ = exhaustive_oracle(potts_model(dc, 0.0))
    assert np.array_equal(labels.labels, np.argmin(dc, axis=2))


def test_exhaustive_is_lower_bound_for_random_labelings():
    rng = np.random.default_rng(14)
    model = random_instance(rng, scale=3.0)
    _, best_energy = exhaustive_oracle(model)
    for _ in range(50):
        labels = field_of(rng.integers(0, 2, (3, 3)), 2)
        assert energy_of(model, labels) >= best_energy - 1e-12


def test_exhaustive_ties_lexicographic():
    model = potts_model(np.zeros((1, 2, 2)), 0.0)
    labels, energy = exhaustive_oracle(model)
    assert labels.labels.tolist() == [[0, 0]]
    assert energy == 0.0


def test_exhaustive_size_guard():
    with pytest.raises(ValueError):
        exhaustive_oracle(potts_model(np.zeros((5, 5, 3)), 1.0))


def test_scaling_invariance_of_nash_set():
    rng = np.random.default_rng(15)
    model = random_instance(rng, scale=2.0)
    scaled = EnergyModel(data_costs=model.data_costs * 7.5,
                         prior_weight=model.prior_weight * 7.5,
                         prior_kind="potts")
    for _ in range(20):
        labels = field_of(rng.integers(0, 2, (3, 3)), 2)
        assert nash_check(model, labels)[0] == nash_check(scaled, labels)[0]


# ---------------------------------------------------------------------------
# ellipticity and smoothness
# ---------------------------------------------------------------------------

def test_ellipticity_identity():
    field = SmoothnessField.identity(3, 3, epsilon=1.0)
    assert ellipticity_check(field)


def test_ellipticity_indefinite_matrix():
    a = np.zeros((2, 2, 2, 2))
    a[..., 0, 0] = 1.0
    a[..., 1, 1] = 1.0
    a[0, 0] = np.diag([1.0, -1.0])
    field = SmoothnessField(coeffs=a, epsilon=1e-9)
    assert not ellipticity_check(field)


def test_ellipticity_closed_form_margins():
    a = np.zeros((1, 1, 2, 2))
    a[0, 0] = [[2.0, 1.0], [1.0, 2.0]]  # eigenvalues 1 and 3
    assert ellipticity_check(SmoothnessField(coeffs=a, epsilon=1.0))
    assert not ellipticity_check(SmoothnessField(coeffs=a, epsilon=1.5))


def test_ellipticity_matches_eigvalsh_oracle():
    rng = np.random.default_rng(16)
    for _ in range(200):
        sym = rng.normal(0, 1, (2, 2))
        sym = (sym + sym.T) / 2
        a = np.broadcast_to(sym, (2, 3, 2, 2)).copy()
        eps = float(rng.uniform(0.01, 1.0))
        field = SmoothnessField(coeffs=a, epsilon=eps)
        expected = bool(np.linalg.eigvalsh(sym)[0] >= eps)
        assert ellipticity_check(field) == expected


def test_smoothness_field_validation():
    a = np.zeros((1, 1, 2, 2))
    a[0, 0] = [[1.0, 0.5], [0.2, 1.0]]
    with pytest.raises(ValueError):
        SmoothnessField(coeffs=a, epsilon=0.1)
    with pytest.raises(ValueError):
        SmoothnessField.identity(2, 2, epsilon=0.0)


def test_smoothness_residual_constant_and_linear():
    field = SmoothnessField.identity(8, 8, epsilon=0.5)
    assert np.allclose(smoothness_residual(field, np.full((8, 8), 3.0)), 0.0,
                       atol=1e-12)
    xs = np.tile(np.arange(8.0), (8, 1))
    res = smoothness_residual(field, xs)
    assert np.abs(res[2:-2, 2:-2]).max() < 1e-9


def test_smoothness_residual_quadratic_is_two():
    field = SmoothnessField.identity(9, 9, epsilon=0.5)
    xs = np.tile(np.arange(9.0), (9, 1))
    res = smoothness_residual(field, xs ** 2)
    assert res[2:-2, 2:-2] == pytest.approx(np.full((5, 5), 2.0), abs=1e-9)


def test_smoothness_residual_linearity():
    rng = np.random.default_rng(17)
    field = SmoothnessField.identity(7, 7, epsilon=0.5)
    u = rng.normal(0, 1, (7, 7))
    v = rng.normal(0, 1, (7, 7))
    lhs = smoothness_residual(field, u + v)
    rhs = smoothness_residual(field, u) + smoothness_residual(field, v)
    assert np.abs(lhs - rhs).max() < 1e-9


def test_smoothness_residual_requires_ellipticity():
    a = np.zeros((4, 4, 2, 2))
    a[..., 0, 0] = 1.0
    a[..., 1, 1] = -1.0
    field = SmoothnessField(coeffs=a, epsilon=0.5)
    with pytest.raises(EllipticityError):
        smoothness_residual(field, np.zeros((4, 4)))


# ---------------------------------------------------------------------------
# game builders
# ---------------------------------------------------------------------------

def two_region_image(rng, size=24, salt_fraction=0.0):
    truth = np.zeros((size, size), dtype=int)
    truth[:, size // 2:] = 1
    vals = np.where(truth == 0,
                    rng.normal(60, 15, (size, size)),
                    rng.normal(180, 15, (size, size)))
    if salt_fraction:
        salt = rng.random((size, size)) < salt_fraction
        vals = np.where(salt, 255.0, vals)
    img = Image(np.clip(np.rint(vals), 0, 255).astype(np.uint8))
    return img, truth


def test_segmentation_beta_zero_is_ml_classification():
    rng = np.random.default_rng(18)
    img, _ = two_region_image(rng)
    params, _ = gmm_fit(img.plane().ravel() / 255.0, 2, seed=0)
    model = build_segmentation_game(img, params, 0.0)
    assert np.all(np.isfinite(model.data_costs))
    labels, _ = solve_icm(
        model, field_of(np.zeros(img.pixels.shape, dtype=int), 2),
        max_sweeps=10)
    assert np.array_equal(labels.labels, np.argmin(model.data_costs, axis=2))


def test_segmentation_prior_does_not_hurt_under_salt_noise():
    rng = np.random.default_rng(19)
    img, truth = two_region_image(rng, salt_fraction=0.10)
    params, _ = gmm_fit(img.plane().ravel() / 255.0, 2, seed=0)

    def accuracy(prior_weight):
        model = build_segmentation_game(img, params, prior_weight)
        init = field_of(np.argmin(model.data_costs, axis=2), 2)
        labels, _ = solve_icm(model, init, max_sweeps=60)
        # component order is data-driven; align labels with the truth mask
        hits = (labels.labels == truth).mean()
        return max(hits, 1.0 - hits)

    assert accuracy(1.0) >= accuracy(0.0)


def shifted_pair(rng, size, shift):
    base = rng.integers(0, 256, (size, size)).astype(np.uint8)
    sx, sy = shift
    rows, cols = np.indices((size, size))
    src_r = np.clip(rows - sy, 0, size - 1)
    src_c = np.clip(cols - sx, 0, size - 1)
    return Image(base), Image(base[src_r, src_c])


def test_registration_identity_zero_offset_argmin():
    rng = np.random.default_rng(20)
    img, _ = shifted_pair(rng, 12, (0, 0))
    label_set = DisplacementLabelSet.dense(1)
    field = SmoothnessField.identity(12, 12)
    model = build_registration_game(img, img, label_set, 0.0, field)
    zero = label_set.offsets.index((0, 0))
    assert np.all(model.data_costs[:, :, zero] == 0.0)


def test_registration_recovers_unit_shift_exactly():
    # texture with no repeated values under small shifts: 13*dx + 7*dy is
    # never 0 mod 256 for |dx|,|dy| <= 4 except at (0, 0)
    size = 16
    rows, cols = np.indices((size, size))
    base = ((7 * rows + 13 * cols) % 256).astype(np.uint8)
    src_c = np.clip(cols - 1, 0, size - 1)
    fixed, moving = Image(base), Image(base[rows, src_c])
    label_set = DisplacementLabelSet.dense(2)
    field = SmoothnessField.identity(size, size)
    model = build_registration_game(fixed, moving, label_set, 0.0, field)
    true_label = label_set.offsets.index((1, 0))
    interior = model.data_costs[3:-3, 3:-3, :]
    assert np.all(interior[:, :, true_label] == 0.0)
    others = np.delete(interior, true_label, axis=2)
    assert np.all(others > 0.0)
    assert np.all(np.argmin(interior, axis=2) == true_label)


def test_registration_flat_images_still_reach_equilibrium():
    flat = Image(np.full((8, 8), 99, dtype=np.uint8))
    label_set = DisplacementLabelSet.dense(1)
    field = SmoothnessField.identity(8, 8)
    model = build_registration_game(flat, flat, label_set, 0.5, field)
    zero = label_set.offsets.index((0, 0))
    init = field_of(np.full((8, 8), zero), len(label_set))
    labels, _ = solve_icm(model, init, max_sweeps=20)
    ok, _ = nash_check(model, labels)
    assert ok


def test_registration_cheapest_label_start_witness():
    """How far ICM's registration equilibria sit above a known better one.

    Eight 96x96 inputs built like the benchmark's register workload (uniform
    texture, shift (2, -1), noise sd 8, radius 3, prior 20) at seeds [77, i].
    ICM is started from each pixel's cheapest data label (the CLI's rule),
    from the zero offset, and from the true shift; the true-shift equilibrium
    is the witness. Measured: relative gap 0.090-0.160 from the cheapest
    label and 0.153-0.199 from the zero offset, cheapest-label recovery
    0.861-0.888 (true shift 0.915-0.923). At 48x48 the cheapest-label start
    lost to the zero start on 2 of these 8 seeds, so the comparison is made
    at the benchmark's size."""
    size, radius, shift = 96, 3, (2, -1)
    label_set = DisplacementLabelSet.dense(radius)
    field = SmoothnessField.identity(size, size)
    true_label = label_set.offsets.index(shift)
    starts = {"zero": label_set.offsets.index((0, 0)), "true": true_label}
    rows, cols = np.indices((size, size))
    margin = radius + 2
    for i in range(8):
        rng = np.random.default_rng([77, i])
        base = rng.integers(0, 256, (size, size)).astype(np.uint8)
        shifted = base[np.clip(rows - shift[1], 0, size - 1),
                       np.clip(cols - shift[0], 0, size - 1)]
        noisy = shifted + rng.normal(0.0, 8.0, (size, size))
        moving = np.clip(np.rint(noisy), 0, 255).astype(np.uint8)
        model = build_registration_game(Image(base), Image(moving), label_set,
                                        20.0, field)
        inits = {"cheapest": np.argmin(model.data_costs, axis=2)}
        inits.update((k, np.full((size, size), v)) for k, v in starts.items())
        energy, recovery = {}, {}
        for name, init in inits.items():
            labels, _ = solve_icm(model, field_of(init, len(label_set)))
            energy[name] = energy_of(model, labels)
            interior = labels.labels[margin:-margin, margin:-margin]
            recovery[name] = float((interior == true_label).mean())
        assert energy["cheapest"] <= energy["zero"], i
        gap = (energy["cheapest"] - energy["true"]) / energy["true"]
        assert 0.0 < gap <= 0.18, (i, gap)  # 0.160 measured at worst
        assert recovery["cheapest"] >= 0.85, (i, recovery)  # 0.861 at worst


def test_solvers_reject_zero_sweeps():
    model = potts_model(np.zeros((2, 2, 2)), 1.0)
    init = field_of(np.zeros((2, 2), dtype=int), 2)
    with pytest.raises(ValueError, match="max_sweeps must be >= 1"):
        solve_icm(model, init, max_sweeps=0)
    with pytest.raises(ValueError, match="max_sweeps must be >= 1"):
        solve_anneal(model, init, max_sweeps=0, seed=1)


def test_registration_size_mismatch():
    a = Image(np.zeros((4, 4), dtype=np.uint8))
    b = Image(np.zeros((4, 5), dtype=np.uint8))
    with pytest.raises(ValueError):
        build_registration_game(a, b, DisplacementLabelSet.dense(1), 0.5,
                                SmoothnessField.identity(4, 4))


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------

def test_labels_to_image_scaling():
    labels = field_of([[0, 1], [2, 1]], 3)
    img = labels_to_image(labels)
    assert img.pixels.tolist() == [[0, 128], [255, 128]]
    single = labels_to_image(field_of([[0]], 1))
    assert single.pixels.tolist() == [[0]]


def test_labels_to_image_gives_each_label_its_own_gray_level():
    for count in (2, 49, 225, 255, 256):
        labels = np.arange(count).reshape(1, count)
        plane = labels_to_image(field_of(labels, count)).pixels
        assert len(np.unique(plane)) == count
        decoded = np.rint(plane / (255.0 / (count - 1))).astype(np.int64)
        assert np.array_equal(decoded, labels)
    with pytest.raises(ValueError, match="257 labels"):
        labels_to_image(field_of(np.arange(257).reshape(1, 257), 257))


def test_trace_csv_layout():
    rng = np.random.default_rng(23)
    model = random_instance(rng)
    init = field_of(rng.integers(0, 2, (3, 3)), 2)
    _, trace = solve_icm(model, init, max_sweeps=10)
    csv = trace_to_csv(trace)
    lines = csv.strip().split("\n")
    assert lines[0] == "sweep,energy,changed,temperature"
    assert len(lines) == len(trace) + 1
    assert lines[1].startswith("1,")
