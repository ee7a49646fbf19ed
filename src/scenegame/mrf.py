"""Energy-based pixel labeling as a game between pixels.

Each pixel is a player whose strategy is its label; its payoff is the negative
of its local energy (data cost plus weighted disagreement with the 4-connected
neighbors). Sequential best response never increases the total energy, so the
dynamics terminate in a labeling where no pixel can improve unilaterally --
checked literally by nash_check. Two solvers are provided: greedy best
response (fast, local optima) and annealed random relaxation (slower, reaches
the global optimum with high probability on small instances), plus an
exhaustive oracle for verification at desk scale.
"""

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from . import gmm as gmm_mod
from .image import DisplacementLabelSet, Image, LabelField, seeded_rng

EXHAUSTIVE_LIMIT = 10 ** 6
# Geometric cooling: T = ANNEAL_T0 * ANNEAL_DECAY ** (sweep // ANNEAL_SWEEPS_PER_TEMP).
ANNEAL_T0 = 2.0
ANNEAL_DECAY = 0.9
ANNEAL_SWEEPS_PER_TEMP = 5


class EllipticityError(ValueError):
    """The smoothness coefficients are not elliptic for the requested margin."""


@dataclass(frozen=True)
class SweepRecord:
    sweep: int
    energy: float
    changed: int
    temperature: float


def trace_to_csv(records) -> str:
    lines = ["sweep,energy,changed,temperature"]
    for r in records:
        lines.append(f"{r.sweep},{r.energy!r},{r.changed},{r.temperature!r}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True, eq=False)
class EnergyModel:
    """Per-pixel data costs plus a pairwise prior over the 4-neighborhood.

    Total energy: sum_p data_costs[p, x_p]
                + prior_weight * sum_edges w_edge * pair_cost[x_p, x_q].

    prior_kind 'potts' charges 1 for any disagreement; 'quadratic' charges the
    squared distance between label values (label indices by default, or
    explicit label_values such as displacement offsets; the Potts prior
    rejects them). Optional edge weight grids modulate individual edges; an
    omitted grid is filled with ones.
    """

    data_costs: np.ndarray           # (h, w, L) float
    prior_weight: float
    prior_kind: str = "potts"
    label_values: np.ndarray = None  # (L,) or (L, k); quadratic prior only
    edge_weights_x: np.ndarray = None  # (h, w-1); edge (r,c)-(r,c+1)
    edge_weights_y: np.ndarray = None  # (h-1, w); edge (r,c)-(r+1,c)
    pair_cost: np.ndarray = field(init=False, default=None)  # derived (L, L)

    def __post_init__(self):
        # C order: _site_costs reads the table as (h * w, L) rows, which a
        # strided table would copy whole on every call.
        dc = np.ascontiguousarray(self.data_costs, dtype=np.float64)
        if dc.ndim != 3 or dc.shape[2] < 1:
            raise ValueError("data_costs must have shape (h, w, L)")
        if dc.shape[0] < 1 or dc.shape[1] < 1:
            raise ValueError(f"data_costs shape {dc.shape} has an empty grid; "
                             "h and w must be >= 1")
        if not np.all(np.isfinite(dc)):
            raise ValueError("data_costs must be finite")
        check_prior_weight(self.prior_weight)
        h, w, label_count = dc.shape
        if self.prior_kind == "potts":
            if self.label_values is not None:
                raise ValueError("label_values apply to the quadratic prior only")
            pair = 1.0 - np.eye(label_count)
        elif self.prior_kind == "quadratic":
            vals = self.label_values
            if vals is None:
                vals = np.arange(label_count, dtype=np.float64)
            vals = np.asarray(vals, dtype=np.float64)
            if vals.ndim == 1:
                vals = vals[:, None]
            if vals.shape[0] != label_count:
                raise ValueError("label_values length must match label count")
            if not np.all(np.isfinite(vals)):
                raise ValueError("label_values must be finite")
            diff = vals[:, None, :] - vals[None, :, :]
            pair = (diff ** 2).sum(axis=2)
        else:
            raise ValueError(f"unknown prior kind {self.prior_kind!r}")
        for name, shape in (("edge_weights_x", (h, w - 1)),
                            ("edge_weights_y", (h - 1, w))):
            grid = getattr(self, name)
            grid = np.ones(shape) if grid is None else np.asarray(grid, dtype=np.float64)
            if grid.shape != shape:
                raise ValueError(f"{name} must have shape {shape}")
            if not np.all(np.isfinite(grid)):
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, grid)
        object.__setattr__(self, "data_costs", dc)
        object.__setattr__(self, "pair_cost", pair)

    @cached_property
    def site_table(self):
        """The model's two colour blocks from _site_table, built on first use:
        every solve and nash_check on this model reads them. Like pair_cost
        they are derived once, so the model's arrays must not change after
        that."""
        return _site_table(self)

    @property
    def height(self):
        return self.data_costs.shape[0]

    @property
    def width(self):
        return self.data_costs.shape[1]

    @property
    def label_count(self):
        return self.data_costs.shape[2]


def _check_dims(model: EnergyModel, labels: LabelField):
    if labels.height != model.height or labels.width != model.width:
        raise ValueError("label field dimensions do not match the model")
    if labels.label_count != model.label_count:
        raise ValueError("label counts do not match")


def energy_of(model: EnergyModel, labels: LabelField) -> float:
    """Total (unnormalized Gibbs) energy of a labeling."""
    _check_dims(model, labels)
    return _energy(model, labels.labels)


def _energy(model: EnergyModel, lab: np.ndarray) -> float:
    """energy_of for an (h, w) integer label array of matching shape."""
    label_count = model.label_count
    # Flat index of (site, label) in data_costs is site * label_count + label.
    picks = np.arange(0, lab.size * label_count, label_count) + lab.ravel()
    total = float(model.data_costs.take(picks).sum())
    # Flat index of (a, b) in pair_cost is a * label_count + b; one take per
    # edge direction reads the same values as pair[a, b], several times faster.
    pair = model.pair_cost.ravel()
    horiz = pair.take(lab[:, :-1] * label_count + lab[:, 1:]) * model.edge_weights_x
    vert = pair.take(lab[:-1, :] * label_count + lab[1:, :]) * model.edge_weights_y
    return total + model.prior_weight * float(horiz.sum() + vert.sum())


@lru_cache(maxsize=4)
def _grid_table(h: int, w: int):
    """The shape-only part of the site table, shared read-only by every model
    of an h x w grid: (colours, starts, ends).

    colours holds (sites, nbrs) of the even checkerboard colour ((r + c)
    even), then of the odd one: Besag's two coding sets. A colour lists its
    flat sites by anti-diagonal r + c, then row, and nbrs (4, n) holds each
    site's left, right, up and down neighbor as a flat index; a side with no
    neighbor points at the site itself. Diagonal d fills rows
    starts[d]:ends[d] of colour d % 2, so diagonals d, d + 2, ..., d + 2k are
    one contiguous slice of it. The arrays take 40 bytes per site (640 KiB
    at 128x128, 40 MiB at 1024x1024), hence the small bound.
    """
    diagonal = np.add.outer(np.arange(h), np.arange(w)).ravel()
    order = np.argsort(diagonal % 2 * (h + w) + diagonal, kind="stable")
    # A raster (h, w) grid per side; each colour takes its own columns.
    nbrs = np.empty((4, h, w), dtype=order.dtype)
    nbrs[:] = np.arange(h * w).reshape(h, w)
    nbrs[0, :, 1:] -= 1
    nbrs[1, :, :-1] += 1
    nbrs[2, 1:] -= w
    nbrs[3, :-1] += w
    colours = tuple((sites, nbrs.reshape(4, -1).take(sites, axis=1))
                    for sites in np.split(order, [(h * w + 1) // 2]))
    sizes = np.bincount(diagonal)
    ends = np.empty_like(sizes)
    for parity in (0, 1):
        np.cumsum(sizes[parity::2], out=ends[parity::2])
    starts = ends - sizes
    for array in (*colours[0], *colours[1], starts, ends):
        array.flags.writeable = False
    return colours, starts, ends


def _site_table(model: EnergyModel):
    """The one site table of every solver and nash_check: the two colour
    blocks of _grid_table, even then odd, each as (sites, nbrs, scales).
    sites and nbrs are the shared read-only arrays of the grid shape; only
    scales (4, n, 1) is the model's own: each side's prior_weight * edge
    weight, 0 where the side has no neighbor, so that term adds an exact 0.0.
    """
    h, w = model.height, model.width
    sx = model.prior_weight * model.edge_weights_x
    sy = model.prior_weight * model.edge_weights_y
    scales = np.zeros((4, h, w))
    scales[0, :, 1:] = sx
    scales[1, :, :-1] = sx
    scales[2, 1:] = sy
    scales[3, :-1] = sy
    return tuple((sites, nbrs, scales.reshape(4, -1).take(sites, axis=1)[:, :, None])
                 for sites, nbrs in _grid_table(h, w)[0])


def _site_costs(model: EnergyModel, flat: np.ndarray, sites, nbrs, scales):
    """(n, L) cost of every label at each site given the flat labels of its
    neighbors: the data cost, then each neighbor's weighted pair cost in the
    order left, right, up, down. One gather stacks the four neighbors' pair
    rows into a (4, n, L) block, scaled by one product. Every solver and
    nash_check use this kernel, so they agree bit for bit."""
    terms = model.pair_cost.take(flat[nbrs], axis=0)
    terms *= scales
    costs = model.data_costs.reshape(-1, model.label_count).take(sites, axis=0)
    for term in terms:
        costs += term
    return costs


def _gibbs_weights(costs: np.ndarray, temperature: float) -> np.ndarray:
    """Unnormalized exp(-cost / T) of label-major (L, n) costs, each site's
    column shifted by its minimum. min - cost is exactly -(cost - min), so
    one subtraction makes the only new array; the division and exp run in
    place on it."""
    weights = costs.min(axis=0) - costs
    weights /= temperature
    return np.exp(weights, out=weights)


def _descend(model: EnergyModel, flat: np.ndarray, first_sweep: int = 1,
             max_sweeps: int = None):
    """Raster best-response sweeps on the flat label array, moved in place,
    until one changes nothing or max_sweeps have run. Returns the
    [SweepRecord...] numbered from first_sweep.

    Each site sees the labels its earlier neighbors took in the same sweep. A
    pixel moves only on a strict local improvement, so every change strictly
    decreases the total energy; ties keep the current label, and ties between
    new labels resolve to the lowest index.

    A sweep updates one anti-diagonal r + c = d at a time, in increasing d.
    In raster order site (r, c) reads the new left and upper labels (diagonal
    d - 1) and the old right and lower ones (diagonal d + 1), and no two
    sites of one diagonal are neighbors, so this gives the raster labels.

    Sweeps are pipelined: at step t, sweep j (from 0) updates diagonal
    t - 2j, and all sweeps in flight go to the kernel in one call. Sweep j
    reads its own labels on d - 1, set at step t - 1, and sweep j - 1's final
    labels on d + 1, also set at step t - 1; the active diagonals share a
    parity, so none is next to another, and they are one slice of the site
    table's colour block t % 2. Each site thus sees the labels it sees in
    sequential sweeps. Sweep j ends at step D - 1 + 2j (D diagonals);
    its trace energy is taken on the labels as of its end, a copy kept apart
    from the moves of the sweeps behind it.

    Only dirty sites are scored: all of them in the first sweep, then those
    with a neighbor that moved since they were last scored. A moving site
    marks its four neighbors; each mark is consumed by the site's next visit,
    which is the same visit in both schedules. A clean site's cost row would
    be the same bit for bit, and it already holds a label no other label
    strictly beats, so it would not move: skipping it leaves the raster
    labels and trace unchanged. A sweep that moves nothing leaves no mark
    for the sweeps behind it, so they move nothing either.
    """
    h, w = model.height, model.width
    diagonals = h + w - 1
    _, starts, ends = _grid_table(h, w)
    diagonal = np.add.outer(np.arange(h), np.arange(w)).ravel()  # r + c of each flat site
    settled = flat.copy()  # the labels as of the last sweep that ended
    dirty = np.ones(flat.size, dtype=bool)
    pending = []  # (sites, new labels, sweep) of moves not yet in settled
    trace = []
    t = 0
    while True:
        # Sweeps oldest..newest are active: each has a diagonal t - 2j in
        # range, and no sweep at or past max_sweeps starts.
        oldest = max(0, (t - diagonals + 2) // 2)
        newest = t // 2 if max_sweeps is None else min(t // 2, max_sweeps - 1)
        if oldest <= newest:
            table, nbrs, scales = model.site_table[t % 2]
            lo, hi = starts[t - 2 * newest], ends[t - 2 * oldest]
            at = dirty[table[lo:hi]].nonzero()[0] + lo
            if at.size:
                sites, near, scale = table[at], nbrs[:, at], scales[:, at]
                dirty[sites] = False
                costs = _site_costs(model, flat, sites, near, scale)
                rows = np.arange(sites.size)
                best = costs.argmin(axis=1)
                move = costs[rows, best] < costs[rows, flat[sites]]
                if move.any():
                    movers = sites[move]
                    flat[movers] = best[move]
                    # Each neighbor is scored at its next visit; a border
                    # side marks the mover itself.
                    dirty[near[:, move]] = True
                    # A mover on diagonal d belongs to sweep (t - d) // 2.
                    pending.append((movers, best[move], (t - diagonal[movers]) // 2))
        ended = t - diagonals + 1
        if ended >= 0 and ended % 2 == 0:
            sweep = ended // 2
            changed = 0
            if pending:
                movers, new, owner = (np.concatenate(part) for part in zip(*pending))
                own = owner == sweep
                changed = int(np.count_nonzero(own))
                settled[movers[own]] = new[own]
                later = ~own
                pending = [(movers[later], new[later], owner[later])] if changed < own.size else []
            trace.append(SweepRecord(sweep=first_sweep + sweep,
                                     energy=_energy(model, settled.reshape(h, w)),
                                     changed=changed, temperature=0.0))
            if changed == 0 or len(trace) == max_sweeps:
                return trace
        t += 1


def check_prior_weight(prior_weight: float):
    """The prior weight every model takes; the CLI checks it before any work."""
    if not 0 <= prior_weight < np.inf:
        raise ValueError("prior_weight must be finite and >= 0")


def check_max_sweeps(max_sweeps: int):
    """The solvers' sweep bound; the CLI checks it before any work."""
    if max_sweeps < 1:
        raise ValueError("max_sweeps must be >= 1")


def solve_icm(model: EnergyModel, init: LabelField, max_sweeps: int = 60):
    """Greedy best-response dynamics to a unilateral-deviation-proof labeling.

    Sweeps visit pixels in raster order. Fast but local: the result always
    passes nash_check when it terminates before max_sweeps, yet may sit above
    the global minimum energy. Returns (labels, [SweepRecord...]).
    """
    _check_dims(model, init)
    check_max_sweeps(max_sweeps)
    flat = init.labels.ravel().copy()
    trace = _descend(model, flat, max_sweeps=max_sweeps)
    return LabelField(labels=flat.reshape(init.labels.shape),
                      label_count=model.label_count), trace


def cheapest_start(model: EnergyModel) -> LabelField:
    """Every pixel on its cheapest data label: Besag's pixelwise
    maximum-likelihood start for ICM."""
    return LabelField(labels=np.argmin(model.data_costs, axis=2),
                      label_count=model.label_count)


def block_model(model: EnergyModel) -> EnergyModel:
    """The game of 2x2 pixel blocks: coalitions of four pixels that take one
    label, one level of the block hierarchy of Felzenszwalb & Huttenlocher
    2006 ("Efficient belief propagation for early vision").

    A block's data cost is the sum of its pixels' costs, and the edge between
    two neighbouring blocks carries the sum of the fine edge weights that
    cross it, under the same prior weight and pair cost. An odd last row or
    column makes partial blocks of two or one pixels. Edges inside a block
    join equal labels and cost 0, so a block labeling's energy is the fine
    energy of its labels repeated over each block's pixels.
    """
    h, w = model.height, model.width
    dc = model.data_costs
    # One C-ordered (ceil(h/2), ceil(w/2), L) copy of the top-left corners,
    # then in-place adds of the other three: no further temporary.
    costs = dc[::2, ::2].copy()
    costs[:, :w // 2] += dc[::2, 1::2]
    costs[:h // 2] += dc[1::2, ::2]
    costs[:h // 2, :w // 2] += dc[1::2, 1::2]
    # Fine edges that cross between blocks: columns 2C + 1 of the horizontal
    # grid and rows 2R + 1 of the vertical one, summed over each block's two
    # rows (columns).
    ex, ey = model.edge_weights_x[:, 1::2], model.edge_weights_y[1::2]
    wx = ex[::2].copy()
    wx[:h // 2] += ex[1::2]
    wy = ey[:, ::2].copy()
    wy[:, :w // 2] += ey[:, 1::2]
    return EnergyModel(data_costs=costs, prior_weight=model.prior_weight,
                       prior_kind=model.prior_kind, label_values=model.label_values,
                       edge_weights_x=wx, edge_weights_y=wy)


def block_start(model: EnergyModel, max_sweeps: int = 60) -> LabelField:
    """A start for solve_icm or solve_anneal from the solved block game:
    block_model's ICM (at most max_sweeps sweeps) from each block's cheapest
    label, each block's label then repeated over its pixels. Every grid has
    one: a side of 1 makes 1x2 or 2x1 blocks, and a 1x1 grid one block of
    its one pixel."""
    check_max_sweeps(max_sweeps)
    h, w = model.height, model.width
    coarse = block_model(model)
    flat = coarse.data_costs.argmin(axis=2).ravel()
    _descend(coarse, flat, max_sweeps=max_sweeps)
    blocks = flat.reshape(coarse.height, coarse.width)
    return LabelField(labels=blocks.repeat(2, axis=0).repeat(2, axis=1)[:h, :w],
                      label_count=model.label_count)


def solve_anneal(model: EnergyModel, init: LabelField, max_sweeps: int = 60,
                 seed: int = 0):
    """Annealed random relaxation (Gibbs resampling with geometric cooling).

    Each site resamples its label with probability proportional to
    exp(-local_energy / T). A sweep resamples the even checkerboard colour
    ((row + col) even), then the odd one; sites of one colour share no edge,
    so resampling a colour at once equals resampling its sites one by one in
    any order. Each colour draws one uniform per site, in site-table order.
    After the cooling sweeps, raster best-response passes run to a fixed point
    so the output is also unilateral-deviation-proof. Bit-reproducible for a
    fixed seed. Returns (labels, [SweepRecord...]).
    """
    _check_dims(model, init)
    check_max_sweeps(max_sweeps)
    h, w, label_count = model.data_costs.shape
    rng = seeded_rng(seed)
    flat = init.labels.ravel().copy()
    trace = []
    for sweep in range(max_sweeps):
        temp = ANNEAL_T0 * ANNEAL_DECAY ** (sweep // ANNEAL_SWEEPS_PER_TEMP)
        changed = 0
        for sites, nbrs, scales in model.site_table:
            # Label-major: L contiguous rows of n sites, so each reduction
            # runs across rows rather than along a last axis L wide.
            cumulative = _gibbs_weights(
                _site_costs(model, flat, sites, nbrs, scales).T.copy(), temp)
            for l in range(1, label_count):  # cumsum's adds, row by row
                cumulative[l] += cumulative[l - 1]
            u = rng.random(sites.size) * cumulative[-1]
            # First label whose cumulative weight exceeds u, else the last:
            # the rows are nondecreasing, so counting the first L - 1 rows
            # at or below u caps the pick at L - 1.
            pick = (cumulative[:-1] <= u).sum(axis=0)
            changed += int(np.count_nonzero(pick != flat[sites]))
            flat[sites] = pick
        trace.append(SweepRecord(sweep=sweep + 1, energy=_energy(model, flat.reshape(h, w)),
                                 changed=changed, temperature=temp))

    # Zero-temperature tail: descend to a fixed point so the advertised
    # no-unilateral-improvement postcondition holds.
    trace += _descend(model, flat, first_sweep=max_sweeps + 1)
    return LabelField(labels=flat.reshape(h, w), label_count=label_count), trace


def _first_mover(model: EnergyModel, flat: np.ndarray, sites, nbrs, scales):
    """(site, label): the lowest flat site among these table rows that some
    label strictly improves, and its lowest such label; None if none does."""
    costs = _site_costs(model, flat, sites, nbrs, scales)
    better = costs < costs[np.arange(sites.size), flat[sites]][:, None]
    movers = np.flatnonzero(better.any(axis=1))
    if movers.size == 0:
        return None
    first = movers[np.argmin(sites[movers])]
    return int(sites[first]), int(np.argmax(better[first]))


def nash_check(model: EnergyModel, labels: LabelField):
    """True iff no single pixel can strictly lower the total energy alone.

    Otherwise returns the first raster-order witness ((row, col), better_label)
    with the lowest such label. Scores the site table's two colour blocks
    with the sweeps' site-cost kernel, so a terminated solve always passes,
    one block after the other as annealing does, which halves the kernel's
    (4, n, L) block.
    """
    _check_dims(model, labels)
    flat = labels.labels.ravel()
    found = [_first_mover(model, flat, *colour) for colour in model.site_table]
    found = [witness for witness in found if witness is not None]
    if not found:
        return True, None
    site, label = min(found)
    r, c = divmod(site, model.width)
    return False, ((r, c), label)


def exhaustive_oracle(model: EnergyModel):
    """Global minimizer by enumerating every labeling (lexicographic ties).

    Only feasible when label_count ** pixel_count <= 10^6; larger instances
    raise ValueError.
    """
    h, w, label_count = model.data_costs.shape
    n = h * w
    count = label_count ** n
    if count > EXHAUSTIVE_LIMIT:
        raise ValueError(
            f"instance too large: {label_count}^{n} labelings exceed {EXHAUSTIVE_LIMIT}"
        )
    idx = np.arange(count, dtype=np.int64)
    # Column p holds pixel p's label; first pixel most significant, so row
    # order is lexicographic and argmin returns the lexicographically
    # smallest minimizer. Smallest dtype keeps the table near the 10^6 cap
    # affordable.
    assign = np.empty((count, n), dtype=np.min_scalar_type(label_count - 1))
    for p in range(n):
        assign[:, p] = (idx // (label_count ** (n - 1 - p))) % label_count

    dc = model.data_costs.reshape(n, label_count)
    energies = np.zeros(count, dtype=np.float64)
    for p in range(n):
        energies += dc[p, assign[:, p]]
    pair = model.pair_cost
    for r in range(h):
        for c in range(w):
            p = r * w + c
            if c < w - 1:
                wgt = float(model.edge_weights_x[r, c])
                energies += model.prior_weight * wgt * pair[assign[:, p], assign[:, p + 1]]
            if r < h - 1:
                wgt = float(model.edge_weights_y[r, c])
                energies += model.prior_weight * wgt * pair[assign[:, p], assign[:, p + w]]
    best = int(np.argmin(energies))
    labels = LabelField(labels=assign[best].reshape(h, w), label_count=label_count)
    return labels, float(energies[best])


# ---------------------------------------------------------------------------
# Smoothness (divergence-form) operator and its ellipticity test
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SmoothnessField:
    """Per-pixel symmetric 2x2 coefficient matrices with an ellipticity margin."""

    coeffs: np.ndarray  # (h, w, 2, 2)
    epsilon: float

    def __post_init__(self):
        a = np.asarray(self.coeffs, dtype=np.float64)
        if a.ndim != 4 or a.shape[2:] != (2, 2):
            raise ValueError("coeffs must have shape (h, w, 2, 2)")
        if np.max(np.abs(a[..., 0, 1] - a[..., 1, 0])) > 1e-9:
            raise ValueError("coefficient matrices must be symmetric")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be > 0")
        object.__setattr__(self, "coeffs", a)

    @classmethod
    def identity(cls, height: int, width: int, epsilon: float = 1.0):
        a = np.zeros((height, width, 2, 2))
        a[..., 0, 0] = 1.0
        a[..., 1, 1] = 1.0
        return cls(coeffs=a, epsilon=epsilon)


def smallest_eigenvalues(field: SmoothnessField) -> np.ndarray:
    """Closed-form smaller eigenvalue of each symmetric 2x2 coefficient matrix."""
    a = field.coeffs
    half_trace = (a[..., 0, 0] + a[..., 1, 1]) / 2.0
    half_gap = (a[..., 0, 0] - a[..., 1, 1]) / 2.0
    return half_trace - np.sqrt(half_gap ** 2 + a[..., 0, 1] ** 2)


def ellipticity_check(field: SmoothnessField) -> bool:
    """True iff every coefficient matrix dominates epsilon times the identity."""
    return bool(np.all(smallest_eigenvalues(field) >= field.epsilon))


def smoothness_residual(field: SmoothnessField, u: np.ndarray) -> np.ndarray:
    """Central-difference divergence-form operator sum_i d_i(a_ij d_j u).

    Values are reliable at interior pixels (two pixels from each border);
    np.gradient falls back to one-sided differences at the edges. Linear in u.
    """
    if not ellipticity_check(field):
        raise EllipticityError(
            f"coefficients are not elliptic with margin {field.epsilon}"
        )
    u = np.asarray(u, dtype=np.float64)
    if u.shape != field.coeffs.shape[:2]:
        raise ValueError("field shape does not match the coefficient grid")
    a = field.coeffs
    grad_y, grad_x = np.gradient(u)
    flux_x = a[..., 0, 0] * grad_x + a[..., 0, 1] * grad_y
    flux_y = a[..., 1, 0] * grad_x + a[..., 1, 1] * grad_y
    return np.gradient(flux_x, axis=1) + np.gradient(flux_y, axis=0)


# ---------------------------------------------------------------------------
# Game builders
# ---------------------------------------------------------------------------

def build_segmentation_game(img: Image, params, prior_weight: float,
                            prior_kind: str = "potts") -> EnergyModel:
    """Labeling game whose data term is the mixture negative log-likelihood."""
    costs = gmm_mod.data_costs(img, params)
    return EnergyModel(data_costs=costs, prior_weight=prior_weight,
                       prior_kind=prior_kind)


def build_registration_game(fixed: Image, moving: Image,
                            labels: DisplacementLabelSet, prior_weight: float,
                            field: SmoothnessField) -> EnergyModel:
    """Discrete-displacement registration game.

    Data term per pixel and offset: squared intensity difference between the
    fixed image and the moving image sampled at the offset position (edge
    clamped). The (h, w, L) table is built in one pass: the fixed plane
    minus the (2r + 1) x (2r + 1) sliding windows of the moving plane
    edge-padded by the radius r, squared in place. The window axes (dy + r,
    dx + r) are the label set's row-major order. Neighboring displacements
    are coupled quadratically in offset space; horizontal edges are weighted
    by the smoothness field's xx coefficient, vertical edges by yy (averaged
    over the edge endpoints).

    Every caller passes SmoothnessField.identity as field; the argument stays
    because bench/workloads.py:292-293 builds one and passes it fifth, by
    position.
    """
    if (fixed.height, fixed.width) != (moving.height, moving.width):
        raise ValueError("fixed and moving images must have the same size")
    if field.coeffs.shape[:2] != (fixed.height, fixed.width):
        raise ValueError("smoothness field shape does not match the images")
    if not ellipticity_check(field):
        raise EllipticityError(
            f"coefficients are not elliptic with margin {field.epsilon}"
        )
    h, w = fixed.height, fixed.width
    span = 2 * labels.radius + 1
    padded = np.pad(moving.plane().astype(np.float64), labels.radius, mode="edge")
    # windows[r, c, dy + radius, dx + radius] is the moving plane at
    # (r + dy, c + dx), edge clamped.
    windows = np.lib.stride_tricks.sliding_window_view(padded, (span, span))
    # order="C": the (h, w, 2r + 1, 2r + 1) result reshapes to (h, w, L)
    # without a copy.
    costs = np.subtract(fixed.plane().astype(np.float64)[:, :, None, None], windows,
                        order="C")
    costs *= costs
    costs = costs.reshape(h, w, len(labels))
    a = field.coeffs
    wx = (a[:, :-1, 0, 0] + a[:, 1:, 0, 0]) / 2.0
    wy = (a[:-1, :, 1, 1] + a[1:, :, 1, 1]) / 2.0
    offsets = np.array(labels.offsets, dtype=np.float64)
    return EnergyModel(data_costs=costs, prior_weight=prior_weight,
                       prior_kind="quadratic", label_values=offsets,
                       edge_weights_x=wx, edge_weights_y=wy)


# A label image has 256 gray levels, so it holds at most 256 distinct labels.
LABEL_IMAGE_LEVELS = 256


def check_label_count(label_count: int):
    """Reject more labels than a label image can hold; the CLI checks this
    before any work."""
    if label_count > LABEL_IMAGE_LEVELS:
        raise ValueError(f"{label_count} labels do not fit a label image "
                         f"(at most {LABEL_IMAGE_LEVELS})")


def labels_to_image(labels: LabelField) -> Image:
    """Visualization: labels scaled onto 0..255 (label_count 1 maps to 0), one
    gray level per label. Raises ValueError above LABEL_IMAGE_LEVELS labels,
    where two labels would share a level."""
    check_label_count(labels.label_count)
    if labels.label_count == 1:
        return Image(np.zeros(labels.labels.shape, dtype=np.uint8))
    scale = 255.0 / (labels.label_count - 1)
    return Image(np.rint(labels.labels * scale).astype(np.uint8))
