import math
import warnings

import numpy as np
import pytest

from scenegame import gmm
from scenegame.gmm import (
    EmptyComponentError,
    EmTrace,
    GmmParams,
    _init_params,
    data_costs,
    e_step,
    fit,
    log_likelihood,
    m_step,
)
from scenegame.image import Image, gen_scene, scene_template


def normal_pdf(x, mean, var):
    # independent density evaluation for the oracles below
    return math.exp(-((x - mean) ** 2) / (2 * var)) / math.sqrt(2 * math.pi * var)


def make_params(weights, means, variances):
    return GmmParams(weights=np.array(weights), means=np.array(means),
                     variances=np.array(variances))


def test_params_validation():
    with pytest.raises(ValueError):
        make_params([0.4, 0.4], [0.0, 1.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        make_params([0.5, 0.5], [0.0, 1.0], [1.0, 0.0])


@pytest.mark.parametrize("weights, means, variances", [
    ([np.nan, np.nan], [0.0, 1.0], [1.0, 1.0]),
    ([0.5, 0.5], [np.nan, 1.0], [1.0, 1.0]),
    ([0.5, 0.5], [0.0, -np.inf], [1.0, 1.0]),
    ([0.5, 0.5], [0.0, 1.0], [np.inf, 1.0]),
    ([0.5, 0.5], [0.0, 1.0], [1.0, np.nan]),
])
def test_params_reject_non_finite_entries(weights, means, variances):
    # NaN slips past both the probability check (abs(nan - 1) > 1e-9 is
    # False) and the floor check (nan < floor is False).
    with pytest.raises(ValueError, match="finite"):
        make_params(weights, means, variances)


def test_e_step_single_component_is_one():
    params = make_params([1.0], [0.3], [0.2])
    resp = e_step([0.0, 1.0, 5.0], params)
    assert np.allclose(resp, 1.0)


def test_e_step_symmetric_components():
    params = make_params([0.5, 0.5], [-1.0, 1.0], [0.4, 0.4])
    resp = e_step([0.0], params)
    assert resp[0] == pytest.approx([0.5, 0.5])


def test_e_step_matches_density_formula():
    params = make_params([0.3, 0.7], [0.1, 2.0], [0.5, 1.5])
    data = [0.0, 1.3, -2.2]
    resp = e_step(data, params)
    for n, x in enumerate(data):
        raw = [w * normal_pdf(x, m, v)
               for w, m, v in zip(params.weights, params.means, params.variances)]
        expected = np.array(raw) / sum(raw)
        assert resp[n] == pytest.approx(expected, abs=1e-12)


def test_e_step_rows_sum_to_one():
    rng = np.random.default_rng(3)
    params = make_params([0.2, 0.5, 0.3], [-1.0, 0.0, 3.0], [0.1, 1.0, 2.0])
    resp = e_step(rng.normal(0, 2, 100), params)
    assert np.abs(resp.sum(axis=1) - 1.0).max() < 1e-12


def test_e_step_empty_data():
    with pytest.raises(ValueError):
        e_step([], make_params([1.0], [0.0], [1.0]))


def test_m_step_single_component_analytic():
    data = np.array([1.0, 2.0, 3.0, 6.0])
    params = m_step(data, np.ones((4, 1)))
    assert params.means[0] == pytest.approx(data.mean())
    assert params.variances[0] == pytest.approx(data.var())
    assert params.weights[0] == pytest.approx(1.0)


def test_m_step_hard_assignments_are_group_stats():
    data = np.array([0.0, 0.2, 10.0, 10.4])
    resp = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    params = m_step(data, resp)
    assert params.means == pytest.approx([0.1, 10.2])
    assert params.variances == pytest.approx([0.01, 0.04])
    assert params.weights == pytest.approx([0.5, 0.5])


def test_m_step_soft_assignments_match_weighted_formula():
    data = np.array([0.0, 1.0, 2.0, 3.0])
    resp = np.array([[0.8, 0.2], [0.6, 0.4], [0.3, 0.7], [0.1, 0.9]])
    params = m_step(data, resp)
    for k in range(2):
        total = resp[:, k].sum()
        mean = float((resp[:, k] * data).sum() / total)
        var = float((resp[:, k] * (data - mean) ** 2).sum() / total)
        assert params.weights[k] == pytest.approx(total / 4.0)
        assert params.means[k] == pytest.approx(mean)
        assert params.variances[k] == pytest.approx(var)


def test_m_step_empty_component_error():
    data = np.array([0.0, 1.0])
    resp = np.array([[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(EmptyComponentError):
        m_step(data, resp)


def test_fit_single_point_single_component():
    params, trace = fit([5.0], 1)
    assert params.means[0] == 5.0
    assert trace.converged
    assert trace.iterations_used <= 2


def test_fit_separable_clusters():
    data = [-0.1, 0.0, 0.1, 9.9, 10.0, 10.1]
    params, _ = fit(data, 2)
    means = np.sort(params.means)
    # oracle: per-cluster sample means of the obvious split
    assert abs(means[0] - 0.0) < 0.1
    assert abs(means[1] - 10.0) < 0.1


def test_fit_loglik_nondecreasing():
    rng = np.random.default_rng(42)
    for _ in range(20):
        data = np.concatenate([
            rng.normal(-1, 0.5, 60), rng.normal(2, 1.0, 60)
        ])
        _, trace = fit(data, int(rng.integers(1, 4)))
        diffs = np.diff(trace.loglik_per_iter)
        assert diffs.min() >= -1e-9


def test_fit_is_deterministic():
    rng = np.random.default_rng(10)
    data = rng.normal(0, 1, 120)
    p1, t1 = fit(data, 3)
    p2, t2 = fit(data, 3)
    assert np.array_equal(p1.means, p2.means)
    assert np.array_equal(p1.weights, p2.weights)
    assert t1.loglik_per_iter == t2.loglik_per_iter


def test_fit_rejects_too_many_components():
    with pytest.raises(ValueError):
        fit([1.0, 2.0], 3)


def test_fit_rejects_negative_max_iters(monkeypatch):
    data = [0.1, 0.2, 0.8, 0.9]
    init = []
    monkeypatch.setattr(gmm, "_init_params", lambda *a: init.append(a))
    with pytest.raises(ValueError, match="max_iters"):
        fit(data, 2, max_iters=-4)
    assert not init  # rejected before any work
    monkeypatch.undo()
    params, trace = fit(data, 2, max_iters=0)  # zero stays valid: the start
    start = _init_params(np.asarray(data), 2)
    assert np.array_equal(params.means, start.means)
    assert (trace.iterations_used, trace.converged) == (0, False)
    assert trace.loglik_per_iter == [log_likelihood(data, start)]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_fit_rejects_non_finite_data_before_any_iteration(monkeypatch, bad):
    init = []
    monkeypatch.setattr(gmm, "_init_params", lambda *a: init.append(a))
    with pytest.raises(ValueError, match="data must be finite"):
        fit([0.1, 0.2, bad, 0.5], 2)
    assert not init


@pytest.mark.parametrize("data, k", [([1e200, -1e200, 0.0, 5.0], 2),
                                     ([1e308, -1e308], 1)])
def test_fit_rejects_data_whose_spread_overflows(monkeypatch, data, k):
    # Finite samples whose range or variance is not finite in float64: the
    # error names the data, before any parameter is built and without a
    # numpy overflow warning.
    init = []
    monkeypatch.setattr(gmm, "_init_params", lambda *a: init.append(a))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="data range and variance must be finite"):
            fit(data, k)
    assert not init


def test_fit_builds_one_density_table_per_parameter_set(monkeypatch):
    # k iterations see k + 1 parameter sets (the start and one per M-step);
    # each set's log joint table gives both its responsibilities and its
    # trace entry.
    evaluations = []
    log_normal = gmm._log_normal

    def counting(*args):
        evaluations.append(1)
        return log_normal(*args)

    monkeypatch.setattr(gmm, "_log_normal", counting)
    data = gen_scene(1, 32, 2, 5).plane().astype(np.float64).ravel() / 255.0
    for max_iters in (0, 1, 7, 200):
        evaluations.clear()
        _, trace = fit(data, 3, max_iters=max_iters)
        assert len(evaluations) == trace.iterations_used + 1
        assert len(trace.loglik_per_iter) == trace.iterations_used + 1
    assert trace.converged  # at 68 iterations: the early stop counts too


def test_fit_checks_counts_once_and_keeps_the_empty_component_check(monkeypatch):
    # fit builds the counts itself and checks them once; the iterations run
    # the unchecked M-step, which still stops on an empty component.
    checks = []
    sample_weights = gmm._sample_weights

    def counting(counts, size):
        checks.append(size)
        return sample_weights(counts, size)

    monkeypatch.setattr(gmm, "_sample_weights", counting)
    data = gen_scene(1, 32, 2, 5).plane().astype(np.float64).ravel() / 255.0
    _, trace = fit(data, 3)
    assert trace.iterations_used > 1 and len(checks) == 1
    with pytest.raises(EmptyComponentError,
                       match="the data has 2 distinct values for 5 components$"):
        fit(np.repeat([0.0, 0.9], [22, 22]), 5)


# ---------------------------------------------------------------------------
# Histogram EM against the per-sample loop
# ---------------------------------------------------------------------------

def reference_fit(data, component_count, epsilon=1e-8, max_iters=200):
    """The per-sample EM loop that fit ran before it moved to the (value,
    count) histogram: every iteration visits every sample."""
    data = np.asarray(data, dtype=np.float64).ravel()
    if component_count < 1:
        raise ValueError("component_count must be >= 1")
    if data.size < component_count:
        raise ValueError(
            f"need at least {component_count} samples, got {data.size}"
        )
    params = _init_params(data, component_count)
    trace = EmTrace()
    previous = log_likelihood(data, params)
    trace.loglik_per_iter.append(previous)
    for _ in range(max_iters):
        resp = e_step(data, params)
        params = m_step(data, resp)
        current = log_likelihood(data, params)
        trace.loglik_per_iter.append(current)
        trace.iterations_used += 1
        if abs(current - previous) < epsilon:
            trace.converged = True
            break
        previous = current
    return params, trace


def histogram_reference_fit(data, component_count, epsilon=1e-8, max_iters=200):
    """fit's histogram loop before one posterior pass served both the E-step
    and the trace: each iteration calls e_step, m_step and log_likelihood,
    and builds every parameter set's log joint table twice."""
    data = np.asarray(data, dtype=np.float64).ravel()
    if component_count < 1:
        raise ValueError("component_count must be >= 1")
    if data.size < component_count:
        raise ValueError(
            f"need at least {component_count} samples, got {data.size}"
        )
    params = _init_params(data, component_count)
    values, counts = np.unique(data, return_counts=True)
    trace = EmTrace()
    previous = log_likelihood(values, params, counts)
    trace.loglik_per_iter.append(previous)
    for _ in range(max_iters):
        resp = e_step(values, params)
        params = m_step(values, resp, counts)
        current = log_likelihood(values, params, counts)
        trace.loglik_per_iter.append(current)
        trace.iterations_used += 1
        if abs(current - previous) < epsilon:
            trace.converged = True
            break
        previous = current
    return params, trace


def fit_outcome(fit_fn, data, component_count):
    try:
        return fit_fn(data, component_count)
    except EmptyComponentError as exc:
        # fit re-raises the M-step's error with the data's distinct-value
        # count appended; the reference loops raise the M-step's error alone.
        return str(exc.__cause__ or exc)


def exact_outcome(fit_fn, data, component_count):
    """A fit as bytes: the error, or the parameter bytes, the trace repr,
    the iteration count and the convergence flag."""
    outcome = fit_outcome(fit_fn, data, component_count)
    if isinstance(outcome, str):
        return outcome
    params, trace = outcome
    return (params.weights.tobytes(), params.means.tobytes(),
            params.variances.tobytes(), repr(trace.loglik_per_iter),
            trace.iterations_used, trace.converged)


def assert_same_fit(data, component_count):
    """fit and reference_fit agree: the same error, or the same iterations
    and parameters. fit is byte-identical to histogram_reference_fit.
    Returns the outcome."""
    assert exact_outcome(fit, data, component_count) == exact_outcome(
        histogram_reference_fit, data, component_count)
    expected = fit_outcome(reference_fit, data, component_count)
    got = fit_outcome(fit, data, component_count)
    if isinstance(expected, str) or isinstance(got, str):
        assert got == expected
        return got
    (p_ref, t_ref), (p_new, t_new) = expected, got
    assert t_new.iterations_used == t_ref.iterations_used
    assert t_new.converged == t_ref.converged
    for name in ("weights", "means", "variances"):
        np.testing.assert_allclose(getattr(p_new, name), getattr(p_ref, name),
                                   rtol=1e-12, atol=0, err_msg=name)
    np.testing.assert_allclose(t_new.loglik_per_iter, t_ref.loglik_per_iter,
                               rtol=1e-12, atol=0)
    return got


def test_fit_on_histogram_matches_per_sample_loop_on_scenes():
    sizes = (16, 32, 48, 64)
    for class_id in range(5):
        for noise in (1, 2, 3):
            size = sizes[(class_id + noise) % len(sizes)]
            img = gen_scene(class_id, size, noise, 97 * class_id + noise)
            data = img.plane().astype(np.float64).ravel() / 255.0
            assert_same_fit(data, 2 + class_id % 2)


def test_fit_on_histogram_matches_per_sample_loop_on_distinct_values():
    rng = np.random.default_rng(5)
    for k in range(4):
        data = np.concatenate([rng.normal(-1, 0.5, 150), rng.normal(2, 1.0, 150)])
        assert np.unique(data).size == data.size  # every count is 1
        assert_same_fit(data, 1 + k)


# Fewer distinct values than components. With two equally common values the
# middle quantile falls between them, and that component empties.
HEAVY_TIE_CASES = [(np.repeat([0.2, 0.7], [40, 60]), 3),
                   (np.repeat([0.2, 0.7], [30, 30]), 3),
                   (np.full(50, 0.4), 2),
                   (np.repeat([0.0, 0.9], [22, 22]), 5)]


def test_fit_on_histogram_matches_per_sample_loop_on_heavy_ties():
    outcomes = [assert_same_fit(data, k) for data, k in HEAVY_TIE_CASES]
    raised = sum(isinstance(o, str) for o in outcomes)
    assert 0 < raised < len(outcomes)  # both branches exercised


def template_data(class_id, size):
    return scene_template(class_id, size).astype(np.float64).ravel() / 255.0


# Fits whose start quantiles tie (all but the second heavy case, whose middle
# quantile falls between its two values), each with its (iterations,
# converged), or None for an EmptyComponentError. These are the outcomes of a
# start that split tied means by a seeded 1e-6 jitter, at every seed tried:
# the tie rule keeps them.
TIE_START_CASES = [
    *zip(HEAVY_TIE_CASES, [(5, True), (8, True), (1, True), None]),
    *(((template_data(class_id, size), 3), outcome)
      for class_id, outcome in ((0, (5, True)), (2, (4, True)), (4, (5, True)))
      for size in (16, 64)),
]


@pytest.mark.parametrize("case, outcome", TIE_START_CASES)
def test_tied_start_quantiles_stay_tied_and_keep_their_fit_outcome(case, outcome):
    data, k = case
    start = _init_params(data, k)
    quantiles = np.quantile(data, (np.arange(k) + 0.5) / k)
    assert start.means.tobytes() == quantiles.tobytes()
    if outcome is None:
        with pytest.raises(EmptyComponentError):
            fit(data, k)
        return
    params, trace = fit(data, k)
    assert (trace.iterations_used, trace.converged) == outcome
    # Components that start equal get equal responsibilities and stay equal.
    for first in np.flatnonzero(np.diff(start.means) == 0):
        for name in ("weights", "means", "variances"):
            values = getattr(params, name)
            assert values[first] == values[first + 1], name


def test_fit_is_byte_identical_to_histogram_loop_on_scenes():
    sizes = (16, 32, 64, 96, 128)
    for class_id in range(5):
        for noise in (1, 2, 3):
            size = sizes[(class_id + 2 * noise) % len(sizes)]
            img = gen_scene(class_id, size, noise, 31 * class_id + noise)
            data = img.plane().astype(np.float64).ravel() / 255.0
            k = 1 + (class_id + noise) % 5
            assert exact_outcome(fit, data, k) == exact_outcome(
                histogram_reference_fit, data, k), (class_id, noise, k)


def scene_data(class_id, size, noise, seed):
    return gen_scene(class_id, size, noise, seed).plane().astype(np.float64).ravel() / 255.0


def test_fit_on_histogram_matches_per_sample_loop_on_benchmark_scenes():
    # The segment (128x128, four inputs) and anneal (64x64, eight inputs)
    # benchmark scenes at both benchmark seeds, fitted with 3 components as
    # both workloads do.
    for seed in (2026, 4747):
        for size, inputs in ((128, 4), (64, 8)):
            for i in range(inputs):
                assert_same_fit(scene_data(0, size, 2, seed * 100 + i), 3)


# ---------------------------------------------------------------------------
# Per-sample weights (counts)
# ---------------------------------------------------------------------------

WEIGHTED_PARAMS = make_params([0.2, 0.5, 0.3], [-1.0, 0.4, 2.5], [0.3, 1.0, 0.6])


def weighted_sample(seed):
    rng = np.random.default_rng(seed)
    values = rng.normal(0.5, 1.5, 40)
    counts = rng.integers(0, 6, values.size)
    counts[0] = 1  # never all zero
    return values, counts


def test_weighted_steps_equal_repeated_samples():
    for seed in range(5):
        values, counts = weighted_sample(seed)
        repeated = np.repeat(values, counts)
        resp = e_step(values, WEIGHTED_PARAMS)
        np.testing.assert_allclose(np.repeat(resp, counts, axis=0),
                                   e_step(repeated, WEIGHTED_PARAMS),
                                   rtol=1e-12, atol=1e-12)
        weighted = m_step(values, resp, counts)
        plain = m_step(repeated, np.repeat(resp, counts, axis=0))
        for name in ("weights", "means", "variances"):
            np.testing.assert_allclose(getattr(weighted, name),
                                       getattr(plain, name), rtol=1e-12)
        assert log_likelihood(values, WEIGHTED_PARAMS, counts) == pytest.approx(
            log_likelihood(repeated, WEIGHTED_PARAMS), rel=1e-12)


def test_counts_none_equals_unit_counts():
    values, _ = weighted_sample(11)
    ones = np.ones(values.size)
    resp = e_step(values, WEIGHTED_PARAMS)
    unweighted = m_step(values, resp)
    unit = m_step(values, resp, ones)
    for name in ("weights", "means", "variances"):  # one path: exactly equal
        assert np.array_equal(getattr(unit, name), getattr(unweighted, name)), name
    assert log_likelihood(values, WEIGHTED_PARAMS, ones) == pytest.approx(
        log_likelihood(values, WEIGHTED_PARAMS), rel=1e-12)


@pytest.mark.parametrize("counts", [
    [1.0, 2.0],                 # too short
    [[1.0, 2.0, 3.0]],          # wrong rank
    [1.0, -1.0, 3.0],           # negative
    [0.0, 0.0, 0.0],            # sums to zero
    [1.0, np.nan, 1.0],         # not finite
])
def test_bad_counts_rejected(counts):
    values = np.array([0.0, 1.0, 2.0])
    resp = np.full((3, 3), 1.0 / 3.0)
    with pytest.raises(ValueError):
        m_step(values, resp, counts)
    with pytest.raises(ValueError):
        log_likelihood(values, WEIGHTED_PARAMS, counts)


# ---------------------------------------------------------------------------
# data_costs
# ---------------------------------------------------------------------------

def test_data_costs_argmin_is_ml_component():
    params = make_params([0.5, 0.5], [0.2, 0.8], [0.01, 0.01])
    img = Image(np.array([[51, 204]], dtype=np.uint8))  # 0.2 and 0.8
    costs = data_costs(img, params)
    assert np.argmin(costs[0, 0]) == 0
    assert np.argmin(costs[0, 1]) == 1


def test_data_costs_midpoint_symmetric():
    params = make_params([0.5, 0.5], [0.25, 0.75], [0.02, 0.02])
    # intensity 127.5 is not representable; build the midpoint directly
    img = Image(np.array([[102]], dtype=np.uint8))  # 0.4
    costs = data_costs(img, params)
    mid_params = make_params([0.5, 0.5], [0.4 - 0.1, 0.4 + 0.1], [0.02, 0.02])
    mid_costs = data_costs(img, mid_params)
    assert abs(mid_costs[0, 0, 0] - mid_costs[0, 0, 1]) < 1e-9
    assert np.all(np.isfinite(costs))


def test_data_costs_match_log_density():
    params = make_params([0.6, 0.4], [0.3, 0.7], [0.05, 0.1])
    img = Image(np.array([[0, 128], [200, 255]], dtype=np.uint8))
    costs = data_costs(img, params)
    for r in range(2):
        for c in range(2):
            x = img.pixels[r, c] / 255.0
            for k in range(2):
                expected = -math.log(normal_pdf(x, params.means[k],
                                                params.variances[k]))
                assert costs[r, c, k] == pytest.approx(expected, abs=1e-9)


def test_unit_plane_is_the_level_over_255_scale_of_fit_and_data_costs():
    # Every gray level once, as a 16x16 image: unit_plane gives level / 255
    # bit for bit, and data_costs scores exactly those values.
    img = Image(np.arange(256, dtype=np.uint8).reshape(16, 16))
    plane = gmm.unit_plane(img)
    expected = img.pixels.astype(np.float64) / 255.0
    assert plane.dtype == np.float64 and plane.tobytes() == expected.tobytes()
    assert plane.ravel().tobytes() == (img.plane().astype(np.float64).ravel() / 255.0).tobytes()
    params = make_params([0.6, 0.4], [0.3, 0.7], [0.05, 0.1])
    expected_costs = -gmm._log_normal((expected[:, :, None] - params.means[None, None, :]) ** 2,
                                      params.variances[None, None, :])
    assert data_costs(img, params).tobytes() == expected_costs.tobytes()
