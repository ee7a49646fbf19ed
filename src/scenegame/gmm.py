"""Scalar Gaussian mixture estimation by expectation-maximization.

Produces per-pixel, per-label data costs (negative log class-conditional
densities) for the labeling game. Log-likelihood is guaranteed nondecreasing
across iterations up to the variance floor.
"""

from dataclasses import dataclass, field

import numpy as np

VARIANCE_FLOOR = 1e-6
# fit's stopping rule: |change of the summed log-likelihood| < EPSILON, at
# most MAX_ITERS EM iterations. check_fit and gmm-fit's flags read them too.
EPSILON = 1e-8
MAX_ITERS = 200
_LOG_2PI = float(np.log(2.0 * np.pi))


class EmptyComponentError(ValueError):
    """A mixture component received (numerically) zero total responsibility."""


@dataclass(frozen=True, eq=False)
class GmmParams:
    """Mixture weights, means, and variances for M scalar components."""

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        mu = np.asarray(self.means, dtype=np.float64)
        var = np.asarray(self.variances, dtype=np.float64)
        if not (w.shape == mu.shape == var.shape) or w.ndim != 1 or w.size < 1:
            raise ValueError("weights, means, variances must be equal-length 1-D")
        if not np.isfinite(np.stack([w, mu, var])).all():
            raise ValueError("weights, means, variances must be finite")
        if abs(w.sum() - 1.0) > 1e-9 or np.any(w < 0):
            raise ValueError("weights must be a probability vector")
        if np.any(var < VARIANCE_FLOOR):
            raise ValueError(f"variances must be >= {VARIANCE_FLOOR}")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", mu)
        object.__setattr__(self, "variances", var)

    @property
    def component_count(self):
        return self.weights.size


@dataclass
class EmTrace:
    """Per-iteration log-likelihood record of one EM run."""

    loglik_per_iter: list = field(default_factory=list)
    iterations_used: int = 0
    converged: bool = False


def _log_normal(sq_dev, variance):
    """log N(x; mean, variance) from the squared deviation (x - mean) ** 2."""
    return -0.5 * (_LOG_2PI + np.log(variance)) - sq_dev / (2.0 * variance)


def _sample_weights(counts, size):
    """Validated float64 per-sample weights; None means one each."""
    if counts is None:
        return np.ones(size)
    counts = np.asarray(counts, dtype=np.float64)
    if counts.shape != (size,):
        raise ValueError(f"counts must have shape ({size},), got {counts.shape}")
    if not np.all(np.isfinite(counts)) or np.any(counts < 0):
        raise ValueError("counts must be finite and >= 0")
    if counts.sum() <= 0:
        raise ValueError("counts must not sum to zero")
    return counts


def _posterior(sq_dev, mixture, counts):
    """Component-major (K, n) responsibilities and the summed log-likelihood
    under mixture = (weights, means, variances), both from one log joint
    table log(weight_m * N(x_n; mean_m, var_m)) and its column log-sum-exp.
    sq_dev is the (K, n) table (x_n - mean_m) ** 2 of the mixture's means."""
    weights, _, variances = mixture
    logp = _log_normal(sq_dev, variances[:, None])
    logp += np.log(np.maximum(weights[:, None], 1e-300))
    peak = logp.max(axis=0)
    resp = np.exp(logp - peak)
    totals = resp.sum(axis=0)
    return resp / totals, float((peak + np.log(totals)) @ counts)


def _arrays(params: GmmParams):
    """The (weights, means, variances) form the EM loop works on."""
    return params.weights, params.means, params.variances


def log_likelihood(data, params: GmmParams, counts=None) -> float:
    """Summed log-likelihood; ``counts[n]`` is how many times sample n occurs.

    No stage calls it; bench/spans.py:FUNCTIONS patches it by name."""
    data = np.asarray(data, dtype=np.float64)
    return _posterior((data - params.means[:, None]) ** 2, _arrays(params),
                      _sample_weights(counts, data.size))[1]


def e_step(data, params: GmmParams) -> np.ndarray:
    """Responsibilities r[n, m] proportional to weight_m * N(x_n; mean_m, var_m),
    rows normalized to 1. Computed in log space for stability.

    A row is the posterior of one sample value, so it does not depend on how
    often the value occurs: on a (value, count) histogram it takes the values
    alone.

    No stage calls it; bench/spans.py:FUNCTIONS patches it by name.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.size == 0:
        raise ValueError("data must be nonempty")
    return _posterior((data - params.means[:, None]) ** 2, _arrays(params),
                      _sample_weights(None, data.size))[0].T


def m_step(data, resp, counts=None) -> GmmParams:
    """Closed-form Q-maximizer: responsibility-weighted weights, means, and
    floored variances. Sample n counts ``counts[n]`` times (default once).

    No stage calls it; bench/spans.py:FUNCTIONS patches it by name."""
    data = np.asarray(data, dtype=np.float64)
    counts = _sample_weights(counts, data.size)
    mixture, _ = _m_step(data, np.asarray(resp, dtype=np.float64).T, counts)
    return GmmParams(*mixture)


def _m_step(values, resp, counts):
    """m_step's arithmetic on float64 arrays whose counts are already checked,
    with resp component-major (K, n): the (weights, means, variances) arrays,
    and the (K, n) table (x_n - mean_m) ** 2 of the new means, which the next
    posterior reads too. An empty component still raises EmptyComponentError."""
    resp = resp * counts
    totals = resp.sum(axis=1)
    if (totals < 1e-12).any():
        bad = int(np.argmin(totals))
        raise EmptyComponentError(f"component {bad} has total responsibility < 1e-12")
    weights = totals / counts.sum()
    means = (resp * values).sum(axis=1) / totals
    sq_dev = (values - means[:, None]) ** 2
    variances = (resp * sq_dev).sum(axis=1) / totals
    return (weights, means, np.maximum(variances, VARIANCE_FLOOR)), sq_dev


def _init_params(data, component_count):
    """EM's start: equal weights, the pooled variance, and the data's
    (m + 0.5) / K quantiles as means, as they are. Tied quantiles (heavily
    repeated data) stay tied: components that start equal get equal
    responsibilities, so EM keeps them equal on every iteration."""
    qs = (np.arange(component_count) + 0.5) / component_count
    means = np.quantile(data, qs)
    pooled = max(float(np.var(data)), VARIANCE_FLOOR)
    weights = np.full(component_count, 1.0 / component_count)
    return GmmParams(weights=weights, means=means,
                     variances=np.full(component_count, pooled))


def check_fit(component_count: int, epsilon: float = EPSILON,
              max_iters: int = MAX_ITERS):
    """fit's settings, with fit's defaults; the CLI checks them before any
    input is read."""
    if component_count < 1:
        raise ValueError("component_count must be >= 1")
    if max_iters < 0:
        raise ValueError(f"max_iters must be >= 0, got {max_iters}")
    if not 0 <= epsilon < np.inf:
        raise ValueError(f"epsilon must be finite and >= 0, got {epsilon}")


def fit(data, component_count: int, epsilon: float = EPSILON,
        max_iters: int = MAX_ITERS):
    """Run EM until the absolute change of the summed log-likelihood drops
    below epsilon (finite, >= 0) or max_iters is hit. Returns (GmmParams,
    EmTrace); the trace log-likelihoods are nondecreasing within 1e-9.

    A deterministic function of its arguments: no seed. The parameters start
    from the samples (_init_params; tied start quantiles give components that
    stay equal); the iterations then run on the distinct values and their
    counts, which carry the same sufficient statistics (an 8-bit image has at
    most 256 of them).
    """
    data = np.asarray(data, dtype=np.float64).ravel()
    check_fit(component_count, epsilon, max_iters)
    if data.size < component_count:
        raise ValueError(
            f"need at least {component_count} samples, got {data.size}"
        )
    if not np.isfinite(data).all():
        raise ValueError("data must be finite")
    with np.errstate(over="ignore", invalid="ignore"):
        spread = np.array([np.ptp(data), np.var(data)])
    if not np.isfinite(spread).all():
        raise ValueError("data range and variance must be finite in float64")
    mixture = _arrays(_init_params(data, component_count))
    values, counts = np.unique(data, return_counts=True)
    # Checked once here; the loop's M-steps run unchecked on these arrays.
    counts = _sample_weights(counts, values.size)
    resp, loglik = _posterior((values - mixture[1][:, None]) ** 2, mixture, counts)
    trace = EmTrace([loglik])
    for _ in range(max_iters):
        try:
            mixture, sq_dev = _m_step(values, resp, counts)
        except EmptyComponentError as exc:
            raise EmptyComponentError(
                f"{exc}: the data has {values.size} distinct values for "
                f"{component_count} components") from exc
        resp, loglik = _posterior(sq_dev, mixture, counts)
        trace.loglik_per_iter.append(loglik)
        trace.iterations_used += 1
        if abs(loglik - trace.loglik_per_iter[-2]) < epsilon:
            trace.converged = True
            break
    return GmmParams(*mixture), trace


def unit_plane(img) -> np.ndarray:
    """The image's (h, w) gray levels on the mixture's [0, 1] intensity scale,
    level / 255: the CLI fits mixtures on it, and data_costs scores it."""
    return img.plane().astype(np.float64) / 255.0


def data_costs(img, params: GmmParams) -> np.ndarray:
    """Per-pixel, per-label cost table: -log N(y_p / 255; mean_l, var_l).

    Intensities are on unit_plane's [0, 1] scale, that of mixture parameters
    fitted on it. The per-pixel argmin is the maximum-likelihood component.
    """
    costs = -_log_normal(
        (unit_plane(img)[:, :, None] - params.means[None, None, :]) ** 2,
        params.variances[None, None, :],
    )
    return costs
