"""Relative-entropy estimation for system-velocity samples.

The target quantity is the relative entropy of the system marginal with
respect to the thermal state exp(-pi |v|^2), which splits as
pi * E|v|^2 minus the differential entropy.  One estimator,
`relative_entropy_to_thermal`, computes both terms: the differential entropy
by the Kozachenko-Leonenko k-nearest-neighbor construction, the standard
error by bootstrapping the per-sample contributions (refitting neighbor
graphs on with-replacement resamples would inject spurious zero distances).
scipy is imported inside the estimator, not at module level, so commands
that never estimate an entropy start without loading it.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .model import AngleDistribution, GeneratorParams
from .moments import DecayEnvelope

DEFAULT_K = 4
DEFAULT_BOOTSTRAP = 50
BIAS_MARGIN_PER_DIM = 0.02  # empirical kNN bias allowance per dimension, n >= 1e5
JITTER_SCALE = 1e-12


@dataclass(frozen=True)
class EntropyEstimate:
    """Point estimate of the relative entropy with resampled standard error."""

    value: float
    std_error: float
    differential_entropy: float
    second_moment_term: float
    estimator: dict = field(default_factory=dict)


def log_unit_ball_volume(dim: int) -> float:
    from scipy.special import gammaln

    return 0.5 * dim * math.log(math.pi) - gammaln(0.5 * dim + 1.0)


def _knn_log_distances(points: np.ndarray, k: int, rng: np.random.Generator) -> tuple[np.ndarray, bool]:
    from scipy.spatial import cKDTree

    tree = cKDTree(points)
    dist, _ = tree.query(points, k=k + 1, workers=-1)
    eps = dist[:, k]
    jittered = False
    if np.any(eps <= 0.0):
        warnings.warn("duplicate samples: jittering at 1e-12 scale", stacklevel=3)
        jittered = True
        scale = JITTER_SCALE * max(1.0, float(np.sqrt(np.mean(points ** 2))))
        points = points + rng.normal(size=points.shape) * scale
        tree = cKDTree(points)
        dist, _ = tree.query(points, k=k + 1, workers=-1)
        eps = dist[:, k]
    return np.log(eps), jittered


def _bootstrap_se(contributions: np.ndarray, n_bootstrap: int, rng: np.random.Generator) -> float:
    """Standard error of the mean of `contributions` from with-replacement resamples.

    One draw per replicate: a single (n_bootstrap, n) index draw gives the same
    numbers but holds n_bootstrap * n indices and was not faster.
    """
    if n_bootstrap < 2:
        raise ValueError("need n_bootstrap >= 2 replicates")
    n = len(contributions)
    replicates = np.empty(n_bootstrap)
    for b in range(n_bootstrap):
        replicates[b] = contributions[rng.integers(0, n, n)].mean()
    return float(replicates.std(ddof=1))


def relative_entropy_to_thermal(
    cloud: np.ndarray,
    k: int = DEFAULT_K,
    n_bootstrap: int = DEFAULT_BOOTSTRAP,
    rng: np.random.Generator | None = None,
) -> EntropyEstimate:
    """Estimate the relative entropy of the sample law w.r.t. the thermal state.

    `cloud` holds n finite samples, shape (n, dim) or (n,) in one dimension.
    Combines the second-moment term and the differential-entropy term at the
    per-sample level so the bootstrap captures their correlation.
    """
    from scipy.special import digamma

    points = np.asarray(cloud, dtype=float)
    if points.ndim == 1:
        points = points[:, None]
    if points.ndim != 2 or points.shape[1] < 1:
        raise ValueError("cloud must have shape (n,) or (n, dim) with dim >= 1")
    n, dim = points.shape
    if not 1 <= k < n:
        raise ValueError("need 1 <= k < n samples")
    rng = rng if rng is not None else np.random.default_rng(0)
    log_eps, jittered = _knn_log_distances(points, k, rng)
    const = digamma(n) - digamma(k) + log_unit_ball_volume(dim)
    moment_part = math.pi * np.sum(points ** 2, axis=1)
    contributions = moment_part - dim * log_eps
    return EntropyEstimate(
        value=float(contributions.mean()) - const,
        std_error=_bootstrap_se(contributions, n_bootstrap, rng),
        differential_entropy=const + float(dim * log_eps.mean()),
        second_moment_term=float(moment_part.mean()),
        estimator={
            "method": "knn",
            "k": k,
            "n": n,
            "dim": dim,
            "bootstrap": n_bootstrap,
            "jittered": jittered,
        },
    )


def gaussian_kl_to_thermal(variance: float) -> float:
    """Relative entropy per coordinate of N(0, variance) against the thermal state."""
    ratio = 2.0 * math.pi * variance
    return 0.5 * (ratio - 1.0 - math.log(ratio))


def gaussian_initial_entropy(init, params: GeneratorParams) -> float:
    """Exact relative entropy of a Gaussian initial condition; a custom law raises ValueError."""
    means, variances = init.gaussian(params)
    return float(sum(gaussian_kl_to_thermal(s) for s in variances) + math.pi * np.dot(means, means))


def decay_check(
    t_grid,
    estimates: list[EntropyEstimate],
    s0: float,
    params: GeneratorParams,
    rho: AngleDistribution | None = None,
) -> dict:
    """The entropy_report.json payload: per observation time, the verdict S_hat <= envelope * S0 + 3 SE + bias.

    Failures, a non-finite estimate or SE among them, become rows with "pass" false, not exceptions.
    The estimator settings are those of estimates[0], with "jittered" true if any estimate jittered.
    """
    if not len(estimates) == len(t_grid) >= 1:
        raise ValueError("one estimate per observation time required, for at least one time")
    bias_margin = BIAS_MARGIN_PER_DIM * params.dimension * params.M
    env = DecayEnvelope.from_params(params, rho)
    rows = []
    for t, est in zip(t_grid, estimates):
        d_t = env(float(t))
        bound = d_t * s0 + 3.0 * est.std_error + bias_margin
        passed = bool(np.isfinite([est.value, est.std_error]).all() and est.value <= bound)
        rows.append({"t": float(t), "S_hat": est.value, "SE": est.std_error, "envelope": d_t,
                     "bound": bound, "margin": bound - est.value, "pass": passed})
    jittered = {"jittered": True} if any(est.estimator.get("jittered") for est in estimates) else {}
    return {"S0": s0, "bias_margin": bias_margin, "estimator": {**estimates[0].estimator, **jittered}, "rows": rows,
            "pass": all(row["pass"] for row in rows)}
