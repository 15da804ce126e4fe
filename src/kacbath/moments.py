"""Closed-form second-moment evolution and the entropy-decay envelope.

A single averaged jump maps the pair (m1, m2) of per-coordinate second
moments (system, bath) linearly; everything here is elementary algebra on
that 2x2 update matrix.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .model import AngleDistribution, GeneratorParams, effective_coupling_rate

POISSON_TAIL = 1e-12


@dataclass(frozen=True)
class MomentPair:
    """Per-coordinate second moments of the system (m1) and bath (m2)."""

    m1: float
    m2: float

    def __post_init__(self):
        if self.m1 < 0 or self.m2 < 0:
            raise ValueError("second moments must be nonnegative")


@dataclass(frozen=True)
class MomentUpdateMatrix:
    """2x2 map applied to (m1, m2) by one jump averaged over pairs and angles.

    Row-stochastic with eigenvalue 1 on the equal-moment line (1, 1); the
    second eigenvalue controls relaxation toward energy equipartition.
    """

    coupling: float  # off-diagonal transfer fraction, mu_eff / Lambda
    ratio: float  # M / N

    @classmethod
    def from_params(cls, params: GeneratorParams, rho: AngleDistribution | None = None) -> "MomentUpdateMatrix":
        lam = params.total_rate
        if lam <= 0.0:
            raise ValueError("total jump rate is zero")
        mu_eff = effective_coupling_rate(params, rho)
        return cls(coupling=mu_eff / lam, ratio=params.M / params.N)

    @property
    def matrix(self) -> np.ndarray:
        a = self.coupling
        b = self.coupling * self.ratio
        return np.array([[1.0 - a, a], [b, 1.0 - b]])

    @property
    def eigenvalues(self) -> tuple[float, float]:
        return (1.0, 1.0 - self.coupling * (1.0 + self.ratio))

    def apply(self, moments: MomentPair) -> MomentPair:
        # Difference form keeps the equal-moment line exactly fixed.
        m1, m2 = moments.m1, moments.m2
        gap = m2 - m1
        return MomentPair(m1 + self.coupling * gap, m2 - self.coupling * self.ratio * gap)


def sum_rule_constant(k: int, params: GeneratorParams, rho: AngleDistribution | None = None) -> float:
    """Contraction factor after k averaged jumps; decays from 1 toward M/(M+N)."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    M, N = params.M, params.N
    ell2 = MomentUpdateMatrix.from_params(params, rho).eigenvalues[1]
    return M / (N + M) + (N / (N + M)) * ell2 ** k


@dataclass(frozen=True)
class DecayEnvelope:
    """Multiplicative entropy bound D(t) = w_sys + w_bath * exp(-rate * t)."""

    weight_system: float
    weight_bath: float
    rate: float

    @classmethod
    def from_params(cls, params: GeneratorParams, rho: AngleDistribution | None = None) -> "DecayEnvelope":
        if params.N < params.M:
            warnings.warn(
                "envelope derived under N >= M; evaluating it anyway", stacklevel=2
            )
        M, N = params.M, params.N
        mu_eff = effective_coupling_rate(params, rho)
        return cls(
            weight_system=M / (N + M),
            weight_bath=N / (N + M),
            rate=mu_eff * (N + M) / N,
        )

    def __call__(self, t: float) -> float:
        if t < 0:
            raise ValueError("t must be nonnegative")
        return self.weight_system + self.weight_bath * math.exp(-self.rate * t)


def envelope(t: float, params: GeneratorParams, rho: AngleDistribution | None = None) -> float:
    """Entropy-decay envelope at time t (closed form)."""
    return DecayEnvelope.from_params(params, rho)(t)


def envelope_poisson_sum(
    t: float,
    params: GeneratorParams,
    rho: AngleDistribution | None = None,
    tail: float = POISSON_TAIL,
) -> float:
    """Envelope as the Poisson-weighted sum of per-jump contraction factors.

    Truncated once the remaining Poisson tail mass drops below `tail`; since
    each factor lies in [-1, 1] the truncation error is below that mass.
    """
    if not 0.0 <= t < math.inf:
        raise ValueError("t must be finite and nonnegative")
    lam_t = params.total_rate * t
    if lam_t == 0.0:
        return 1.0  # no jumps: only the k = 0 term, whose factor is 1
    M, N = params.M, params.N
    ell2 = MomentUpdateMatrix.from_params(params, rho).eigenvalues[1]
    log_lam_t = math.log(lam_t)
    total = 0.0
    cumulative = 0.0
    # The left tail bound P(k) <= exp(-(lam_t - k)^2 / (2 lam_t)) puts every earlier
    # term below e^-800, which math.exp rounds to 0.0: skipping them changes no bit.
    k = max(0, math.floor(lam_t - 40.0 * math.sqrt(lam_t)))
    while cumulative < 1.0 - tail:
        p = math.exp(-lam_t + k * log_lam_t - math.lgamma(k + 1))
        c_k = M / (N + M) + (N / (N + M)) * ell2 ** k
        total += p * c_k
        cumulative += p
        k += 1
        if k > lam_t + 60.0 * math.sqrt(lam_t + 1.0) + 1000:
            # Bernstein's bound puts the Poisson mass beyond this k below e^-1590, so
            # `cumulative` can fall short of 1 - tail here only by rounding (lam_t >~ 1e5).
            break
    return total


def propagate_moments(
    m0: MomentPair,
    t: float,
    params: GeneratorParams,
    rho: AngleDistribution | None = None,
) -> MomentPair:
    """Second moments at time t from the eigen-decomposition of the jump update.

    M*m1 + N*m2 is conserved; the gap m1 - m2 decays exponentially at the
    envelope rate.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    M, N = params.M, params.N
    a, b = m0.m1, m0.m2
    rate = effective_coupling_rate(params, rho) * (M + N) / N
    decay = math.exp(-rate * t)
    center = (M * a + N * b) / (M + N)
    # convex-combination form: exact at t = 0 and nonnegative in floats
    m1 = a * decay + center * (1.0 - decay)
    m2 = b * decay + center * (1.0 - decay)
    return MomentPair(m1, m2)


def fit_decay_rate(ts: np.ndarray, values: np.ndarray, limit: float) -> float:
    """Least-squares exponential rate of values(t) - limit over the given times."""
    ts = np.asarray(ts, dtype=float)
    gaps = np.asarray(values, dtype=float) - limit
    if np.any(gaps <= 0):
        raise ValueError("values must stay above the limit for a log-linear fit")
    slope = np.polyfit(ts, np.log(gaps), 1)[0]
    return -float(slope)
