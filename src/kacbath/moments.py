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


def _log_poisson_mode(lam_t: float, m: int) -> float:
    """log P(K = m) for K ~ Poisson(lam_t) at its mode m = floor(lam_t).

    From m = 100 on, log Gamma(m + 1) is written as Stirling's series, so that the
    two terms of size m log m cancel exactly: with delta = (lam_t - m)/m,
    log P = m (log1p(delta) - delta) - log(2 pi m)/2 - 1/(12m) + 1/(360m^3) - 1/(1260m^5),
    whose omitted remainder is below 1/(1680 m^7) < 1e-17.  Below 100 every term
    is under 500 and the direct form loses under 1e-13.
    """
    if m < 100:
        return -lam_t + m * math.log(lam_t) - math.lgamma(m + 1)
    delta = (lam_t - m) / m
    series = 1.0 / (12.0 * m) - 1.0 / (360.0 * m ** 3) + 1.0 / (1260.0 * m ** 5)
    return m * (math.log1p(delta) - delta) - 0.5 * math.log(2.0 * math.pi * m) - series


def envelope_poisson_sum(
    t: float,
    params: GeneratorParams,
    rho: AngleDistribution | None = None,
    tail: float = POISSON_TAIL,
) -> float:
    """Envelope as the Poisson-weighted sum of per-jump contraction factors.

    The Poisson weights start at the mode m = floor(lam_t) and follow the ratios
    p_(k+1) = p_k lam_t/(k+1) upward and p_(k-1) = p_k k/lam_t downward.  Away from
    the mode the ratios only shrink, so the mass beyond a term p with ratio r < 1
    is below p r/(1 - r); each side stops once that bound is below tail/2.  Since
    each factor lies in [-1, 1], the truncation error is below `tail`.
    """
    if not 0.0 <= t < math.inf:
        raise ValueError("t must be finite and nonnegative")
    lam_t = params.total_rate * t
    if lam_t == 0.0:
        return 1.0  # no jumps: only the k = 0 term, whose factor is 1
    M, N = params.M, params.N
    ell2 = MomentUpdateMatrix.from_params(params, rho).eigenvalues[1]

    def factor(k: int) -> float:
        return M / (N + M) + (N / (N + M)) * ell2 ** k

    m = math.floor(lam_t)
    p_mode = math.exp(_log_poisson_mode(lam_t, m))
    total = p_mode * factor(m)
    for step in (1, -1):  # upward, then downward from the mode
        p, k = p_mode, m
        while k + step >= 0:
            ratio = lam_t / (k + 1) if step > 0 else k / lam_t
            if p * ratio <= 0.5 * tail * (1.0 - ratio):  # never at ratio 1, the mode's own
                break
            p *= ratio
            k += step
            total += p * factor(k)
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
