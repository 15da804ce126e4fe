"""Closed-form second-moment evolution and the entropy-decay envelope.

A single averaged jump maps the pair (m1, m2) of per-coordinate second
moments (system, bath) linearly.  DecayEnvelope holds the four numbers of
that map: the system and bath weights M/(M+N) and N/(M+N), the relaxation
rate in time and the relaxing eigenvalue per jump; every closed form here
reads them from it.
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
        if not (self.m1 >= 0 and self.m2 >= 0):  # also rejects nan
            raise ValueError("second moments must be nonnegative")


@dataclass(frozen=True)
class DecayEnvelope:
    """Multiplicative entropy bound D(t) = w_sys + w_bath * exp(-rate * t).

    One jump averaged over pairs and angles fixes M*m1 + N*m2 and multiplies
    the gap m1 - m2 by per_jump, its relaxing eigenvalue; per_jump is None at
    zero total jump rate, where no jump happens.
    """

    weight_system: float
    weight_bath: float
    rate: float
    per_jump: float | None

    @classmethod
    def from_params(cls, params: GeneratorParams, rho: AngleDistribution | None = None) -> "DecayEnvelope":
        M, N = params.M, params.N
        lam = params.total_rate
        mu_eff = effective_coupling_rate(params, rho)
        return cls(
            weight_system=M / (N + M),
            weight_bath=N / (N + M),
            rate=mu_eff * (N + M) / N,
            per_jump=1.0 - (mu_eff / lam) * (1.0 + M / N) if lam > 0.0 else None,
        )

    def contraction(self, k: int) -> float:
        """Contraction factor after k averaged jumps; decays from 1 toward M/(M+N)."""
        if k < 0:
            raise ValueError("k must be nonnegative")
        if k == 0:  # the empty word needs no jump
            return self.weight_system + self.weight_bath
        if self.per_jump is None:
            raise ValueError("total jump rate is zero")
        return self.weight_system + self.weight_bath * self.per_jump ** k

    def __call__(self, t: float) -> float:
        if self.weight_bath < self.weight_system:
            warnings.warn("envelope derived under N >= M; evaluating it anyway", stacklevel=2)
        return self.weight_system + self.weight_bath * self.gap_decay(t)

    def gap_decay(self, t: float) -> float:
        """Factor exp(-rate * t) on m1 - m2 after time t; 1 at zero rate, t = inf included."""
        if not t >= 0:  # also rejects nan
            raise ValueError("t must be nonnegative")
        return math.exp(-self.rate * t) if self.rate > 0.0 else 1.0


def sum_rule_constant(k: int, params: GeneratorParams, rho: AngleDistribution | None = None) -> float:
    """Contraction factor after k averaged jumps (DecayEnvelope.contraction)."""
    return DecayEnvelope.from_params(params, rho).contraction(k)


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


def envelope_poisson_sum(t: float, params: GeneratorParams, rho: AngleDistribution | None = None) -> float:
    """Envelope as the Poisson-weighted sum of per-jump contraction factors.

    The Poisson weights start at the mode m = floor(lam_t) and follow the ratios
    p_(k+1) = p_k lam_t/(k+1) upward and p_(k-1) = p_k k/lam_t downward.  Away from
    the mode the ratios only shrink, so the mass beyond a term p with ratio r < 1
    is below p r/(1 - r); each side stops once that bound is below POISSON_TAIL/2.
    Since each factor lies in [-1, 1], the truncation error is below POISSON_TAIL.
    """
    if not 0.0 <= t < math.inf:
        raise ValueError("t must be finite and nonnegative")
    lam_t = params.total_rate * t
    if lam_t == 0.0:
        return 1.0  # no jumps: only the k = 0 term, whose factor is 1
    factor = DecayEnvelope.from_params(params, rho).contraction
    m = math.floor(lam_t)
    p_mode = math.exp(_log_poisson_mode(lam_t, m))
    total = p_mode * factor(m)
    for step in (1, -1):  # upward, then downward from the mode
        p, k = p_mode, m
        while k + step >= 0:
            ratio = lam_t / (k + 1) if step > 0 else k / lam_t
            if p * ratio <= 0.5 * POISSON_TAIL * (1.0 - ratio):  # never at ratio 1, the mode's own
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
    M, N = params.M, params.N
    a, b = m0.m1, m0.m2
    decay = DecayEnvelope.from_params(params, rho).gap_decay(t)
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
