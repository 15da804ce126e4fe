"""Numerical checks of the functional inequalities behind the entropy bound.

The Nelson, Brascamp-Lieb and dual checks integrate with Gauss-Hermite rules
in Gaussian-weighted form (weight exp(-pi |x|^2), unit mass); each verdict is
recomputed at twice the quadrature order and the pair must agree before a
PASS/FAIL is reported. Their integrands must be nonnegative: a negative value
at a quadrature point raises ValueError instead of giving a verdict. The
heat-flow check uses Gaussian factors only, so their flow and the joint
integral Phi(t) are closed forms and need no rule.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .quadrature import gaussian_tensor_rule

MARGIN_TOL = -1e-8
SENSITIVITY_TOL = 1e-6
LOG_FLOOR = 1e-300
DATUM_TOL = 1e-10  # on B B^T = I per map and on the weighted resolution of the identity
HEAT_FLOW_LIMIT_TIME = 50.0  # flow time whose joint integral stands in for the t -> inf limit
HEAT_FLOW_SLOPE_TOL = -1e-6  # least secant slope of Phi accepted as nondecreasing
HEAT_FLOW_LIMIT_REL_TOL = 0.02

Profile = Callable[[np.ndarray], np.ndarray]  # a function's values at an array of points


def _eval_factor(fn, pts: np.ndarray) -> np.ndarray:
    """Values of a check's integrand at points of shape (n, d), as a flat array; on R^0
    (d = 0) it is a constant, evaluated once.  A negative or nan value raises ValueError."""
    if pts.shape[1] == 0:
        vals = np.full(pts.shape[0], float(np.asarray(fn(pts[:1])).ravel()[0]))
    else:
        vals = np.asarray(fn(pts), dtype=float).ravel()
    if not np.all(vals >= 0.0):
        raise ValueError(f"integrand must be nonnegative, got {float(np.min(vals))!r} at a quadrature point")
    return vals


def gaussian_average(fn, order: int, dim: int) -> float:
    """Integral of a nonnegative fn on R^dim against the unit Gaussian weight, by the
    tensor Gauss-Hermite rule of the given order."""
    pts, wts = gaussian_tensor_rule(order, dim)
    return float(np.dot(_eval_factor(fn, pts), wts))


def _entropy_sum(values: np.ndarray, weights: np.ndarray) -> float:
    """Quadrature sum of v log v for nonnegative values v, with 0 log 0 := 0."""
    return float(np.dot(values * np.log(np.where(values > 0, values, 1.0)), weights))


def ou_apply(h: Profile, t: float, order: int = 64) -> Profile:
    """Ornstein-Uhlenbeck average: contract toward 0 by e^-t, refill with Gaussian noise.

    The average takes points of any shape and keeps it, so averages nest.
    Preserves the Gaussian-weighted mass of h; constants are fixed points.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    if t == 0.0:
        return h
    decay = math.exp(-t)
    spread = math.sqrt(1.0 - decay * decay)
    nodes, wts = gaussian_tensor_rule(order, 1)
    nodes = nodes[:, 0]

    def evolved(x):
        flat = np.ravel(x)
        return (h(decay * flat[:, None] + spread * nodes[None, :]) @ wts).reshape(np.shape(x))

    return evolved


@dataclass(frozen=True)
class InequalityCheck:
    """Margin of an inequality at two quadrature orders, with agreed verdict."""

    margin: float
    margin_coarse: float
    passed: bool
    inconclusive: bool


def _two_order_verdict(margin_fn: Callable[[int], float], order: int) -> InequalityCheck:
    """Two-order rule: inconclusive if the verdicts differ or the margin moved past the sensitivity tolerance."""
    m_coarse = margin_fn(order)
    m_fine = margin_fn(2 * order)
    verdict_fine = m_fine >= MARGIN_TOL
    inconclusive = bool(
        (m_coarse >= MARGIN_TOL) != verdict_fine
        or abs(m_fine - m_coarse) > max(SENSITIVITY_TOL, 1e-6 * abs(m_fine))
    )
    return InequalityCheck(
        margin=m_fine,
        margin_coarse=m_coarse,
        passed=bool(verdict_fine and not inconclusive),
        inconclusive=inconclusive,
    )


def entropic_nelson_check(h: Profile, t: float, order: int = 96) -> InequalityCheck:
    """Margin of the entropic contraction of the OU average.

    The entropy of the evolved profile must stay below the e^(-2t) blend of
    the original entropy and the mass-only baseline.
    """

    def margin_at(q: int) -> float:
        pts, wts = gaussian_tensor_rule(q, 1)
        hv = _eval_factor(h, pts)
        mass = float(np.dot(hv, wts))
        s_evolved = _entropy_sum(_eval_factor(ou_apply(h, t, order=q), pts), wts)
        blend = math.exp(-2.0 * t)
        return blend * _entropy_sum(hv, wts) + (1.0 - blend) * mass * math.log(mass) - s_evolved

    return _two_order_verdict(margin_at, order)


@dataclass
class BLDatum:
    """Weighted co-isometries resolving the identity: sum c_i B_i^T B_i = I."""

    maps: list[np.ndarray]
    weights: np.ndarray

    def __post_init__(self):
        self.maps = [np.atleast_2d(np.asarray(b, dtype=float)) for b in self.maps]
        self.weights = np.asarray(self.weights, dtype=float)

    @property
    def ambient_dim(self) -> int:
        return self.maps[0].shape[1]

    @property
    def dims(self) -> np.ndarray:
        return np.array([b.shape[0] for b in self.maps])

    def identity_defect(self) -> float:
        m = self.ambient_dim
        acc = np.zeros((m, m))
        for b, c in zip(self.maps, self.weights, strict=True):
            acc += c * b.T @ b
        return float(np.max(np.abs(acc - np.eye(m))))

    def validate(self) -> None:
        if np.any(self.weights < 0):
            raise ValueError("weights must be nonnegative")
        for b in self.maps:
            d = b.shape[0]
            if d and np.max(np.abs(b @ b.T - np.eye(d))) > DATUM_TOL:
                raise ValueError("a map fails B B^T = I on its range")
        defect = self.identity_defect()
        if defect > DATUM_TOL:
            raise ValueError(f"weighted maps miss the identity by {defect!r}")


def bl_inequality_check(
    datum: BLDatum, functions: Sequence, order: int = 24
) -> InequalityCheck:
    """Product-of-marginals bound: Gaussian average of prod f_i^c_i (B_i v) vs marginals.

    Margin is (product of marginal integrals) minus the joint integral;
    nonnegative whenever the datum resolves the identity.
    """
    m = datum.ambient_dim
    if m > 3:
        raise ValueError("tensor quadrature is capped at ambient dimension 3")

    def margin_at(q: int) -> float:
        pts, wts = gaussian_tensor_rule(q, m)
        joint = np.ones(len(pts))
        rhs = 1.0
        for b, c, fn in zip(datum.maps, datum.weights, functions, strict=True):
            joint *= _eval_factor(fn, pts @ b.T) ** c
            rhs *= gaussian_average(fn, q, b.shape[0]) ** c
        return rhs - float(np.dot(joint, wts))

    return _two_order_verdict(margin_at, order)


def entropy_dual_check(
    datum: BLDatum, functions: Sequence, h, order: int = 24
) -> InequalityCheck:
    """Dual form: entropy of h dominates the weighted marginal log-averages."""
    m = datum.ambient_dim
    if m > 3:
        raise ValueError("tensor quadrature is capped at ambient dimension 3")

    def margin_at(q: int) -> float:
        pts, wts = gaussian_tensor_rule(q, m)
        hv = _eval_factor(h, pts)
        hv = hv / float(np.dot(hv, wts))
        bound = 0.0
        floored = False
        for b, c, fn in zip(datum.maps, datum.weights, functions, strict=True):
            vals = _eval_factor(fn, pts @ b.T)
            if np.any(vals < LOG_FLOOR):
                floored = True
                vals = np.clip(vals, LOG_FLOOR, None)
            term = float(np.dot(hv * np.log(vals), wts))
            bound += c * (term - math.log(gaussian_average(fn, q, b.shape[0])))
        if floored:
            warnings.warn("marginal factor floored at 1e-300 inside a log", stacklevel=3)
        return _entropy_sum(hv, wts) - bound

    return _two_order_verdict(margin_at, order)


@dataclass(frozen=True)
class HeatFlowFunction:
    """Gaussian marginal factor scale * exp(-decay |u - center|^2), decay and scale positive.

    The heat flow of such a factor is again one, so `heat_evolve`, the
    marginal mass and the joint integral are all closed forms.
    """

    decay: float
    center: tuple[float, ...]
    scale: float

    def __post_init__(self):
        if not (self.decay > 0 and self.scale > 0):
            raise ValueError("decay rate and scale must be positive")

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        diff = np.atleast_2d(pts) - np.asarray(self.center)[None, :]
        return self.scale * np.exp(-self.decay * np.sum(diff * diff, axis=1))

    @classmethod
    def gaussian(cls, a: float, center: np.ndarray | float = 0.0, scale: float = 1.0) -> "HeatFlowFunction":
        center = np.atleast_1d(np.asarray(center, dtype=float))
        return cls(decay=a, center=tuple(center.tolist()), scale=scale)


def heat_evolve(f: HeatFlowFunction, dim: int, t: float) -> HeatFlowFunction:
    """Heat-kernel smoothing at time t of a factor on R^dim, in closed form.

    Convolving with the kernel (4 pi t)^(-dim/2) exp(-|u|^2 / 4t) keeps the
    center and divides the decay rate by 1 + 4 decay t; the scale shrinks by
    that factor to the power dim/2, so the Lebesgue mass is conserved.
    """
    spread = 1.0 + 4.0 * f.decay * t
    return HeatFlowFunction(decay=f.decay / spread, center=f.center, scale=f.scale * spread ** (-dim / 2.0))


def _lebesgue_marginal_integral(f: HeatFlowFunction, dim: int) -> float:
    return f.scale * (math.pi / f.decay) ** (dim / 2.0)


def _joint_integral(datum: BLDatum, factors: Sequence[HeatFlowFunction]) -> float:
    """Lebesgue integral over R^m of prod_i f_i(B_i x)^c_i for Gaussian factors.

    The exponent is -x^T Q x + 2 b^T x - sum_i c_i a_i |x_i|^2 with
    Q = sum_i c_i a_i B_i^T B_i and b = sum_i c_i a_i B_i^T x_i, so the integral
    is prod_i s_i^c_i pi^(m/2) det(Q)^(-1/2) exp(b^T Q^-1 b - sum_i c_i a_i |x_i|^2).
    Q >= min_i a_i I because the datum resolves the identity; maps with no rows
    add nothing to Q or b and contribute s_i^c_i.
    """
    m = datum.ambient_dim
    q = np.zeros((m, m))
    b = np.zeros(m)
    log_phi = 0.5 * m * math.log(math.pi)
    for bmap, c, f in zip(datum.maps, datum.weights, factors, strict=True):
        center = np.asarray(f.center)
        q += c * f.decay * bmap.T @ bmap
        b += c * f.decay * bmap.T @ center
        log_phi += c * (math.log(f.scale) - f.decay * float(center @ center))
    _, logdet = np.linalg.slogdet(q)
    return math.exp(log_phi - 0.5 * logdet + float(b @ np.linalg.solve(q, b)))


@dataclass(frozen=True)
class HeatFlowResult:
    lhs: np.ndarray
    finite_differences: np.ndarray
    rhs: float
    limit_value: float
    limit_relative_error: float
    passed: bool


def heat_flow_monotonicity_check(
    datum: BLDatum,
    functions: Sequence[HeatFlowFunction],
    t_grid: Sequence[float],
) -> HeatFlowResult:
    """Transport the marginal factors by heat flow and track the joint integral.

    The unweighted joint integral, exact at each flow time, must be
    nondecreasing on the grid (its secant slopes stay above HEAT_FLOW_SLOPE_TOL)
    and, at HEAT_FLOW_LIMIT_TIME, be within HEAT_FLOW_LIMIT_REL_TOL of the
    product of the (flow-invariant) marginal masses.
    """
    t_grid = np.asarray(sorted(t_grid), dtype=float)
    if np.any(t_grid <= 0):
        raise ValueError("flow times must be positive")
    rhs = math.prod(
        _lebesgue_marginal_integral(f, d) ** c for f, d, c in zip(functions, datum.dims, datum.weights, strict=True)
    )
    phi = np.array([
        _joint_integral(datum, [heat_evolve(f, d, t) for f, d in zip(functions, datum.dims)])
        for t in (*t_grid, HEAT_FLOW_LIMIT_TIME)
    ])
    fd = np.diff(phi[:-1]) / np.diff(t_grid)
    rel_err = abs(phi[-1] - rhs) / abs(rhs)
    return HeatFlowResult(
        lhs=phi[:-1],
        finite_differences=fd,
        rhs=rhs,
        limit_value=float(phi[-1]),
        limit_relative_error=rel_err,
        passed=bool(np.all(fd >= HEAT_FLOW_SLOPE_TOL) and rel_err <= HEAT_FLOW_LIMIT_REL_TOL),
    )


def nelson_fixture_suite() -> list[Profile]:
    """Twenty strictly positive, polynomially bounded test profiles on the line."""

    def bump(a: float, center: float):
        return lambda x: np.exp(-a * (x - center) ** 2)

    def polynomial_bump(coeffs: Sequence[float]):  # 0.1 + p(x)^2
        poly = np.polynomial.Polynomial(list(coeffs))
        return lambda x: 0.1 + poly(x) ** 2

    fixtures = [bump(a, center) for a, center in [(0.5, 0.0), (1.0, 0.0), (2.0, 0.0), (math.pi, 0.0),
                                                  (0.5, 0.7), (1.0, -0.6), (2.0, 0.4), (1.5, 1.0)]]
    fixtures += [polynomial_bump(coeffs) for coeffs in [(1.0,), (0.0, 1.0), (1.0, 1.0), (0.5, 0.0, 1.0),
                                                        (0.0, 1.0, 0.5), (1.0, -1.0), (0.2, 0.3, -0.4)]]
    fixtures += [
        lambda x: np.full_like(x, 1.0),
        lambda x: np.full_like(x, 2.5),
        lambda x: 1.0 + 0.5 * np.sin(x) ** 2,
        lambda x: np.exp(-0.8 * x * x) + 0.3,
        lambda x: 1.0 / (1.0 + x * x) + 0.1,
    ]
    assert len(fixtures) == 20
    return fixtures
