"""Model parameters, scattering-angle laws, and single-collision kernels.

Velocities live in R^(d(M+N)) with d in {1, 3}; the heat bath occupies the
last N particle slots.  Units put the inverse temperature at 2*pi, so the
thermal state exp(-pi |v|^2) is a probability density with per-coordinate
variance 1/(2*pi).
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .quadrature import segment_quadrature

TWO_PI = 2.0 * math.pi
THERMAL_VARIANCE = 1.0 / TWO_PI

MASS_TOL = 1e-12
SINCOS_TOL = 1e-12

CDF_KNOTS = 2 ** 16  # inverse-CDF table resolution for continuous angle laws
DENSITY_SEGMENTS = 1024  # quadrature segments on [-pi, pi] for a callable density
_SPHERE_ROWS = 8192  # rows uniform_sphere draws and normalizes at once; the stream does not depend on it


class InvalidDistributionError(ValueError):
    """Angle distribution violates its sign, unit mass or the zero sin*cos moment."""


def _clip_nonnegative(values, what: str) -> np.ndarray:
    """A tabulated law's values as floats clipped at 0: a value negative beyond rounding, or nan, raises."""
    values = np.asarray(values, dtype=float)
    if not np.all(values >= -1e-12):
        raise InvalidDistributionError(f"{what} takes negative or NaN values (min {float(np.min(values))!r})")
    return np.clip(values, 0.0, None)


def _is_int(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


@dataclass(frozen=True)
class GeneratorParams:
    """Counts and collision rates of the system/bath pair process.

    lambda_S, lambda_R and mu are the per-particle scattering rates within
    the system, within the bath, and across, in units of 1/time.  Pair kinds
    are the integers 0 (system), 1 (bath) and 2 (cross), in the order of
    `kind_rates`.
    """

    M: int
    N: int
    lambda_S: float
    lambda_R: float
    mu: float
    dimension: int = 1

    def __post_init__(self):
        if not all(_is_int(n) for n in (self.M, self.N, self.dimension)):
            raise ValueError(f"M, N and dimension must be integers, got {self.M!r}, {self.N!r}, {self.dimension!r}")
        # comparing an int with a float is exact: an int past the float range fails here, not in float()
        if not (1 <= self.M <= sys.float_info.max and 1 <= self.N <= sys.float_info.max):
            raise ValueError("particle counts must be positive and within the float range")
        if not all(0 <= r <= sys.float_info.max for r in (self.lambda_S, self.lambda_R, self.mu)):
            raise ValueError("rates must be finite and nonnegative")
        if self.dimension not in (1, 3):
            raise ValueError("dimension must be 1 or 3")

    @property
    def n_particles(self) -> int:
        return self.M + self.N

    @property
    def kind_rates(self) -> tuple[float, float, float]:
        """Total jump rate contributed by each pair kind.

        Kinds with no population (M=1 or N=1) contribute zero instead of the
        nominal lambda*count/2, so degenerate counts stay simulable.
        """
        t_ss = self.lambda_S * self.M / 2.0 if self.M >= 2 else 0.0
        t_rr = self.lambda_R * self.N / 2.0 if self.N >= 2 else 0.0
        t_cross = self.mu * self.M
        return (t_ss, t_rr, t_cross)

    @property
    def total_rate(self) -> float:
        """Total jump intensity of the pair process."""
        return sum(self.kind_rates)

    @property
    def kind_probabilities(self) -> np.ndarray:
        lam = self.total_rate
        if lam <= 0.0:
            raise ValueError("total jump rate is zero; no events to attribute")
        return np.array(self.kind_rates) / lam

    def pair_weight(self, i: int, j: int) -> float:
        """Probability that a single jump picks the (1-based) pair i < j: its
        kind's probability, shared uniformly by the pairs of that kind."""
        if not 1 <= i < j <= self.n_particles:
            raise ValueError(f"need 1 <= i < j <= {self.n_particles}, got ({i}, {j})")
        kind = 0 if j <= self.M else 1 if i > self.M else 2
        n_pairs = (self.M * (self.M - 1) // 2, self.N * (self.N - 1) // 2, self.M * self.N)[kind]
        return float(self.kind_probabilities[kind]) / n_pairs

    @classmethod
    def classical_kac(cls, M: int, N: int, dimension: int = 1) -> "GeneratorParams":
        """All-pairs model with uniform pair rate 2/(M+N-1), split across kinds."""
        denom = M + N - 1
        return cls(
            M=M,
            N=N,
            lambda_S=2.0 * (M - 1) / denom,
            lambda_R=2.0 * (N - 1) / denom,
            mu=2.0 * N / denom,
            dimension=dimension,
        )


@dataclass(eq=False)
class AngleDistribution:
    """Law of the scattering angle on [-pi, pi].

    Either an atomic measure, the uniform density, or a continuous density
    given by a callable or a periodic linear-interpolation table.  Unit mass
    and a vanishing integral of sin*cos are enforced at construction.  A density
    is evaluated once, on CDF_KNOTS + 1 knots: each value must be nonnegative,
    and the clipped values give the inverse-CDF table that `sample` reads.
    """

    kind: str  # "uniform" | "atoms" | "density"
    atom_thetas: np.ndarray | None = None
    atom_weights: np.ndarray | None = None
    density: Callable[[np.ndarray], np.ndarray] | None = None
    _segments: np.ndarray | None = None
    _cdf: tuple[np.ndarray, np.ndarray] | None = field(init=False, default=None)
    sin2_moment: float = field(init=False, default=0.0)
    sincos_moment: float = field(init=False, default=0.0)

    def __post_init__(self):
        if self.kind == "density":
            knots = np.linspace(-math.pi, math.pi, CDF_KNOTS + 1)
            dens = _clip_nonnegative(self.density(knots), "density")
        mass = self.moment(lambda t: np.ones_like(t))
        if not abs(mass - 1.0) <= MASS_TOL:
            raise InvalidDistributionError(f"total mass {mass!r} differs from 1 beyond {MASS_TOL}")
        sincos = self.moment(lambda t: np.sin(t) * np.cos(t))
        if not abs(sincos) <= SINCOS_TOL:
            raise InvalidDistributionError(f"sin*cos moment {sincos!r} exceeds {SINCOS_TOL}")
        self.sincos_moment = sincos
        self.sin2_moment = self.moment(lambda t: np.sin(t) ** 2)
        if self.kind == "density":
            cdf = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) * 0.5 * np.diff(knots))])
            self._cdf = (knots, cdf / cdf[-1])

    # -- constructors ------------------------------------------------------

    @classmethod
    def uniform(cls) -> "AngleDistribution":
        return cls(kind="uniform")

    @classmethod
    def atoms(cls, pairs: Sequence[tuple[float, float]]) -> "AngleDistribution":
        thetas = np.array([t for t, _ in pairs], dtype=float)
        weights = np.array([p for _, p in pairs], dtype=float)
        if not np.all(np.isfinite(weights) & (weights >= 0)):
            raise InvalidDistributionError("atom weights must be finite and nonnegative")
        if not np.all(np.abs(thetas) <= math.pi + 1e-15):
            raise InvalidDistributionError("atoms must lie in [-pi, pi]")
        return cls(kind="atoms", atom_thetas=thetas, atom_weights=weights)

    @classmethod
    def half_pi_atoms(cls) -> "AngleDistribution":
        """Equal point masses at +pi/2 and -pi/2."""
        return cls.atoms([(math.pi / 2, 0.5), (-math.pi / 2, 0.5)])

    @classmethod
    def from_density(cls, fn: Callable[[np.ndarray], np.ndarray]) -> "AngleDistribution":
        return cls(kind="density", density=fn, _segments=np.linspace(-math.pi, math.pi, DENSITY_SEGMENTS + 1))

    @classmethod
    def from_table(cls, thetas: Sequence[float], values: Sequence[float]) -> "AngleDistribution":
        th = np.asarray(thetas, dtype=float)
        va = np.asarray(values, dtype=float)
        if th.ndim != 1 or th.shape != va.shape or len(th) < 2:
            raise InvalidDistributionError("table needs matching 1-D thetas/values with >= 2 knots")
        if not np.all(np.diff(th) > 0):
            raise InvalidDistributionError("table thetas must be strictly increasing")
        if not np.all(np.abs(th) <= math.pi + 1e-15):  # the moments span the knots, the sampler [-pi, pi]
            raise InvalidDistributionError("table thetas must lie in [-pi, pi]")
        va = _clip_nonnegative(va, "table density")
        edges = np.unique(np.concatenate([[-math.pi], th, [math.pi]]))
        return cls(kind="density", density=partial(np.interp, xp=th, fp=va, period=TWO_PI), _segments=edges)

    # -- moments and Fourier data -------------------------------------------

    def moment(self, fn: Callable[[np.ndarray], np.ndarray]) -> float:
        """Integral of fn against the angle law."""
        if self.kind == "uniform":
            edges = np.linspace(-math.pi, math.pi, 513)
            return segment_quadrature(lambda t: fn(t) / TWO_PI, edges)
        if self.kind == "atoms":
            return float(np.sum(self.atom_weights * fn(self.atom_thetas)))
        return segment_quadrature(lambda t: fn(t) * self.density(t), self._segments)

    def fourier_coefficient(self, m: int) -> complex:
        """Coefficient (1/(2 pi)) * integral of exp(-i m theta) against the law."""
        if self.kind == "uniform":
            return complex(1.0 / TWO_PI) if m == 0 else 0.0j
        if self.kind == "atoms":
            return complex(np.sum(self.atom_weights * np.exp(-1j * m * self.atom_thetas)) / TWO_PI)
        re = self.moment(lambda t: np.cos(m * t)) / TWO_PI
        im = self.moment(lambda t: -np.sin(m * t)) / TWO_PI
        return complex(re, im)

    # -- sampling ------------------------------------------------------------

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.kind == "uniform":
            return rng.uniform(-math.pi, math.pi, size)
        if self.kind == "atoms":
            idx = rng.choice(len(self.atom_thetas), size=size, p=self.atom_weights)
            return self.atom_thetas[idx]
        knots, cdf = self._cdf
        return np.interp(rng.random(size), cdf, knots)


def effective_coupling_rate(params: GeneratorParams, rho: AngleDistribution | None = None) -> float:
    """Cross-collision rate times the mean squared sine of the scattering angle.

    This is the base rate of the entropy envelope; in three dimensions the
    angle average is the constant 1/3.
    """
    if params.dimension == 3:
        return params.mu / 3.0
    if rho is None:
        raise ValueError("an angle distribution is required in dimension 1")
    return params.mu * rho.sin2_moment


def collide(z: np.ndarray, lanes: np.ndarray, i: np.ndarray, j: np.ndarray, param: np.ndarray) -> None:
    """Apply one collision to each of the given batch lanes of z, in place.

    z is a C-contiguous array of shape (n, d, r, B), batch axis last: n particle
    blocks of d coordinates, each carrying r columns (r=1 for velocity states,
    r>1 for the columns of word matrices), in B lanes.  lanes, i and j have shape
    (m,): lane lanes[e], distinct within a call, collides the 0-based particles
    i[e] and j[e]; every other lane is left untouched.  In d=1, param (2, m) holds
    the cos c and sin s of the angle and the pair rotates, (v_i, v_j) ->
    (c v_i + s v_j, c v_j - s v_i).  In d=3, param (3, m) holds unit axes w and the
    pair exchanges its axis components: g = (w0 x0 + w1 x1) + w2 x2 for
    x = v_i - v_j, then v_i -= g w and v_j += g w.  The pair's entries are
    gathered and scattered through flat element indices, i * stride + lanes, so
    each ufunc runs one loop over the m lanes.
    """
    if not z.flags.c_contiguous:
        raise ValueError("collide needs a C-contiguous array to update in place")
    n, d, r, batch = z.shape
    flat = z.reshape(-1)
    stride = d * r * batch  # elements per particle block
    fi = i * stride  # built in place: each numpy call is a GIL hand-off between worker threads
    fi += lanes
    fj = j * stride
    fj += lanes
    if d * r > 1:
        rows = np.arange(d * r)[:, None] * batch
        fi, fj = rows + fi, rows + fj
    zi = flat[fi]
    zj = flat[fj]
    if d == 1:
        c, s = param
        t = c * zi
        t += s * zj
        u = c * zj
        u -= s * zi
        flat[fi] = t
        flat[fj] = u
    else:
        x = (zi - zj).reshape(3, r, -1)
        g = param[0] * x[0]
        g += param[1] * x[1]
        g += param[2] * x[2]
        corr = np.multiply(param[:, None, :], g, out=x).reshape(3 * r, -1)
        zi -= corr
        zj += corr
        flat[fi] = zi
        flat[fj] = zj


def uniform_sphere(rng: np.random.Generator, size: int) -> np.ndarray:
    """Uniform points on the unit sphere, shape (size, 3).

    The normals are drawn and normalized _SPHERE_ROWS rows at a time, in row order, so the
    stream is that of one (size, 3) draw; rows too short to normalize are then redrawn all
    at once, in index order, until none is left."""
    x = np.empty((size, 3))
    short = [np.empty(0, np.intp)]
    for s in range(0, size, _SPHERE_ROWS):
        block = x[s:s + _SPHERE_ROWS]
        block[...] = rng.normal(size=block.shape)
        short.append(s + np.flatnonzero(_normalize_rows(block)))
    redo = np.concatenate(short)
    while redo.size:
        fresh = rng.normal(size=(redo.size, 3))
        still_short = _normalize_rows(fresh)
        x[redo] = fresh
        redo = redo[still_short]
    return x


def _normalize_rows(x: np.ndarray) -> np.ndarray:
    """Divide the rows of x, shape (n, 3), in place by their norms (x0^2 + x1^2) + x2^2
    (np.linalg.norm's order), except rows with norm below 1e-12; return the mask of those."""
    norms = np.multiply(x[:, 0], x[:, 0])
    sq = np.multiply(x[:, 1], x[:, 1])
    norms += sq
    norms += np.multiply(x[:, 2], x[:, 2], out=sq)
    np.sqrt(norms, out=norms)
    short = norms < 1e-12
    if short.any():
        norms[short] = 1.0  # left for the redraw
    x /= norms[:, None]
    return short


def sample_pair_kinds(params: GeneratorParams, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw event kinds 0 (system), 1 (bath), 2 (cross) with the jump-chain law."""
    cum = np.cumsum(params.kind_probabilities)
    u = rng.random(size)
    above = u >= cum[1]
    # the number of cum[0], cum[1] at or below u, written over u's own buffer:
    # a u past a rounded cum[2] < 1 stays kind 2
    kinds = np.greater_equal(u, cum[0], out=u.view(np.int64))
    return np.add(kinds, above, out=kinds)


def _member_index(rng: np.random.Generator, size: int, population: np.ndarray) -> np.ndarray:
    """Uniform 0-based indices below `population` (floats, overwritten): each
    uniform u, drawn here, becomes min(u * population, population - 1) truncated,
    in u's own buffer."""
    x = rng.random(size)
    x *= population
    population -= 1.0
    np.minimum(x, population, out=x)
    index = x.view(np.int64)
    index[...] = x  # truncation toward zero, element by element in place
    return index


def sample_pairs_array(
    params: GeneratorParams, rng: np.random.Generator, size: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized jump-chain pair draw; returns 0-based (i, j) arrays and kinds."""
    M, N = params.M, params.N
    kinds = sample_pair_kinds(params, rng, size)
    # Uniform unordered pair within its kind (system, bath, cross): first member
    # uniform, second uniform over its population, shifted past the first in one.
    a = _member_index(rng, size, np.array([M, N, M], dtype=float)[kinds])
    b = _member_index(rng, size, np.array([max(M - 1, 1), max(N - 1, 1), N], dtype=float)[kinds])
    b += (b >= a) & np.array([True, True, False])[kinds]
    a += np.array([0, M, 0])[kinds]
    b += np.array([0, M, M])[kinds]
    hi = np.maximum(a, b)
    return np.minimum(a, b, out=a), hi, kinds


def rotation_rows(thetas: np.ndarray) -> np.ndarray:
    """The d=1 `collide` parameters of angles of shape S: cos and sin in one (2, *S) array."""
    rows = np.empty((2, *np.shape(thetas)))
    np.cos(thetas, out=rows[0])
    np.sin(thetas, out=rows[1])
    return rows


def sample_collisions(
    params: GeneratorParams, rho: AngleDistribution | None, rng: np.random.Generator, size: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """`size` i.i.d. jump-chain collisions as `collide` takes them: the pairs (0-based i, j and
    kinds, as `sample_pairs_array`), then the angles from rho as (2, size) `rotation_rows` in d=1
    or (3, size) unit axes in d=3.  The engine and the sum rule both draw through here."""
    if params.dimension == 1 and rho is None:
        raise ValueError("an angle distribution is required in dimension 1")
    i, j, kinds = sample_pairs_array(params, rng, size)
    param = rotation_rows(rho.sample(rng, size)) if params.dimension == 1 else uniform_sphere(rng, size).T
    return i, j, kinds, param
