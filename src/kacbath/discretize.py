"""Discrete angle and sphere measures with spectral exactness guarantees.

The angle construction smooths a law with the order-2K Fejer kernel and
samples the resulting trigonometric polynomial on the 4K+1 uniform grid,
which reproduces its Fourier coefficients through order 2K exactly.  The
sphere rule tensorizes numpy's Gauss-Legendre rule in the polar cosine with
a uniform azimuthal grid.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .model import TWO_PI, AngleDistribution

WEIGHT_TOL = 1e-12


class MeasureConstructionError(RuntimeError):
    """Smoothed density came out negative beyond rounding at a grid node."""


@dataclass(frozen=True)
class FejerSmoothedDensity:
    """Trigonometric polynomial of degree 2K obtained by Fejer smoothing.

    Coefficient m of the input is damped by (1 - |m|/(2K+1)) and cut beyond
    |m| = 2K; the result is a nonnegative density of unit mass.
    """

    K: int
    coefficients: np.ndarray  # index m = -2K ... 2K

    def coefficient(self, m: int) -> complex:
        if abs(m) > 2 * self.K:
            return 0.0j
        return complex(self.coefficients[m + 2 * self.K])

    def __call__(self, theta: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        ms = np.arange(-2 * self.K, 2 * self.K + 1)
        values = np.tensordot(np.exp(1j * np.outer(theta, ms)), self.coefficients, axes=([-1], [0]))
        return np.real(values)


def fejer_smooth(rho: AngleDistribution, K: int) -> FejerSmoothedDensity:
    """Convolve the angle law with the order-K Fejer kernel."""
    if K < 1:
        raise ValueError("K must be >= 1")
    ms = np.arange(-2 * K, 2 * K + 1)
    damp = 1.0 - np.abs(ms) / (2 * K + 1)
    coeffs = np.array([rho.fourier_coefficient(int(m)) for m in ms], dtype=complex) * damp
    return FejerSmoothedDensity(K=K, coefficients=coeffs)


@dataclass(frozen=True)
class DiscreteAngleMeasure:
    """Atomic angle law on the 4K+1 uniform grid matching the smoothed law.

    `law` is an `AngleDistribution` of kind "atoms" whose Fourier coefficients
    agree with the Fejer-smoothed density through order 2K, so unit mass and
    the vanishing sin*cos moment carry over exactly.
    """

    law: AngleDistribution
    smoothed: FejerSmoothedDensity
    fourier_hypothesis_ok: bool = True

    @property
    def K(self) -> int:
        return self.smoothed.K


def build_discrete_angle_measure(rho: AngleDistribution, K: int) -> DiscreteAngleMeasure:
    """Atomic measure on 4K+1 grid points whose low Fourier modes match rho's.

    Valid for any input law; the spectral-matching argument formally needs an
    absolutely convergent Fourier series, so atomic inputs are flagged via
    `fourier_hypothesis_ok=False` (the construction itself still goes through).
    """
    smoothed = fejer_smooth(rho, K)
    n = 4 * K + 1
    ells = np.arange(-2 * K, 2 * K + 1)
    thetas = TWO_PI * ells / n
    values = smoothed(thetas)
    if np.any(values < -WEIGHT_TOL):
        raise MeasureConstructionError(
            f"smoothed density negative at a grid node (min {values.min()!r})"
        )
    weights = np.clip(values, 0.0, None) * (TWO_PI / n)
    hypothesis_ok = rho.kind != "atoms"
    if not hypothesis_ok:
        warnings.warn(
            "discrete input: spectral matching is used outside its Fourier-series hypothesis",
            stacklevel=2,
        )
    law = AngleDistribution.atoms(list(zip(thetas, weights)))
    return DiscreteAngleMeasure(law=law, smoothed=smoothed, fourier_hypothesis_ok=hypothesis_ok)


@dataclass(frozen=True)
class SphereQuadrature:
    """Product rule on the unit sphere: Gauss-Legendre polar x uniform azimuthal.

    Node i * 2K + j sits at polar cosine u_i (the order-L Gauss-Legendre
    nodes) and azimuth phi_j = pi j / K, j < 2K, with weight w_i / (4K): the
    polar weights w_i sum to 2, so the rule has mass 1, and quadrating in the
    polar cosine absorbs the sin(theta) Jacobian.
    """

    polar_order: int  # L
    azimuthal_count: int  # K
    nodes: np.ndarray  # (2KL, 3) unit vectors
    weights: np.ndarray  # (2KL,)

    @property
    def mass(self) -> float:
        return float(np.sum(self.weights))

    def second_moment(self) -> np.ndarray:
        """Weighted sum of omega omega^T; equals I/3 for orders >= 2."""
        return np.einsum("n,ni,nj->ij", self.weights, self.nodes, self.nodes)


def build_sphere_quadrature(polar_order: int, azimuthal_count: int) -> SphereQuadrature:
    """Discrete measure on the sphere exact for low-degree polynomial moments."""
    if polar_order < 2 or azimuthal_count < 2:
        raise ValueError("polar order and azimuthal count must both be >= 2")
    u, w = np.polynomial.legendre.leggauss(polar_order)
    phis = np.pi * np.arange(2 * azimuthal_count) / azimuthal_count
    sin_theta = np.sqrt(1.0 - u * u)
    nodes = np.column_stack([np.outer(sin_theta, np.cos(phis)).ravel(), np.outer(sin_theta, np.sin(phis)).ravel(),
                             np.repeat(u, 2 * azimuthal_count)])
    weights = np.repeat(w / (4.0 * azimuthal_count), 2 * azimuthal_count)
    return SphereQuadrature(polar_order=polar_order, azimuthal_count=azimuthal_count, nodes=nodes, weights=weights)
