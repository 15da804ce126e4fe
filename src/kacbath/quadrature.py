"""Gauss-Legendre and Gauss-Hermite rules backing the measure constructions and integral checks."""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np


class RootFindingError(RuntimeError):
    """Newton iteration for Legendre roots failed to converge."""


def legendre_value_and_derivative(order: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate P_L and P_L' by the three-term recurrence."""
    x = np.asarray(x, dtype=float)
    if order == 0:
        return np.ones_like(x), np.zeros_like(x)
    p_prev = np.ones_like(x)
    p = x.copy()
    for n in range(2, order + 1):
        p_prev, p = p, ((2 * n - 1) * x * p - (n - 1) * p_prev) / n
    # (1 - x^2) P_L'(x) = L (P_{L-1}(x) - x P_L(x)); endpoints get the closed form
    denom = 1.0 - x * x
    interior = denom != 0.0
    dp = np.empty_like(p)
    dp[interior] = order * (p_prev[interior] - x[interior] * p[interior]) / denom[interior]
    edge = 0.5 * order * (order + 1)
    dp[~interior] = edge * np.sign(x[~interior]) ** (order + 1)
    return p, dp


def gauss_legendre(order: int, tol: float = 1e-14, max_iter: int = 100) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights for integration of polynomials on [-1, 1].

    Roots of P_L are found by Newton iteration started from the Chebyshev
    angles; raises RootFindingError instead of returning a degraded rule.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    k = np.arange(1, order + 1)
    x = np.cos(np.pi * (4 * k - 1) / (4 * order + 2))
    converged = False
    for _ in range(max_iter):
        p, dp = legendre_value_and_derivative(order, x)
        dx = p / dp
        x = x - dx
        if np.max(np.abs(dx)) <= tol:
            converged = True
            break
    if not converged:
        raise RootFindingError(f"Legendre root search did not reach {tol} in {max_iter} iterations")
    _, dp = legendre_value_and_derivative(order, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    idx = np.argsort(x)
    return x[idx], w[idx]


def gauss_hermite_gaussian(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights for integrals against the unit-mass weight exp(-pi x^2)."""
    x, w = np.polynomial.hermite.hermgauss(order)
    return x / math.sqrt(math.pi), w / math.sqrt(math.pi)


def tensor_rule(nodes: np.ndarray, weights: np.ndarray, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensorize a 1-D rule; returns points of shape (n^dim, dim) and their weights."""
    if dim == 0:
        return np.zeros((1, 0)), np.ones(1)
    grids = np.meshgrid(*([nodes] * dim), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    wts = np.ones(len(pts))
    for wgrid in np.meshgrid(*([weights] * dim), indexing="ij"):
        wts *= wgrid.ravel()
    return pts, wts


@lru_cache(maxsize=None)
def gaussian_tensor_rule(order: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """`gauss_hermite_gaussian(order)` tensorized to `dim` dimensions, built once per
    (order, dim); the cached arrays are shared, so they are returned read-only."""
    pts, wts = tensor_rule(*gauss_hermite_gaussian(order), dim)
    pts.flags.writeable = False
    wts.flags.writeable = False
    return pts, wts


def segment_quadrature(fn, edges: np.ndarray, order: int = 12) -> float:
    """Integrate fn over [edges[0], edges[-1]] with a fixed Gauss rule per segment."""
    x, w = gauss_legendre(order)
    edges = np.asarray(edges, dtype=float)
    a = edges[:-1]
    b = edges[1:]
    mid = 0.5 * (a + b)[:, None]
    half = 0.5 * (b - a)[:, None]
    pts = mid + half * x[None, :]
    vals = np.asarray(fn(pts.ravel()), dtype=float).reshape(pts.shape)
    return float(np.sum(vals * w[None, :] * half))
