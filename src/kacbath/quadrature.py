"""Quadrature for the angle-law moments and the integral checks.

The 1-D Gauss-Legendre and Gauss-Hermite rules are numpy's (`leggauss`,
`hermgauss`), looked up at the call so that importing this module does not
load `numpy.polynomial`; this module tensorizes and segments them.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np


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


def segment_quadrature(fn, edges: np.ndarray) -> float:
    """Integrate fn over [edges[0], edges[-1]] with the 12-point Gauss-Legendre rule per segment."""
    x, w = np.polynomial.legendre.leggauss(12)
    edges = np.asarray(edges, dtype=float)
    a = edges[:-1]
    b = edges[1:]
    mid = 0.5 * (a + b)[:, None]
    half = 0.5 * (b - a)[:, None]
    pts = mid + half * x[None, :]
    vals = np.asarray(fn(pts.ravel()), dtype=float).reshape(pts.shape)
    return float(np.sum(vals * w[None, :] * half))
