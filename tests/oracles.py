"""Scalar reference implementations that only the tests use: one collision on
one velocity vector, and the Gaussian L^p norm in one dimension."""
import math

import numpy as np

from kacbath.model import PairIndex
from kacbath.quadrature import gaussian_tensor_rule


def rotate_pair_1d(z: np.ndarray, pair: PairIndex, theta: float) -> np.ndarray:
    """Rotate the (i, j) velocity plane by theta; other coordinates untouched."""
    out = np.array(z, dtype=float)
    i, j = pair.i - 1, pair.j - 1
    c, s = math.cos(theta), math.sin(theta)
    vi, vj = out[i], out[j]
    out[i] = vi * c + vj * s
    out[j] = vj * c - vi * s
    return out


def collide_pair_3d(z: np.ndarray, pair: PairIndex, omega: np.ndarray) -> np.ndarray:
    """Exchange the omega-component of the relative velocity of the pair.

    Conserves the pair's momentum and kinetic energy and is an involution.
    """
    omega = np.asarray(omega, dtype=float)
    if abs(float(np.linalg.norm(omega)) - 1.0) > 1e-12:
        raise ValueError("omega must be a unit vector")
    out = np.array(z, dtype=float)
    i, j = pair.i - 1, pair.j - 1
    g = float(np.dot(omega, out[i] - out[j]))
    out[i] = out[i] - g * omega
    out[j] = out[j] + g * omega
    return out


def gaussian_norm_1d(h, p: float, order: int = 96) -> float:
    x, w = gaussian_tensor_rule(order, 1)
    return float(np.dot(np.abs(h(x[:, 0])) ** p, w) ** (1.0 / p))
