"""Reference implementations that only the tests use: one collision on one
velocity vector, the Gaussian L^p norm in one dimension, the Gaussian marginal
check of a word's blocks, and frozen copies of the collision, angle and initial
draws and of the sphere rule's construction loop."""
import math
from dataclasses import dataclass

import numpy as np

from kacbath.quadrature import gaussian_tensor_rule, tensor_rule


def rotate_pair_1d(z: np.ndarray, i: int, j: int, theta: float) -> np.ndarray:
    """Rotate the velocity plane of the 1-based pair (i, j) by theta; other coordinates untouched."""
    out = np.array(z, dtype=float)
    i, j = i - 1, j - 1
    c, s = math.cos(theta), math.sin(theta)
    vi, vj = out[i], out[j]
    out[i] = vi * c + vj * s
    out[j] = vj * c - vi * s
    return out


def collide_pair_3d(z: np.ndarray, i: int, j: int, omega: np.ndarray) -> np.ndarray:
    """Exchange the omega-component of the relative velocity of the 1-based pair (i, j).

    Conserves the pair's momentum and kinetic energy and is an involution.
    """
    omega = np.asarray(omega, dtype=float)
    if abs(float(np.linalg.norm(omega)) - 1.0) > 1e-12:
        raise ValueError("omega must be a unit vector")
    out = np.array(z, dtype=float)
    i, j = i - 1, j - 1
    g = float(np.dot(omega, out[i] - out[j]))
    out[i] = out[i] - g * omega
    out[j] = out[j] + g * omega
    return out


def gaussian_norm_1d(h, p: float, order: int = 96) -> float:
    x, w = gaussian_tensor_rule(order, 1)
    return float(np.dot(np.abs(h(x[:, 0])) ** p, w) ** (1.0 / p))


def _psd_sqrt(mat: np.ndarray, clamp: float = 1e-10) -> np.ndarray:
    vals, vecs = np.linalg.eigh(mat)
    if np.any(vals < -clamp):
        raise ValueError(f"matrix not positive semidefinite (eigenvalue {vals.min()!r})")
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T


@dataclass(frozen=True)
class MarginalCheckResult:
    max_residual: float
    reliable: bool


def gaussian_marginal_check(
    a: np.ndarray,
    b: np.ndarray,
    h,
    order: int = 12,
    v_points: np.ndarray | None = None,
) -> MarginalCheckResult:
    """Check that averaging h(Av + Bw) over a thermal w equals the reduced form.

    The reduced form replaces B by the symmetric square root of I - A A^T,
    collapsing the bath integral to system dimension.  h must be vectorized
    over points of shape (n, M).  The result is flagged unreliable when
    doubling the quadrature order moves the residual by more than 1e-6.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n_res = a.shape[0], b.shape[1]
    defect = np.max(np.abs(a @ a.T + b @ b.T - np.eye(m)))
    if defect > 1e-10:
        raise ValueError(f"blocks violate A A^T + B B^T = I by {defect!r}")
    if v_points is None:
        axis = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
        v_points, _ = tensor_rule(axis, np.ones_like(axis), m)
    sqrt_rest = _psd_sqrt(np.eye(m) - a @ a.T)

    def residual(q: int) -> float:
        wpts, wwts = gaussian_tensor_rule(q, n_res)
        upts, uwts = gaussian_tensor_rule(q, m)
        av = v_points @ a.T
        lhs_args = av[:, None, :] + (wpts @ b.T)[None, :, :]
        rhs_args = av[:, None, :] + (upts @ sqrt_rest.T)[None, :, :]
        nv = len(v_points)
        lhs = h(lhs_args.reshape(-1, m)).reshape(nv, -1) @ wwts
        rhs = h(rhs_args.reshape(-1, m)).reshape(nv, -1) @ uwts
        return float(np.max(np.abs(lhs - rhs)))

    res = residual(order)
    res2 = residual(2 * order)
    return MarginalCheckResult(
        max_residual=res2,
        reliable=bool(abs(res2 - res) <= 1e-6),
    )


# Frozen copies of the collision draws as first written, with a temporary per
# step; the in-place draws in `kacbath.model` must return the same bits.

def uniform_sphere_reference(rng: np.random.Generator, size: int) -> np.ndarray:
    x = rng.normal(size=(size, 3))
    while True:
        norms = np.sqrt((x[:, 0] * x[:, 0] + x[:, 1] * x[:, 1]) + x[:, 2] * x[:, 2])
        bad = norms < 1e-12
        if not bad.any():
            x /= norms[:, None]
            return x
        x[bad] = rng.normal(size=(int(bad.sum()), 3))


def inverse_cdf_sample_reference(density, rng: np.random.Generator, size: int) -> np.ndarray:
    """Frozen draw of a continuous angle law as its sampler made it when the inverse-CDF table
    was built lazily, at the first draw: the density clipped on 2^16 + 1 knots, trapezoid sums."""
    knots = np.linspace(-math.pi, math.pi, 2 ** 16 + 1)
    dens = np.clip(density(knots), 0.0, None)
    cdf = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) * 0.5 * np.diff(knots))])
    cdf /= cdf[-1]
    return np.interp(rng.random(size), cdf, knots)


def sample_pair_kinds_reference(params, rng: np.random.Generator, size: int) -> np.ndarray:
    cum = np.cumsum(params.kind_probabilities)
    u = rng.random(size)
    return (u >= cum[0]).astype(np.int64) + (u >= cum[1])


def sample_pairs_array_reference(params, rng: np.random.Generator, size: int):
    M, N = params.M, params.N
    kinds = sample_pair_kinds_reference(params, rng, size)
    u1 = rng.random(size)
    u2 = rng.random(size)
    size_a = np.array([M, N, M], dtype=float)[kinds]
    size_b = np.array([max(M - 1, 1), max(N - 1, 1), N], dtype=float)[kinds]
    a = np.minimum(u1 * size_a, size_a - 1).astype(np.int64)
    b = np.minimum(u2 * size_b, size_b - 1).astype(np.int64)
    b += np.array([1, 1, 0])[kinds] & (b >= a)
    a += np.array([0, M, 0])[kinds]
    b += np.array([0, M, M])[kinds]
    return np.minimum(a, b), np.maximum(a, b), kinds


def gaussian_system_block_reference(kind: str, params, rng: np.random.Generator, size: int,
                                    s=1.0 / (2.0 * math.pi), s_hot=None, s_cold=None, n_hot=None,
                                    mean=None) -> np.ndarray:
    """Frozen copy of the per-kind Gaussian initial draw of the system block,
    as written when `InitialCondition` dispatched on a kind string."""
    d, M = params.dimension, params.M
    if kind == "two_temperature":
        hot = n_hot if n_hot is not None else (M + 1) // 2
        variances = np.full(d * M, s_cold)
        variances[: d * hot] = s_hot
    else:  # thermal, gaussian_product, shifted_gaussian
        variances = np.full(d * M, s)
    means = np.asarray(mean, dtype=float) if kind == "shifted_gaussian" else np.zeros(d * M)
    return means + rng.normal(size=(size, d * M)) * np.sqrt(variances)


def sphere_quadrature_reference(polar_order: int, azimuthal_count: int) -> tuple[np.ndarray, np.ndarray]:
    """Frozen per-polar-node loop that built `build_sphere_quadrature`'s nodes and weights."""
    u, w = np.polynomial.legendre.leggauss(polar_order)
    phis = np.pi * np.arange(2 * azimuthal_count) / azimuthal_count
    sin_theta = np.sqrt(1.0 - u * u)
    cos_phi, sin_phi = np.cos(phis), np.sin(phis)
    nodes = np.empty((polar_order * 2 * azimuthal_count, 3))
    weights = np.empty(len(nodes))
    for i in range(polar_order):
        sl = slice(i * 2 * azimuthal_count, (i + 1) * 2 * azimuthal_count)
        nodes[sl, 0] = sin_theta[i] * cos_phi
        nodes[sl, 1] = sin_theta[i] * sin_phi
        nodes[sl, 2] = u[i]
        weights[sl] = w[i] / (4.0 * azimuthal_count)
    return nodes, weights
