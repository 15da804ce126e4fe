"""Products of random pair collisions and the structure of their system block.

A word of k collisions realizes an orthogonal matrix on R^(d(M+N)); the
top-left block A of its inverse controls how the system marginal mixes with
the bath.  This module realizes words given as pair and parameter arrays
(random words come from `model.sample_collisions`), decomposes A,
Monte Carlo-estimates the averaged sum rule E[A A^T] = c_k I, and enumerates
the weighted projection data that satisfy the geometric sum rule exactly.
A batch of words is realized batch-last, as `model.collide` takes it: one
(d*n, cols, B) array with one lane per word.  The sum rule forms A A^T on that
layout, one column of A at a time over all words, in the pairing of numpy's
batched product so that its bits are kept (`_gram_batch_last`).  At k=8, with
20000 words drawn at a time, the sum rule's numpy allocations peak at about 48
bytes per drawn collision in d=1 (M,N)=(2,4) and 55 in d=3 (1,2), most of it
the draw.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .discretize import SphereQuadrature
from .inequalities import BLDatum
from .model import (
    AngleDistribution,
    GeneratorParams,
    collide,
    rotation_rows,
    sample_collisions,
)
from .moments import sum_rule_constant

GAMMA_CLAMP = 1e-10
MAX_BL_TERMS = 10 ** 6  # cap on the (word, subset) terms build_bl_datum enumerates
_DRAW_WORDS = 20000  # words mc_sum_rule draws at once; part of the random stream, as engine._CHUNK is
_SLICE_WORDS = 1024  # words mc_sum_rule realizes at once: 1.5 MB in d=3 (2,8), within a 2 MB L2


def sum_rule_bytes(params: GeneratorParams, n_words: int, k: int) -> int:
    """Bytes of mc_sum_rule's largest buffer: one draw of words of k collisions at 64 bytes a collision
    (more than the peaks the module docstring gives), its float64 products or one float64 realize slice."""
    dm, b = params.dimension * params.M, min(n_words, _DRAW_WORDS)
    return max(64 * b * k, 8 * dm * b * dm, 8 * dm * params.dimension * params.n_particles * _SLICE_WORDS)


@dataclass(frozen=True, eq=False)
class SingularSpectrum:
    """Singular value decomposition A = U diag(gammas) V^T with gammas in [0, 1]."""

    gammas: np.ndarray
    u: np.ndarray
    vt: np.ndarray


def realize_inverse_1d(i0: np.ndarray, j0: np.ndarray, thetas: np.ndarray, n: int) -> np.ndarray:
    """Inverse matrices of words given by 0-based pair arrays of shape (B, k)."""
    w = _realize_inverse(i0, j0, rotation_rows(thetas), n, 1)
    return np.ascontiguousarray(w.transpose(2, 0, 1))


def realize_inverse_3d(i0: np.ndarray, j0: np.ndarray, omegas: np.ndarray, n: int) -> np.ndarray:
    """Same as realize_inverse_1d for exchange collisions along unit axes.

    omegas has shape (B, k, 3); each collision is its own inverse, acting on
    the two 3-coordinate blocks of the pair.
    """
    w = _realize_inverse(i0, j0, np.moveaxis(omegas, -1, 0), n, 3)
    return np.ascontiguousarray(w.transpose(2, 0, 1))


def _realize_inverse(i0: np.ndarray, j0: np.ndarray, param: np.ndarray, n: int, d: int,
                     cols: int | None = None) -> np.ndarray:
    """Inverse words on the first `cols` columns (default all) of identity matrices, batch-last
    as (d*n, cols, B); each column is operated on alone, so the bits are the full matrix's.
    The words come as `collide` takes them, pairs (B, k) and parameters (2 or 3, B, k).  Each
    collision applies in word order with its pair swapped: bit for bit the rotation by -theta
    in d=1 (x - y is x + (-y)), the same exchange in d=3 (a - b is -(b - a))."""
    batch, k = i0.shape
    cols = cols or d * n
    w = np.zeros((d * n, cols, batch))
    w[np.arange(cols), np.arange(cols)] = 1.0
    blocks = w.reshape(n, d, cols, batch)
    lanes = np.arange(batch)
    for step in range(k):
        collide(blocks, lanes, j0[:, step], i0[:, step], param[:, :, step])
    return w


def decompose(inv: np.ndarray, dm: int) -> SingularSpectrum:
    """Singular spectrum of the system block A = inv[:dm, :dm] of an inverse word matrix,
    dm = d*M being the number of system coordinates."""
    u, gammas, vt = np.linalg.svd(inv[:dm, :dm])
    if np.any(gammas > 1.0 + GAMMA_CLAMP):
        raise ValueError(f"singular value {gammas.max()!r} above 1 beyond clamp tolerance")
    gammas = np.clip(gammas, 0.0, 1.0)
    return SingularSpectrum(gammas=gammas, u=u, vt=vt)


def sigma_subset_weights(gammas: np.ndarray) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """All coordinate subsets sigma with weights prod gamma^2 (off sigma) * (1-gamma^2) (on sigma).

    The weights sum to 1 and, summed against the complement projectors,
    rebuild diag(gammas^2).
    """
    m = len(gammas)
    g2 = np.asarray(gammas, dtype=float) ** 2
    subsets: list[tuple[int, ...]] = []
    weights = np.empty(2 ** m)
    for mask in range(2 ** m):
        sigma = tuple(i for i in range(m) if mask >> i & 1)
        w = 1.0
        for i in range(m):
            w *= (1.0 - g2[i]) if (mask >> i & 1) else g2[i]
        subsets.append(sigma)
        weights[mask] = w
    return subsets, weights


@dataclass(frozen=True, eq=False)
class SumRuleEstimate:
    """Monte Carlo average of A A^T against its predicted multiple of the identity."""

    z_hat: np.ndarray
    std_error: np.ndarray
    predicted: float
    max_deviation: float
    max_offdiagonal: float
    passed: bool


def mc_sum_rule(
    k: int,
    params: GeneratorParams,
    rho: AngleDistribution | None,
    n_words: int,
    rng: np.random.Generator,
) -> SumRuleEstimate:
    """Estimate E[A A^T] over random words and compare with the sum-rule constant.

    Words are drawn _DRAW_WORDS at a time and realized _SLICE_WORDS at a time, carrying
    only the d*M system columns: the outputs are those of the full matrices, bit for bit.
    """
    if n_words < 2:
        raise ValueError("n_words must be >= 2: one word has no standard error")
    predicted = sum_rule_constant(k, params, rho)  # raises for a missing angle law in d=1
    dm = params.dimension * params.M
    total = np.zeros((dm, dm))
    total_sq = np.zeros((dm, dm))
    done = 0
    while done < n_words:
        b = min(_DRAW_WORDS, n_words - done)
        aat = _word_products(k, params, rho, rng, b)
        total += aat.sum(axis=0)
        total_sq += np.square(aat, out=aat).sum(axis=0)
        del aat  # not held through the next chunk's draw
        done += b
    z_hat = total / n_words
    var = (total_sq - n_words * z_hat * z_hat) / (n_words - 1)
    se = np.sqrt(np.clip(var, 0.0, None) / n_words)
    target = predicted * np.eye(dm)
    dev = np.abs(z_hat - target)
    off = np.abs(z_hat - np.diag(np.diag(z_hat)))
    passed = bool(np.all(dev <= 4.0 * se + 1e-15))
    return SumRuleEstimate(
        z_hat=z_hat,
        std_error=se,
        predicted=predicted,
        max_deviation=float(dev.max()),
        max_offdiagonal=float(off.max()),
        passed=passed,
    )


def _word_products(k: int, params: GeneratorParams, rho: AngleDistribution | None,
                   rng: np.random.Generator, b: int) -> np.ndarray:
    """A A^T, shape (b, d*M, d*M), of b random words of k collisions, realized
    _SLICE_WORDS words at a time."""
    d, n, dm = params.dimension, params.n_particles, params.dimension * params.M
    if k == 0:  # the empty word realizes to the identity
        out = np.empty((b, dm, dm))
        out[:] = np.eye(dm)
        return out
    i0, j0, kinds, param = sample_collisions(params, rho, rng, b * k)
    del kinds  # the words need none: free them before realizing
    i0 = i0.reshape(b, k)
    j0 = j0.reshape(b, k)
    param = param.reshape(-1, b, k)
    out = np.empty((b, dm, dm))
    for s in range(0, b, _SLICE_WORDS):
        sl = slice(s, s + _SLICE_WORDS)
        w = _realize_inverse(i0[sl], j0[sl], param[:, sl], n, d, dm)
        _gram_batch_last(w[:dm], out[sl])
    return out


def _gram_batch_last(a: np.ndarray, out: np.ndarray) -> None:
    """A A^T of the batch-last system blocks a, shape (dm, dm, B), written into out, (B, dm, dm).

    The sum over j runs in two running sums from 0.0, one over even and one over odd j,
    added at the end.  numpy's batched product of (B, dm, dm) blocks pairs a sum of 1 to 7
    terms that way, one running sum per lane of its 128-bit baseline vector, so for
    dm <= 7 the bits are its bits, signed zeros included.  From dm = 8 numpy unrolls
    wider, and the last bits may differ."""
    dm, _, batch = a.shape
    lanes = np.zeros((2, dm, dm, batch))
    for j in range(dm):
        lanes[j % 2] += a[:, j, None, :] * a[None, :, j, :]
    np.add(lanes[0], lanes[1], out=out.transpose(1, 2, 0))


def _atomic_parameters(measure) -> tuple[np.ndarray, np.ndarray, int]:
    """Atoms of an atomic angle law or a sphere rule as `collide` takes them, (2 or 3, A),
    their weights and the dimension."""
    if isinstance(measure, SphereQuadrature):
        return measure.nodes.T, measure.weights, 3
    if isinstance(measure, AngleDistribution) and measure.kind == "atoms":
        return rotation_rows(measure.atom_thetas), measure.atom_weights, 1
    raise TypeError("need an atomic angle law (a discrete angle measure's .law) or a sphere rule")


def build_bl_datum(k: int, params: GeneratorParams, measure) -> BLDatum:
    """Enumerate the weighted projections generated by words of length k.

    Every (word, subset) contributes the map P_(sigma^c) U^T with weight
    lambda-weights times atom weights times the subset's gamma factors,
    normalized by the sum-rule constant so the maps resolve the identity.
    """
    atoms, atom_weights, d = _atomic_parameters(measure)
    if d != params.dimension:
        raise ValueError("measure dimension does not match params.dimension")
    dm = d * params.M
    n = params.n_particles
    pair_list = [
        (i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
        if params.pair_weight(i, j) > 0.0
    ]
    n_terms = (len(pair_list) * atoms.shape[1]) ** k * 2 ** dm
    if n_terms > MAX_BL_TERMS:
        raise ValueError(f"enumeration would produce {n_terms} terms (limit {MAX_BL_TERMS})")
    c_km = sum_rule_constant(k, params, measure if isinstance(measure, AngleDistribution) else None)
    maps: list[np.ndarray] = []
    weights: list[float] = []
    for pair_choice in itertools.product(range(len(pair_list)), repeat=k):
        lam_weight = math.prod(params.pair_weight(*pair_list[p]) for p in pair_choice)
        i0 = np.array([[pair_list[p][0] - 1 for p in pair_choice]], dtype=np.int64)
        j0 = np.array([[pair_list[p][1] - 1 for p in pair_choice]], dtype=np.int64)
        for atom_choice in itertools.product(range(atoms.shape[1]), repeat=k):
            w_word = lam_weight * math.prod(float(atom_weights[a]) for a in atom_choice)
            if w_word == 0.0:
                continue
            inv = _realize_inverse(i0, j0, atoms[:, None, list(atom_choice)], n, d)[:, :, 0]
            spectrum = decompose(inv, dm)
            subsets, subset_w = sigma_subset_weights(spectrum.gammas)
            for sigma, sw in zip(subsets, subset_w):
                c = w_word * sw / c_km
                if c == 0.0:
                    continue
                keep = [i for i in range(dm) if i not in sigma]
                maps.append(spectrum.u.T[keep, :])
                weights.append(c)
    datum = BLDatum(maps=maps, weights=np.array(weights))
    datum.validate()
    return datum
