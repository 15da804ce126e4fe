import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kacbath import (
    AngleDistribution,
    GeneratorParams,
    build_bl_datum,
    build_discrete_angle_measure,
    decompose,
    mc_sum_rule,
    sigma_subset_weights,
    sum_rule_constant,
)
from kacbath.engine import trajectory_rng
from kacbath.model import rotation_rows, sample_collisions, sample_pairs_array, uniform_sphere
from kacbath.words import _realize_inverse, realize_inverse_1d, realize_inverse_3d
from tests.oracles import gaussian_marginal_check, rotate_pair_1d


def _random_word(k, params, rho, rng):
    """One word of k collisions: its pairs, parameters (2 or 3, k) and realized inverse matrix."""
    i0, j0, _, param = sample_collisions(params, rho, rng, k)
    pairs = [(int(i) + 1, int(j) + 1) for i, j in zip(i0, j0)]
    inv = _realize_inverse(i0[None], j0[None], param[:, None], params.n_particles, params.dimension)[:, :, 0]
    return pairs, param, inv


def _orthogonality_defect(inv):
    return float(np.max(np.abs(inv @ inv.T - np.eye(inv.shape[0]))))


def test_empty_word_is_identity(params24, uniform_rho, rng):
    _, _, inv = _random_word(0, params24, uniform_rho, rng)
    assert np.array_equal(inv, np.eye(6))
    spectrum = decompose(inv, 2)
    assert np.array_equal(inv[:2, :2], np.eye(2))
    assert np.allclose(spectrum.gammas, 1.0)


def test_long_word_orthogonality(params24, uniform_rho, rng):
    _, _, inv = _random_word(50, params24, uniform_rho, rng)
    assert _orthogonality_defect(inv) < 1e-12
    spectrum = decompose(inv, 2)
    a, b = inv[:2, :2], inv[:2, 2:]
    assert np.max(np.abs(a @ a.T + b @ b.T - np.eye(2))) < 1e-12
    assert np.all(spectrum.gammas >= 0.0) and np.all(spectrum.gammas <= 1.0)
    assert np.max(np.abs(spectrum.u @ np.diag(spectrum.gammas) @ spectrum.vt - a)) < 1e-12


def test_disjoint_rotations_commute():
    i0 = np.array([[0, 2]])
    j0 = np.array([[1, 3]])
    thetas = np.array([[0.7, -1.2]])
    forward = realize_inverse_1d(i0, j0, thetas, 4)[0]
    swapped = realize_inverse_1d(i0[:, ::-1], j0[:, ::-1], thetas[:, ::-1], 4)[0]
    assert np.max(np.abs(forward - swapped)) < 1e-15


def test_single_cross_rotation_spectrum():
    # a single system/bath rotation leaves one singular value at |cos theta|
    theta = 0.83
    p = GeneratorParams(M=2, N=2, lambda_S=1, lambda_R=1, mu=1)
    inv = realize_inverse_1d(np.array([[0]]), np.array([[2]]), np.array([[theta]]), 4)[0]
    spectrum = decompose(inv, p.dimension * p.M)
    assert sorted(np.round(spectrum.gammas, 12).tolist()) == sorted(
        np.round([1.0, abs(math.cos(theta))], 12).tolist()
    )


def test_single_system_rotation_keeps_unit_spectrum(params24, rng):
    inv = realize_inverse_1d(np.array([[0]]), np.array([[1]]), np.array([[1.1]]), 6)[0]
    spectrum = decompose(inv, 2)
    assert np.allclose(spectrum.gammas, 1.0, atol=1e-14)
    assert np.max(np.abs(inv[:2, 2:])) == 0.0


def test_realize_matches_kernel_application(params24, uniform_rho, rng):
    # applying the inverse word matrix equals composing the collision maps backwards
    pairs, (c, s), inv = _random_word(6, params24, uniform_rho, rng)
    thetas = np.arctan2(s, c)
    z = rng.normal(size=6)
    out = z.copy()
    # the realized matrix is the product in word order, so the last factor acts first
    for pair, theta in zip(reversed(pairs), reversed(thetas)):
        out = rotate_pair_1d(out, *pair, theta)
    assert np.max(np.abs(inv.T @ z - out)) < 1e-12


def test_realize_3d_orthogonal(rng):
    p = GeneratorParams(M=1, N=2, lambda_S=0, lambda_R=1, mu=1, dimension=3)
    _, _, inv = _random_word(7, p, None, rng)
    assert _orthogonality_defect(inv) < 1e-12
    spectrum = decompose(inv, 3)
    assert inv[:3, :3].shape == (3, 3)
    assert np.all(spectrum.gammas <= 1.0)


@settings(max_examples=100, deadline=None)
@given(gammas=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6))
def test_sigma_weights_sum_to_one(gammas):
    _, weights = sigma_subset_weights(np.array(gammas))
    assert abs(weights.sum() - 1.0) < 1e-12


def test_sigma_weights_exact_rational():
    gammas = [Fraction(1, 2), Fraction(3, 5), Fraction(1, 7)]
    total = Fraction(0)
    for mask in range(8):
        term = Fraction(1)
        for i, g in enumerate(gammas):
            term *= (1 - g * g) if (mask >> i) & 1 else g * g
        total += term
    assert total == 1


def test_sigma_weights_collapse_to_squared_gammas(rng):
    gammas = rng.random(4)
    subsets, weights = sigma_subset_weights(gammas)
    acc = np.zeros((4, 4))
    for sigma, w in zip(subsets, weights):
        proj = np.diag([0.0 if i in sigma else 1.0 for i in range(4)])
        acc += w * proj
    assert np.max(np.abs(acc - np.diag(gammas ** 2))) < 1e-12


# -------------------------------------------------------------- sum rule MC


def test_mc_sum_rule_k0_exact(params24, uniform_rho, rng):
    est = mc_sum_rule(0, params24, uniform_rho, 100, rng)
    assert est.max_deviation == 0.0
    assert est.predicted == 1.0
    assert est.passed


def test_mc_sum_rule_matches_constant(params24, uniform_rho):
    est = mc_sum_rule(3, params24, uniform_rho, 30000, trajectory_rng(11, 3))
    assert est.passed
    assert est.max_offdiagonal <= 4 * est.std_error.max() + 1e-15


def test_mc_sum_rule_3d_matches_corollary():
    p = GeneratorParams(M=1, N=2, lambda_S=0.0, lambda_R=1.0, mu=1.0, dimension=3)
    est = mc_sum_rule(2, p, None, 30000, trajectory_rng(12, 2))
    expected = 1.0 / 3.0 + (2.0 / 3.0) * (1.0 - (1.0 / 6.0) * 1.5) ** 2
    assert est.predicted == pytest.approx(expected, abs=1e-15)
    assert est.passed


def test_mc_sum_rule_error_shrinks_with_samples(params24, uniform_rho):
    small = mc_sum_rule(2, params24, uniform_rho, 4000, trajectory_rng(13, 0))
    large = mc_sum_rule(2, params24, uniform_rho, 16000, trajectory_rng(13, 1))
    ratio = large.std_error.max() / small.std_error.max()
    assert ratio < 0.65  # ~ n^(-1/2): quadrupling samples halves the error


@pytest.mark.parametrize("n_words", [0, 1])
def test_mc_sum_rule_needs_two_words(params24, uniform_rho, rng, n_words):
    with pytest.raises(ValueError, match="n_words must be >= 2"):
        mc_sum_rule(2, params24, uniform_rho, n_words, rng)


def test_mc_sum_rule_needs_rho_in_dimension_1(params24, rng):
    for k in (0, 2):
        with pytest.raises(ValueError, match="angle distribution is required in dimension 1"):
            mc_sum_rule(k, params24, None, 10, rng)


@pytest.mark.parametrize("d", [1, 3])
def test_column_limited_realizer_is_first_columns_of_full(d, uniform_rho):
    rng = trajectory_rng(15, d)
    n, batch, k = 10, 7, 9
    i0, j0, _ = sample_pairs_array(GeneratorParams(M=2, N=8, lambda_S=1, lambda_R=1, mu=1), rng, batch * k)
    i0, j0 = i0.reshape(batch, k), j0.reshape(batch, k)
    if d == 1:
        param = uniform_rho.sample(rng, batch * k).reshape(batch, k)
        full = realize_inverse_1d(i0, j0, param, n)
    else:
        param = uniform_sphere(rng, batch * k).reshape(batch, k, 3)
        full = realize_inverse_3d(i0, j0, param, n)
    rows = rotation_rows(param) if d == 1 else param.transpose(2, 0, 1)
    for cols in range(1, d * n + 1):
        assert np.array_equal(_realize_inverse(i0, j0, rows, n, d, cols).transpose(2, 0, 1), full[:, :, :cols])


def _full_matrix_sum_rule(k, params, rho, n_words, rng, chunk):
    """Reference: realize every full inverse matrix of a chunk at once, then keep A."""
    d, n, dm = params.dimension, params.n_particles, params.dimension * params.M
    total, total_sq, done = np.zeros((dm, dm)), np.zeros((dm, dm)), 0
    while done < n_words:
        b = min(chunk, n_words - done)
        if k == 0:
            aat = np.broadcast_to(np.eye(dm), (b, dm, dm))
        else:
            i0, j0, _ = sample_pairs_array(params, rng, b * k)
            i0, j0 = i0.reshape(b, k), j0.reshape(b, k)
            if d == 1:
                inv = realize_inverse_1d(i0, j0, rho.sample(rng, b * k).reshape(b, k), n)
            else:
                inv = realize_inverse_3d(i0, j0, uniform_sphere(rng, b * k).reshape(b, k, 3), n)
            a = inv[:, :dm, :dm]
            aat = np.einsum("bij,bkj->bik", a, a)
        total += aat.sum(axis=0)
        total_sq += (aat * aat).sum(axis=0)
        done += b
    z_hat = total / n_words
    var = (total_sq - n_words * z_hat * z_hat) / (n_words - 1)
    return z_hat, np.sqrt(np.clip(var, 0.0, None) / n_words)


@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("k", [0, 1, 4])
def test_mc_sum_rule_matches_full_matrix_reference_bit_for_bit(d, k, uniform_rho, monkeypatch):
    # 2900 words in chunks of 1300, 1300 and 300: a full chunk spans two realizer slices
    from kacbath import words

    assert words._SLICE_WORDS < 1300 < 2 * words._SLICE_WORDS
    monkeypatch.setattr(words, "_DRAW_WORDS", 1300)
    p = GeneratorParams(M=2, N=3, lambda_S=1.0, lambda_R=1.0, mu=1.0, dimension=d)
    est = mc_sum_rule(k, p, uniform_rho, 2900, trajectory_rng(16, k))
    z_hat, se = _full_matrix_sum_rule(k, p, uniform_rho, 2900, trajectory_rng(16, k), 1300)
    assert np.array_equal(est.z_hat, z_hat)
    assert np.array_equal(est.std_error, se)
    assert est.predicted == sum_rule_constant(k, p, uniform_rho)


@pytest.mark.parametrize("d, M", [(1, m) for m in range(1, 8)] + [(3, 1), (3, 2)])
def test_word_products_match_einsum_bit_for_bit(d, M, uniform_rho):
    # d*M = 1..7: one full realizer slice and one partial slice, against the (B, dm, dm)
    # einsum of the full matrices' system blocks, compared byte for byte (signed zeros too)
    from kacbath import words

    p = GeneratorParams(M=M, N=2, lambda_S=1.0, lambda_R=1.0, mu=1.0, dimension=d)
    rho = uniform_rho if d == 1 else None
    k, b, dm = 5, words._SLICE_WORDS + 37, d * M
    got = words._word_products(k, p, rho, trajectory_rng(19, dm), b)
    rng = trajectory_rng(19, dm)
    i0, j0, _ = sample_pairs_array(p, rng, b * k)
    i0, j0 = i0.reshape(b, k), j0.reshape(b, k)
    if d == 1:
        inv = realize_inverse_1d(i0, j0, rho.sample(rng, b * k).reshape(b, k), p.n_particles)
    else:
        inv = realize_inverse_3d(i0, j0, uniform_sphere(rng, b * k).reshape(b, k, 3), p.n_particles)
    a = np.ascontiguousarray(inv[:, :dm, :dm])
    assert got.tobytes() == np.einsum("bij,bkj->bik", a, a).tobytes()


@pytest.mark.parametrize("dm", range(1, 8))
def test_gram_batch_last_matches_einsum_with_signed_zeros(dm):
    # exact zeros of both signs make products -0.0; einsum's sums start at +0.0
    from kacbath.words import _gram_batch_last

    rng = np.random.default_rng(dm)
    a = rng.normal(size=(dm, dm, 300))
    a[rng.random(a.shape) < 0.3] = 0.0
    a[rng.random(a.shape) < 0.2] = -0.0
    a[:, :, 0] = -np.eye(dm)  # off-diagonal products of -1 and 0: at dm = 2 both are -0.0
    out = np.empty((300, dm, dm))
    _gram_batch_last(a, out)
    ab = np.ascontiguousarray(a.transpose(2, 0, 1))
    assert out.tobytes() == np.einsum("bij,bkj->bik", ab, ab).tobytes()


@pytest.mark.parametrize("d, M, N, bound", [(1, 2, 4, 56), (3, 1, 2, 80)])
def test_mc_sum_rule_transient_bytes_per_drawn_collision(d, M, N, bound, uniform_rho, monkeypatch):
    # Two chunks of 10000 words of k=8: the traced peak above the starting level, per
    # collision drawn in one chunk.  A chunk's draws must not outlive it into the next
    # chunk's draw.
    from kacbath import words

    p = GeneratorParams(M=M, N=N, lambda_S=1.0, lambda_R=1.0, mu=1.0, dimension=d)
    k, chunk = 8, 10000
    monkeypatch.setattr(words, "_DRAW_WORDS", chunk)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        mc_sum_rule(k, p, uniform_rho, 2 * chunk, trajectory_rng(18, d))
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak / (chunk * k) <= bound


def test_batch_realization_matches_single(params24, uniform_rho):
    rng = trajectory_rng(14, 0)
    from kacbath.model import sample_pairs_array

    i0, j0, _ = sample_pairs_array(params24, rng, 12)
    thetas = uniform_rho.sample(rng, 12)
    batch = realize_inverse_1d(i0.reshape(3, 4), j0.reshape(3, 4), thetas.reshape(3, 4), 6)
    for b in range(3):
        single = realize_inverse_1d(i0[4 * b : 4 * b + 4], j0[4 * b : 4 * b + 4],
                                    thetas[4 * b : 4 * b + 4], 6)[0]
        assert np.array_equal(batch[b], single)


# ------------------------------------------------------- marginal reduction


def _poly_h(pts):
    x, y = pts[:, 0], pts[:, 1]
    return 1.0 + 0.5 * x - 0.3 * y + 0.2 * x * y + 0.1 * x * x


def test_marginal_check_orthogonal_block_zero_rest():
    theta = 0.6
    q = np.array([[math.cos(theta), math.sin(theta)], [-math.sin(theta), math.cos(theta)]])
    res = gaussian_marginal_check(q, np.zeros((2, 2)), _poly_h)
    assert res.max_residual < 1e-13
    assert res.reliable


def test_marginal_check_pure_average():
    # A = 0 with B a co-isometry: both sides equal the full Gaussian mean of h
    b = np.array([[1.0, 0.0], [0.0, 1.0]])
    res = gaussian_marginal_check(np.zeros((2, 2)), b, _poly_h)
    assert res.max_residual < 1e-13


def test_marginal_check_random_word_blocks(uniform_rho):
    p = GeneratorParams(M=2, N=2, lambda_S=1, lambda_R=1, mu=1)
    rng = trajectory_rng(15, 0)
    for _ in range(10):
        _, _, inv = _random_word(5, p, uniform_rho, rng)
        res = gaussian_marginal_check(inv[:2, :2], inv[:2, 2:], _poly_h)
        assert res.max_residual <= 1e-8
        assert res.reliable


def test_marginal_check_rejects_bad_blocks():
    with pytest.raises(ValueError):
        gaussian_marginal_check(np.eye(2), np.eye(2), _poly_h)


# ----------------------------------------------------------------- BL datum


def test_bl_datum_k0(params24):
    nu = AngleDistribution.half_pi_atoms()
    datum = build_bl_datum(0, params24, nu)
    assert len(datum.maps) == 1
    assert np.array_equal(datum.maps[0], np.eye(2))
    assert datum.weights.tolist() == [1.0]


def test_bl_datum_k1_atoms_resolves_identity():
    p = GeneratorParams(M=2, N=1, lambda_S=1.0, lambda_R=0.0, mu=1.0)
    nu = AngleDistribution.half_pi_atoms()
    datum = build_bl_datum(1, p, nu)
    assert datum.identity_defect() < 1e-12
    assert np.dot(datum.weights, datum.dims) == pytest.approx(2.0, abs=1e-10)


def test_bl_datum_with_smoothed_measure(uniform_rho):
    p = GeneratorParams(M=2, N=1, lambda_S=1.0, lambda_R=0.0, mu=1.0)
    nu = build_discrete_angle_measure(uniform_rho, 1)
    datum = build_bl_datum(1, p, nu.law)
    assert datum.identity_defect() < 1e-10
    assert np.dot(datum.weights, datum.dims) == pytest.approx(2.0, abs=1e-10)


def test_bl_datum_rejects_discrete_measure_wrapper(uniform_rho):
    # the datum takes the atomic law itself, `measure.law`
    p = GeneratorParams(M=2, N=1, lambda_S=1.0, lambda_R=0.0, mu=1.0)
    with pytest.raises(TypeError):
        build_bl_datum(1, p, build_discrete_angle_measure(uniform_rho, 1))


def test_bl_datum_3d_sphere_rule():
    from kacbath import build_sphere_quadrature

    p = GeneratorParams(M=1, N=1, lambda_S=0.0, lambda_R=0.0, mu=1.0, dimension=3)
    rule = build_sphere_quadrature(2, 2)
    datum = build_bl_datum(1, p, rule)
    assert datum.identity_defect() < 1e-10
    assert np.dot(datum.weights, datum.dims) == pytest.approx(3.0, abs=1e-10)


def test_bl_datum_enumeration_guard(params24):
    nu = AngleDistribution.half_pi_atoms()
    with pytest.raises(ValueError):
        build_bl_datum(9, params24, nu)


def test_sum_rule_constant_consistency_with_datum():
    # the datum weights times map dimensions recover dM exactly because the
    # enumeration reproduces the sum-rule constant
    p = GeneratorParams(M=2, N=1, lambda_S=0.5, lambda_R=0.0, mu=2.0)
    nu = AngleDistribution.half_pi_atoms()
    for k in (0, 1, 2):
        datum = build_bl_datum(k, p, nu)
        assert datum.identity_defect() < 1e-10
        c = sum_rule_constant(k, p, nu)
        assert 0.0 < c <= 1.0
