import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kacbath import (
    AngleDistribution,
    GeneratorParams,
    effective_coupling_rate,
)
from kacbath.config import parse_config
from kacbath.discretize import build_discrete_angle_measure, build_sphere_quadrature
from kacbath.engine import EnsembleResult, trajectory_rng
from kacbath.inequalities import BLDatum, HeatFlowFunction, heat_flow_monotonicity_check
from kacbath.model import (
    _SPHERE_ROWS,
    InvalidDistributionError,
    rotation_rows,
    sample_collisions,
    sample_pair_kinds,
    sample_pairs_array,
    uniform_sphere,
)
from kacbath.words import decompose, mc_sum_rule
from tests.conftest import raised_cosine
from tests.oracles import (
    collide_pair_3d,
    inverse_cdf_sample_reference,
    rotate_pair_1d,
    sample_pair_kinds_reference,
    sample_pairs_array_reference,
    uniform_sphere_reference,
)


# ---------------------------------------------------------------- parameters


def test_params_validation():
    with pytest.raises(ValueError):
        GeneratorParams(M=0, N=5, lambda_S=1, lambda_R=1, mu=1)
    with pytest.raises(ValueError):
        GeneratorParams(M=2, N=5, lambda_S=-1, lambda_R=1, mu=1)
    with pytest.raises(ValueError):
        GeneratorParams(M=2, N=5, lambda_S=1, lambda_R=1, mu=1, dimension=2)


@pytest.mark.parametrize("field, value", [("dimension", 1.0), ("dimension", True), ("M", True), ("N", 8.0)])
def test_params_need_integer_counts_and_dimension(field, value):
    args = dict(M=2, N=8, lambda_S=1.0, lambda_R=1.0, mu=1.0)
    with pytest.raises(ValueError, match="integers"):
        GeneratorParams(**{**args, field: value})
    assert GeneratorParams(**{**args, field: np.int64(value)}) == GeneratorParams(**{**args, field: int(value)})


@pytest.mark.parametrize("field, value", [("lambda_S", 10 ** 400), ("M", 10 ** 400), ("N", 10 ** 400),
                                          ("mu", float("nan")), ("lambda_R", float("inf"))],
                         ids=["lambda_S-401-digits", "M-401-digits", "N-401-digits", "mu-nan", "lambda_R-inf"])
def test_params_reject_values_past_the_float_range(field, value):
    # 10**400 used to end in OverflowError, from math.isfinite for a rate and from total_rate for M
    args = dict(M=2, N=8, lambda_S=1.0, lambda_R=1.0, mu=1.0)
    with pytest.raises(ValueError):
        GeneratorParams(**{**args, field: value})


def test_total_rate_and_kind_split(params28):
    assert params28.total_rate == pytest.approx(1.0 + 4.0 + 2.0, abs=0)
    assert params28.kind_rates == (1.0, 4.0, 2.0)


def test_single_system_particle_has_no_system_pairs():
    p = GeneratorParams(M=1, N=200, lambda_S=5.0, lambda_R=1.0, mu=1.0)
    assert p.kind_rates[0] == 0.0
    assert p.total_rate == pytest.approx(0.0 + 100.0 + 1.0)


@given(m=st.integers(1, 6), n=st.integers(1, 6), ls=st.integers(0, 5),
       lr=st.integers(0, 5), mu=st.integers(1, 5))
def test_pair_weights_sum_to_one_exactly(m, n, ls, lr, mu):
    # rational arithmetic: the jump-chain weights over all pairs sum to exactly 1
    t_ss = Fraction(ls * m, 2) if m >= 2 else Fraction(0)
    t_rr = Fraction(lr * n, 2) if n >= 2 else Fraction(0)
    lam = t_ss + t_rr + Fraction(mu * m)
    total = Fraction(0)
    for i in range(1, m + n + 1):
        for j in range(i + 1, m + n + 1):
            if j <= m:
                total += Fraction(ls, 1) / (lam * (m - 1))
            elif i > m:
                total += Fraction(lr, 1) / (lam * (n - 1))
            else:
                total += Fraction(mu, 1) / (lam * n)
    assert total == 1


def test_pair_weight_formula(params24):
    lam = params24.total_rate
    assert params24.pair_weight(1, 2) == pytest.approx(1.0 / (lam * 1))
    assert params24.pair_weight(3, 4) == pytest.approx(1.0 / (lam * 3))
    assert params24.pair_weight(1, 3) == pytest.approx(1.0 / (lam * 4))


def test_classical_preset_exact_rates():
    # the all-pairs model splits into the three-kind form with these exact rates
    for m, n in [(2, 8), (3, 5), (1, 9)]:
        p = GeneratorParams.classical_kac(m, n)
        denom = m + n - 1
        assert p.lambda_S == 2.0 * (m - 1) / denom
        assert p.lambda_R == 2.0 * (n - 1) / denom
        assert p.mu == 2.0 * n / denom
        if m >= 2 and n >= 2:
            assert p.total_rate == pytest.approx(m + n, rel=1e-14)


def test_pair_weight_kinds(params28):
    # kinds 0, 1, 2 (system, bath, cross) hold 1, 28 and 16 pairs at (M, N) = (2, 8)
    probs = params28.kind_probabilities
    assert params28.pair_weight(1, 2) == probs[0] / 1
    assert params28.pair_weight(3, 5) == probs[1] / 28
    assert params28.pair_weight(2, 3) == probs[2] / 16
    assert params28.pair_weight(1, 10) == probs[2] / 16
    for i, j in [(3, 2), (2, 2), (0, 2), (1, 11)]:
        with pytest.raises(ValueError):
            params28.pair_weight(i, j)


# ---------------------------------------------------------------- angle laws


def test_uniform_moments(uniform_rho):
    assert abs(uniform_rho.sin2_moment - 0.5) < 1e-14
    assert abs(uniform_rho.sincos_moment) < 1e-14


def test_half_pi_atoms_moments():
    rho = AngleDistribution.half_pi_atoms()
    assert rho.sin2_moment == pytest.approx(1.0, abs=1e-15)
    assert abs(rho.sincos_moment) < 1e-15


def test_raised_cosine_density_moments():
    rho = AngleDistribution.from_density(raised_cosine)
    assert abs(rho.sin2_moment - 0.5) < 1e-13
    assert abs(rho.sincos_moment) < 1e-13


def test_density_table_roundtrip():
    thetas = np.linspace(-math.pi, math.pi, 801)
    rho = AngleDistribution.from_table(thetas, raised_cosine(thetas))
    assert abs(rho.sin2_moment - 0.5) < 1e-6  # table is only piecewise linear
    assert abs(rho.sincos_moment) < 1e-12


def test_invalid_distributions_rejected():
    with pytest.raises(InvalidDistributionError):
        AngleDistribution.atoms([(0.5, 0.7)])  # mass != 1
    with pytest.raises(InvalidDistributionError):
        AngleDistribution.atoms([(math.pi / 4, 1.0)])  # sin*cos moment nonzero
    with pytest.raises(InvalidDistributionError):
        AngleDistribution.from_density(lambda t: np.cos(t))  # negative values


def test_density_negative_between_the_old_probe_points_rejected():
    # a 1e-8 dip at one sampler knot near theta = 2, where max(cos, 0) / 2 is 0: it misses every
    # 16th knot (a 4097-point probe would not see it) and is too narrow to move the moments
    dip_at = np.linspace(-math.pi, math.pi, 2 ** 16 + 1)[53417]

    def dipped(t):
        return np.maximum(np.cos(t), 0.0) / 2.0 - 1e-8 * (np.abs(t - dip_at) < 1e-6)

    with pytest.raises(InvalidDistributionError, match="negative"):
        AngleDistribution.from_density(dipped)


def _identity_datum():
    return BLDatum(maps=[np.eye(2)], weights=np.array([1.0]))


ARRAY_HOLDERS = {
    "AngleDistribution": AngleDistribution.half_pi_atoms,
    "ExperimentConfig": lambda: parse_config({
        "params": {"M": 2, "N": 8, "lambda_S": 1.0, "lambda_R": 1.0, "mu": 1.0},
        "rho": {"type": "atoms", "atoms": [[math.pi / 2, 0.5], [-math.pi / 2, 0.5]]}}),
    "DiscreteAngleMeasure": lambda: build_discrete_angle_measure(AngleDistribution.uniform(), 2),
    "SphereQuadrature": lambda: build_sphere_quadrature(2, 2),
    "EnsembleResult": lambda: EnsembleResult(t_grid=np.zeros(2), snapshots=np.zeros((3, 2, 1)),
                                             counts=np.zeros((3, 3)), energies=None),
    "BLDatum": _identity_datum,
    "HeatFlowResult": lambda: heat_flow_monotonicity_check(
        _identity_datum(), [HeatFlowFunction.gaussian(1.1, center=np.array([0.1, 0.2]))], (0.5, 2.0)),
    "SingularSpectrum": lambda: decompose(np.eye(3), 2),
    "SumRuleEstimate": lambda: mc_sum_rule(1, GeneratorParams(M=2, N=2, lambda_S=1.0, lambda_R=1.0, mu=1.0),
                                           AngleDistribution.uniform(), 10, trajectory_rng(1, 0)),
}


@pytest.mark.parametrize("build", ARRAY_HOLDERS.values(), ids=ARRAY_HOLDERS.keys())
def test_array_holding_types_compare_by_identity_and_hash(build):
    # a generated __eq__ would compare the ndarray fields inside a tuple and raise; these compare by identity
    a, b = build(), build()
    assert a == a and not a == b and a != b
    assert hash(a) == hash(a) and len({a, b}) == 2


@pytest.mark.parametrize("table", [False, True], ids=["density", "table"])
def test_continuous_law_draws_as_the_lazy_table_did(table):
    thetas = np.linspace(-math.pi, math.pi, 401)
    if table:
        rho = AngleDistribution.from_table(thetas, raised_cosine(thetas))
        density = lambda x: np.interp(x, thetas, raised_cosine(thetas), period=2.0 * math.pi)
    else:
        rho, density = AngleDistribution.from_density(raised_cosine), raised_cosine
    draws = rho.sample(trajectory_rng(66, 0), 50000)
    assert np.array_equal(draws, inverse_cdf_sample_reference(density, trajectory_rng(66, 0), 50000))


def test_table_knots_outside_the_circle_rejected():
    # the moments would span [-4, 4] (sin^2 moment 0.438) while the sampler tabulates [-pi, pi] (0.5)
    with pytest.raises(InvalidDistributionError, match=r"\[-pi, pi\]"):
        AngleDistribution.from_table([-4.0, 4.0], [0.125, 0.125])


@pytest.mark.parametrize(
    "build",
    (
        lambda: AngleDistribution.atoms([(0.0, math.nan)]),
        lambda: AngleDistribution.atoms([(math.nan, 1.0)]),
        lambda: AngleDistribution.from_table([-3.0, 0.0, 3.0], [math.nan] * 3),
        lambda: AngleDistribution.from_density(lambda t: np.full_like(t, math.nan)),
    ),
    ids=("atom_weight", "atom_angle", "table_values", "density"),
)
def test_nan_distributions_rejected(build):
    with pytest.raises(InvalidDistributionError):
        build()


def test_fourier_coefficients():
    rho = AngleDistribution.from_density(raised_cosine)
    assert abs(rho.fourier_coefficient(0) - 1.0 / (2 * math.pi)) < 1e-14
    assert abs(rho.fourier_coefficient(1) - 1.0 / (4 * math.pi)) < 1e-14
    assert abs(rho.fourier_coefficient(3)) < 1e-14
    atoms = AngleDistribution.half_pi_atoms()
    # mass at +-pi/2: coefficient at m=2 is -1/(2 pi), odd coefficients vanish
    assert abs(atoms.fourier_coefficient(2) + 1.0 / (2 * math.pi)) < 1e-15
    assert abs(atoms.fourier_coefficient(1)) < 1e-15


def test_density_sampling_statistics(rng):
    rho = AngleDistribution.from_density(raised_cosine)
    draws = rho.sample(rng, 200000)
    # E cos(theta) = 1/2 for the raised cosine; 4-sigma band
    se = math.sqrt(np.var(np.cos(draws)) / len(draws))
    assert abs(np.mean(np.cos(draws)) - 0.5) < 4 * se


# ------------------------------------------------------------ coupling rate


def test_effective_coupling_rate_uniform(params28, uniform_rho):
    assert effective_coupling_rate(params28, uniform_rho) == pytest.approx(0.5, abs=1e-14)


def test_effective_coupling_rate_atoms(params28):
    rho = AngleDistribution.half_pi_atoms()
    assert effective_coupling_rate(params28, rho) == pytest.approx(1.0, abs=1e-14)


def test_effective_coupling_rate_3d():
    p = GeneratorParams(M=2, N=8, lambda_S=1, lambda_R=1, mu=3.0, dimension=3)
    assert effective_coupling_rate(p) == pytest.approx(1.0, abs=0)


# ------------------------------------------------------------------ kernels


def test_rotation_identity_and_quarter_turn():
    z = np.array([1.0, 0.0, 0.3])
    assert np.array_equal(rotate_pair_1d(z, 1, 2, 0.0), z)
    out = rotate_pair_1d(z, 1, 2, math.pi / 2)
    assert np.allclose(out, [0.0, -1.0, 0.3], atol=1e-15)


@settings(max_examples=200, deadline=None)
@given(
    theta=st.floats(-math.pi, math.pi),
    vi=st.floats(-50, 50),
    vj=st.floats(-50, 50),
)
def test_rotation_conserves_pair_energy(theta, vi, vj):
    z = np.array([vi, vj])
    out = rotate_pair_1d(z, 1, 2, theta)
    e_in = vi * vi + vj * vj
    assert abs(np.dot(out, out) - e_in) <= 1e-12 * (1.0 + e_in)


def test_collision_3d_perpendicular_axis_is_identity(rng):
    zi = np.array([1.0, 2.0, 3.0])
    zj = np.array([0.5, -1.0, 1.0])
    rel = zi - zj
    om = np.cross(rel, [0.0, 0.0, 1.0])
    om /= np.linalg.norm(om)
    z = np.stack([zi, zj])
    out = collide_pair_3d(z, 1, 2, om)
    assert np.allclose(out, z, atol=1e-14)


def test_collision_3d_full_exchange():
    om = np.array([1.0, 0.0, 0.0])
    z = np.stack([om, np.zeros(3)])
    out = collide_pair_3d(z, 1, 2, om)
    assert np.allclose(out[0], 0.0, atol=1e-15)
    assert np.allclose(out[1], om, atol=1e-15)


@settings(max_examples=200, deadline=None)
@given(data=st.lists(st.floats(-10, 10), min_size=9, max_size=9))
def test_collision_3d_involution_and_conservation(data):
    vec = np.array(data[:3])
    if np.linalg.norm(vec) < 1e-3:
        vec = np.array([1.0, 0.0, 0.0])
    om = vec / np.linalg.norm(vec)
    z = np.array(data[3:]).reshape(2, 3)
    out = collide_pair_3d(z, 1, 2, om)
    scale = 1.0 + np.max(np.abs(z))
    assert np.max(np.abs((out[0] + out[1]) - (z[0] + z[1]))) <= 1e-12 * scale
    e_in = float(np.sum(z * z))
    assert abs(float(np.sum(out * out)) - e_in) <= 1e-12 * (1.0 + e_in)
    back = collide_pair_3d(out, 1, 2, om)
    assert np.max(np.abs(back - z)) <= 1e-12 * scale


def test_collision_rejects_non_unit_axis():
    z = np.zeros((2, 3))
    with pytest.raises(ValueError):
        collide_pair_3d(z, 1, 2, np.array([1.0, 1.0, 0.0]))


# ----------------------------------------------------------- event sampling


def test_kind_frequencies(params28, rng):
    n = 10 ** 6
    kinds = sample_pair_kinds(params28, rng, n)
    freqs = np.bincount(kinds, minlength=3) / n
    probs = params28.kind_probabilities
    for f, q in zip(freqs, probs):
        se = math.sqrt(q * (1 - q) / n)
        assert abs(f - q) < 4 * se


def test_pairs_uniform_within_kind(params24, rng):
    i0, j0, kinds = sample_pairs_array(params24, rng, 200000)
    # system pairs: (0,1) only for M=2; bath pairs: 6 possibilities, uniform
    ss = kinds == 0
    assert np.all(i0[ss] == 0) and np.all(j0[ss] == 1)
    rr = kinds == 1
    codes = (i0[rr] - 2) * 4 + (j0[rr] - 2)
    _, counts = np.unique(codes, return_counts=True)
    assert len(counts) == 6
    expected = rr.sum() / 6
    assert np.all(np.abs(counts - expected) < 4 * math.sqrt(expected))


def _select_pairs_oracle(params, rng, size):
    """The earlier pair draw: every kind's candidates from the same uniforms, then np.select."""
    M, N = params.M, params.N
    cum = np.cumsum(params.kind_probabilities)
    kinds = np.minimum(np.searchsorted(cum, rng.random(size), side="right"), 2).astype(np.int64)
    u1 = rng.random(size)
    u2 = rng.random(size)
    a_ss = np.minimum((u1 * M).astype(np.int64), M - 1)
    b_ss = np.minimum((u2 * max(M - 1, 1)).astype(np.int64), max(M - 2, 0))
    b_ss = b_ss + (b_ss >= a_ss)
    a_rr = M + np.minimum((u1 * N).astype(np.int64), N - 1)
    b_rr = np.minimum((u2 * max(N - 1, 1)).astype(np.int64), max(N - 2, 0))
    b_rr = M + b_rr + (b_rr + M >= a_rr)
    a_cr = np.minimum((u1 * M).astype(np.int64), M - 1)
    b_cr = M + np.minimum((u2 * N).astype(np.int64), N - 1)
    a = np.select([kinds == 0, kinds == 1], [a_ss, a_rr], default=a_cr)
    b = np.select([kinds == 0, kinds == 1], [b_ss, b_rr], default=b_cr)
    return np.minimum(a, b), np.maximum(a, b), kinds


@pytest.mark.parametrize("rates", [(1.0, 1.0, 1.0), (0.0, 1.0, 1.0), (1.0, 0.0, 1.0), (1.0, 1.0, 0.0),
                                   (0.7, 0.0, 0.0)],
                         ids=["all", "lambda_S-0", "lambda_R-0", "mu-0", "system-only"])
@pytest.mark.parametrize("shape", [(1, 1), (1, 2), (2, 1), (2, 8), (1, 200), (3, 3)])
def test_pair_draw_matches_select_oracle_bit_for_bit(shape, rates):
    params = GeneratorParams(*shape, *rates)
    if params.total_rate == 0.0:  # no kind has a population at a positive rate
        for draw in (sample_pairs_array, sample_pair_kinds):
            with pytest.raises(ValueError, match="total jump rate is zero"):
                draw(params, np.random.default_rng(0), 3001)
        return
    for seed in range(5):
        got = sample_pairs_array(params, np.random.default_rng(seed), 3001)
        want = _select_pairs_oracle(params, np.random.default_rng(seed), 3001)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w)
    kinds = sample_pair_kinds(params, np.random.default_rng(9), 3001)
    assert np.array_equal(kinds, _select_pairs_oracle(params, np.random.default_rng(9), 3001)[2])


@pytest.mark.parametrize("d", [1, 3])
def test_sample_collisions_is_pairs_then_parameters(d, uniform_rho):
    # the engine and the sum rule share this draw: pairs first, then angles or axes
    p = GeneratorParams(M=2, N=8, lambda_S=1.0, lambda_R=1.0, mu=1.0, dimension=d)
    got = sample_collisions(p, uniform_rho if d == 1 else None, trajectory_rng(17, 0), 1001)
    rng = trajectory_rng(17, 0)
    want = (*sample_pairs_array(p, rng, 1001),
            rotation_rows(uniform_rho.sample(rng, 1001)) if d == 1 else uniform_sphere(rng, 1001).T)
    for g, w in zip(got, want, strict=True):
        assert g.dtype == w.dtype and np.array_equal(g, w)


def test_sample_collisions_needs_rho_in_dimension_1(params28):
    with pytest.raises(ValueError, match="an angle distribution is required in dimension 1"):
        sample_collisions(params28, None, trajectory_rng(17, 1), 10)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_uniform_sphere_matches_norm_reference_bit_for_bit(seed):
    block = _SPHERE_ROWS
    for size in (1, 7, 1000, block - 1, block, block + 1, 160000):
        x = trajectory_rng(seed, size).normal(size=(size, 3))
        expected = x / np.linalg.norm(x, axis=1)[:, None]
        assert np.array_equal(uniform_sphere(trajectory_rng(seed, size), size), expected)


class _ZeroedRows:
    """A Generator whose normal rows at the chosen global indices, counted over all its
    normal() calls, come out zero and so too short to normalize."""

    def __init__(self, seed, rows):
        self.rng = trajectory_rng(seed, 0)
        self._rows = np.asarray(rows)
        self.drawn = 0

    def normal(self, size):
        x = self.rng.normal(size=size)
        hit = self._rows[(self._rows >= self.drawn) & (self._rows < self.drawn + len(x))]
        x[hit - self.drawn] = 0.0
        self.drawn += len(x)
        return x


def test_uniform_sphere_redraws_short_rows_as_the_reference_does():
    # short rows in the first, second and last block, and in the first redraw, which
    # forces a second one
    block = _SPHERE_ROWS
    size = 2 * block + 5
    rows = [0, 3, block - 1, block, size - 1, size, size + 2]
    got_rng, want_rng = _ZeroedRows(9, rows), _ZeroedRows(9, rows)
    got = uniform_sphere(got_rng, size)
    assert np.array_equal(got, uniform_sphere_reference(want_rng, size))
    assert got_rng.drawn == want_rng.drawn == size + 5 + 2  # two redraws, of 5 rows and of 2
    assert np.array_equal(got_rng.rng.random(3), want_rng.rng.random(3))
    assert np.allclose(np.linalg.norm(got, axis=1), 1.0, rtol=0, atol=1e-15)


DRAW_PARAMS = {
    "thermostat-1-200": GeneratorParams(M=1, N=200, lambda_S=0.0, lambda_R=1.0, mu=1.0),
    "2-8": GeneratorParams(M=2, N=8, lambda_S=1.0, lambda_R=1.0, mu=1.0),
    "2-4": GeneratorParams(M=2, N=4, lambda_S=1.0, lambda_R=1.0, mu=1.0),
    "d3-1-2": GeneratorParams(M=1, N=2, lambda_S=1.0, lambda_R=1.0, mu=1.0, dimension=3),
    "M1": GeneratorParams(M=1, N=5, lambda_S=1.0, lambda_R=1.0, mu=1.0),
    "N1": GeneratorParams(M=5, N=1, lambda_S=1.0, lambda_R=1.0, mu=1.0),
}


@pytest.mark.parametrize("size", [0, 1, 2 ** 14 + 3])
@pytest.mark.parametrize("name", list(DRAW_PARAMS))
def test_in_place_draws_match_frozen_references_bit_for_bit(name, size):
    # same bits, same dtypes, and the same stream position afterwards
    params = DRAW_PARAMS[name]
    draws = [
        (sample_pair_kinds, sample_pair_kinds_reference),
        (sample_pairs_array, sample_pairs_array_reference),
        (lambda p, rng, n: uniform_sphere(rng, n), lambda p, rng, n: uniform_sphere_reference(rng, n)),
    ]
    for seed, (new, frozen) in enumerate(draws):
        rng_new, rng_frozen = trajectory_rng(seed, size), trajectory_rng(seed, size)
        got, want = new(params, rng_new, size), frozen(params, rng_frozen, size)
        if not isinstance(got, tuple):
            got, want = (got,), (want,)
        for g, w in zip(got, want, strict=True):
            assert g.dtype == w.dtype and g.shape == w.shape and np.array_equal(g, w)
        assert np.array_equal(rng_new.random(3), rng_frozen.random(3))


def test_uniform_sphere_second_moment(rng):
    n = 10 ** 6
    oo = uniform_sphere(rng, n)
    cov = oo.T @ oo / n
    # var of omega_x^2 is 4/45; off-diagonal var is 1/15
    se_diag = math.sqrt(4.0 / 45.0 / n)
    se_off = math.sqrt(1.0 / 15.0 / n)
    for a in range(3):
        for b in range(3):
            target = 1.0 / 3.0 if a == b else 0.0
            tol = 4 * (se_diag if a == b else se_off)
            assert abs(cov[a, b] - target) < tol
