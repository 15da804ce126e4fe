import math

import numpy as np
import pytest

from kacbath import (
    BLDatum,
    HeatFlowFunction,
    bl_inequality_check,
    entropic_nelson_check,
    entropy_dual_check,
    heat_flow_monotonicity_check,
    ou_apply,
)
from kacbath.inequalities import (
    HEAT_FLOW_LIMIT_TIME,
    _lebesgue_marginal_integral,
    gaussian_average,
    heat_evolve,
    nelson_fixture_suite,
)
from kacbath.quadrature import gaussian_tensor_rule, tensor_rule
from kacbath.verification import (
    HEAT_FLOW_TIMES,
    gaussian_heat_functions,
    random_positive_polynomials,
    run_heat_flow_suite,
    standard_bl_data,
)
from tests.oracles import gaussian_norm_1d


# ------------------------------------------------------------- OU semigroup


def test_ou_identity_at_time_zero():
    h = lambda x: np.exp(-1.3 * x ** 2)
    assert ou_apply(h, 0.0) is h


def test_ou_contracts_coordinate():
    h = lambda x: x
    out = ou_apply(h, 0.9)
    xs = np.linspace(-3, 3, 11)
    assert np.max(np.abs(out(xs) - math.exp(-0.9) * xs)) < 1e-13


def test_ou_fixes_constants_and_their_norms():
    h = lambda x: np.full_like(x, 1.7)
    out = ou_apply(h, 1.4)
    xs = np.linspace(-2, 2, 9)
    assert np.max(np.abs(out(xs) - 1.7)) < 1e-13
    for p in (1.0, 2.0, 3.5):
        assert gaussian_norm_1d(out, p) == pytest.approx(1.7, abs=1e-12)


def test_ou_preserves_gaussian_mass():
    for h in (lambda x: np.exp(-0.8 * (x - 0.4) ** 2), lambda x: 0.1 + (0.5 + x) ** 2):
        before = gaussian_average(h, 96, 1)
        after = gaussian_average(ou_apply(h, 0.75), 96, 1)
        assert abs(after - before) < 1e-10


def test_nelson_norm_contraction_grid():
    # L^p -> L^q boundedness exactly on the hypercontractive boundary and inside it
    h = lambda x: 0.1 + (0.3 + x + 0.2 * x ** 2) ** 2
    for t in (0.1, 0.5, 2.0):
        for q in (2.0, 3.0, 4.0):
            p_boundary = 1.0 + math.exp(-2.0 * t) * (q - 1.0)
            for p in (p_boundary, p_boundary + 0.3):
                lhs = gaussian_norm_1d(ou_apply(h, t), q)
                rhs = gaussian_norm_1d(h, p)
                assert lhs <= rhs + 1e-8


def test_ou_averages_nest_and_keep_the_shape_of_their_points():
    h = lambda x: 0.2 + np.exp(-0.9 * (x - 0.3) ** 2)
    xs = np.linspace(-3, 3, 13)
    nested = ou_apply(ou_apply(h, 0.4), 0.7)
    assert np.max(np.abs(nested(xs) - ou_apply(h, 1.1)(xs))) < 1e-10
    column = ou_apply(h, 0.5)(xs[:, None])
    assert column.shape == (13, 1)
    assert np.array_equal(column[:, 0], ou_apply(h, 0.5)(xs))


def test_ou_rejects_negative_time():
    with pytest.raises(ValueError):
        ou_apply(lambda x: np.full_like(x, 1.0), -0.1)


# ----------------------------------------------------------- entropic bound


def test_nelson_equality_for_constants():
    check = entropic_nelson_check(lambda x: np.full_like(x, 2.0), 0.7)
    assert abs(check.margin) < 1e-10
    assert check.passed


def test_nelson_strictly_positive_margin_for_bump():
    check = entropic_nelson_check(lambda x: np.exp(-x ** 2), 0.5)
    assert check.margin > 0
    assert check.passed and not check.inconclusive


def test_nelson_long_time_limit():
    h = lambda x: np.exp(-(x - 0.3) ** 2)
    mass = gaussian_average(h, 96, 1)
    evolved = ou_apply(h, 20.0, order=96)
    x, w = gaussian_tensor_rule(96, 1)
    v = evolved(x[:, 0])
    s_inf = float(np.dot(v * np.log(v), w))
    assert abs(s_inf - mass * math.log(mass)) < 1e-6


def test_nelson_rejects_signed_profiles():
    with pytest.raises(ValueError):
        entropic_nelson_check(lambda x: x, 0.3)


def _signed(pts):
    return np.atleast_2d(pts)[:, 0] + 0.5


_TWO_LINES = BLDatum(maps=[np.eye(1), np.eye(1)], weights=np.array([0.5, 0.5]))


def test_signed_integrands_raise_instead_of_a_verdict():
    # each of these returned a margin: nothing read the sign off the values
    with pytest.raises(ValueError, match="nonnegative"):
        entropic_nelson_check(lambda x: x + 0.5, 0.5)
    with pytest.raises(ValueError, match="nonnegative"):
        bl_inequality_check(_TWO_LINES, [_signed, _signed])
    ones = lambda pts: np.ones(len(np.atleast_2d(pts)))
    with pytest.raises(ValueError, match="nonnegative"):
        entropy_dual_check(_TWO_LINES, [ones, ones], _signed)


def test_gaussian_average_reads_the_sign_and_the_zero_dimensional_constant():
    assert gaussian_average(lambda pts: np.full(len(pts), 2.5), 12, 0) == 2.5
    assert gaussian_average(lambda x: np.full_like(x, 2.0), 12, 1) == pytest.approx(2.0, rel=1e-14)
    for fn, dim in ((lambda pts: np.full(len(pts), -1.0), 0), (lambda x: np.full_like(x, -1.0), 1),
                    (lambda pts: np.full(len(pts), np.nan), 2)):
        with pytest.raises(ValueError):
            gaussian_average(fn, 12, dim)


def test_nelson_fixture_suite_margins():
    for i, h in enumerate(nelson_fixture_suite()):
        check = entropic_nelson_check(h, 0.5)
        assert check.margin >= -1e-8, i
        assert not check.inconclusive, i


# ------------------------------------------------------------------ BL data


def test_datum_validation_catches_errors():
    with pytest.raises(ValueError):
        BLDatum(maps=[np.eye(2)], weights=np.array([-1.0])).validate()
    with pytest.raises(ValueError):
        BLDatum(maps=[np.array([[1.0, 1.0]])], weights=np.array([1.0])).validate()
    with pytest.raises(ValueError):
        BLDatum(maps=[np.eye(2)], weights=np.array([0.5])).validate()
    with pytest.raises(ValueError):
        BLDatum(maps=[np.eye(2), np.eye(2)], weights=np.array([1.0])).validate()


def test_bl_inequality_trivial_cases():
    datum = BLDatum(maps=[np.eye(2)], weights=np.array([1.0]))
    ones = [lambda pts: np.ones(len(np.atleast_2d(pts)))]
    check = bl_inequality_check(datum, ones, order=12)
    assert abs(check.margin) < 1e-12
    # single identity map: equality for any nonnegative profile
    f = [lambda pts: 0.5 + (np.atleast_2d(pts)[:, 0] + 0.3 * np.atleast_2d(pts)[:, 1]) ** 2]
    check = bl_inequality_check(datum, f, order=16)
    assert abs(check.margin) < 1e-10


def test_bl_inequality_on_enumerated_data():
    for label, params, datum in standard_bl_data():
        rng = np.random.default_rng(5)
        funcs = random_positive_polynomials(datum, rng)
        check = bl_inequality_check(datum, funcs, order=16)
        assert check.margin >= -1e-8, label
        assert not check.inconclusive, label


def test_bl_sharp_profiles_flagged_inconclusive():
    # two narrow bumps off-center: low orders cannot resolve them, and the
    # doubled-order disagreement must be surfaced instead of a verdict
    datum = BLDatum(maps=[np.eye(1), np.eye(1)], weights=np.array([0.5, 0.5]))
    f1 = lambda pts: np.exp(-300.0 * (np.atleast_2d(pts)[:, 0] - 0.5) ** 2) + 1e-8
    f2 = lambda pts: np.exp(-300.0 * (np.atleast_2d(pts)[:, 0] + 0.5) ** 2) + 1e-8
    check = bl_inequality_check(datum, [f1, f2], order=4)
    assert check.inconclusive
    assert not check.passed


def test_entropy_dual_trivial_attainment():
    datum = BLDatum(maps=[np.eye(2)], weights=np.array([1.0]))

    def h(pts):
        pts = np.atleast_2d(pts)
        return np.exp(-0.8 * np.sum(pts ** 2, axis=1))

    check = entropy_dual_check(datum, [h], h, order=24)
    assert abs(check.margin) < 1e-8


def test_entropy_dual_uniform_h_is_jensen():
    _, _, datum = standard_bl_data()[1]
    rng = np.random.default_rng(6)
    funcs = random_positive_polynomials(datum, rng)

    def flat(pts):
        return np.ones(len(np.atleast_2d(pts)))

    check = entropy_dual_check(datum, funcs, flat, order=16)
    assert check.margin >= -1e-8


def test_entropy_dual_on_enumerated_data():
    for label, params, datum in standard_bl_data():
        rng = np.random.default_rng(7)
        funcs = random_positive_polynomials(datum, rng)

        def h(pts):
            pts = np.atleast_2d(pts)
            return np.exp(-1.1 * np.sum((pts - 0.15) ** 2, axis=1))

        check = entropy_dual_check(datum, funcs, h, order=16)
        assert check.margin >= -1e-8, label


def test_bl_checks_cap_the_ambient_dimension_at_three():
    datum = BLDatum(maps=[np.eye(4)], weights=np.array([1.0]))
    ones = lambda pts: np.ones(len(pts))
    with pytest.raises(ValueError, match="capped at ambient dimension 3"):
        bl_inequality_check(datum, [ones])
    with pytest.raises(ValueError, match="capped at ambient dimension 3"):
        entropy_dual_check(datum, [ones], ones)


def test_entropy_dual_floors_a_factor_that_vanishes_at_nodes():
    half_line = lambda pts: np.maximum(np.atleast_2d(pts)[:, 0], 0.0)  # 0 at every node x <= 0
    ones = lambda pts: np.ones(len(np.atleast_2d(pts)))
    with pytest.warns(UserWarning, match="floored at 1e-300"):
        check = entropy_dual_check(_TWO_LINES, [half_line, ones], ones, order=12)
    assert math.isfinite(check.margin) and math.isfinite(check.margin_coarse)


# ---------------------------------------------------------------- heat flow


def test_heat_evolve_preserves_lebesgue_mass():
    f = HeatFlowFunction.gaussian(1.3, center=np.array([0.2]))
    evolved = heat_evolve(f, 1, 2.5)
    nodes, wts = np.polynomial.hermite.hermgauss(80)
    scale = math.sqrt(2.0 / (1.3 / (1.0 + 4 * 1.3 * 2.5)))
    pts = scale * nodes[:, None] + 0.2
    weights = np.exp(np.log(wts) + nodes ** 2) * scale
    mass_after = float(np.dot(evolved(pts), weights))
    mass_before = math.sqrt(math.pi / 1.3)
    assert abs(mass_after - mass_before) < 1e-10


def test_heat_evolve_matches_analytic_gaussian():
    a, t = 0.9, 3.0
    f = HeatFlowFunction.gaussian(a, center=np.array([0.3, -0.2]))
    evolved = heat_evolve(f, 2, t)
    pts = np.array([[0.0, 0.0], [1.0, 2.0], [-3.0, 0.5]])
    denom = 1.0 + 4.0 * a * t
    centered = pts - np.array([0.3, -0.2])
    expected = denom ** -1.0 * np.exp(-a * np.sum(centered ** 2, axis=1) / denom)
    assert np.max(np.abs(evolved(pts) - expected)) < 1e-12


def test_heat_evolve_is_a_semigroup():
    f = HeatFlowFunction.gaussian(1.7, center=np.array([0.4, -0.1]), scale=0.8)
    for dim in (1, 2):
        stepped = heat_evolve(heat_evolve(f, dim, 0.6), dim, 2.3)
        direct = heat_evolve(f, dim, 2.9)
        assert stepped.decay == pytest.approx(direct.decay, rel=1e-14)
        assert stepped.scale == pytest.approx(direct.scale, rel=1e-14)
        assert stepped.center == direct.center


def test_heat_evolve_conserves_marginal_mass():
    f = HeatFlowFunction.gaussian(0.9, center=np.array([0.3, 0.5]), scale=1.4)
    for dim in (0, 1, 2):
        before = _lebesgue_marginal_integral(f, dim)
        for t in (0.1, 1.0, 50.0):
            after = _lebesgue_marginal_integral(heat_evolve(f, dim, t), dim)
            assert after == pytest.approx(before, rel=1e-14)


def _tensor_joint_integral(datum, evolved, order=40):
    """Reference for Phi: tensor Gauss-Hermite rule scaled to the widest flowed factor."""
    nodes, wts = np.polynomial.hermite.hermgauss(order)
    a_min = min(f.decay for f, b in zip(evolved, datum.maps) if b.shape[0])
    scale = math.sqrt(2.0 / a_min)
    pts, weights = tensor_rule(scale * nodes, wts * np.exp(nodes * nodes) * scale, datum.ambient_dim)
    joint = np.ones(len(pts))
    for f, b, c in zip(evolved, datum.maps, datum.weights):
        joint *= f(pts @ b.T) ** c
    return float(joint @ weights)


def test_heat_flow_closed_form_matches_tensor_quadrature():
    for label, _, datum in standard_bl_data():
        funcs = gaussian_heat_functions(datum, np.random.default_rng(7))
        res = heat_flow_monotonicity_check(datum, funcs, HEAT_FLOW_TIMES)
        for t, phi in zip((*HEAT_FLOW_TIMES, HEAT_FLOW_LIMIT_TIME), (*res.lhs, res.limit_value)):
            evolved = [heat_evolve(f, b.shape[0], t) for f, b in zip(funcs, datum.maps)]
            reference = _tensor_joint_integral(datum, evolved)
            assert phi == pytest.approx(reference, rel=1e-12), (label, t)


def test_heat_flow_suite_covers_every_standard_datum():
    report = run_heat_flow_suite()
    assert report["n_checks"] == len(standard_bl_data())
    assert report["pass"]


def test_heat_flow_suite_reports_slope_per_datum():
    report = run_heat_flow_suite()
    by_datum = report["min_fd_derivative_by_datum"]
    assert sorted(by_datum) == sorted(label for label, _, _ in standard_bl_data())
    assert min(by_datum.values()) == report["min_fd_derivative"]


def test_heat_flow_zero_row_map_contributes_its_scale():
    flat = BLDatum(maps=[np.eye(2)], weights=np.array([1.0]))
    padded = BLDatum(maps=[np.eye(2), np.zeros((0, 2))], weights=np.array([1.0, 0.5]))
    f = HeatFlowFunction.gaussian(1.1, center=np.array([0.1, 0.2]))
    g = HeatFlowFunction.gaussian(1.0, center=np.zeros(0), scale=3.0)
    base = heat_flow_monotonicity_check(flat, [f], (0.5, 2.0))
    res = heat_flow_monotonicity_check(padded, [f, g], (0.5, 2.0))
    assert res.lhs == pytest.approx(math.sqrt(3.0) * base.lhs, rel=1e-14)
    assert res.rhs == pytest.approx(math.sqrt(3.0) * base.rhs, rel=1e-14)


def test_heat_flow_mass_conserving_datum():
    # single identity map: the flowed joint integral is constant in t
    datum = BLDatum(maps=[np.eye(2)], weights=np.array([1.0]))
    funcs = [HeatFlowFunction.gaussian(1.1, center=np.array([0.1, 0.2]))]
    res = heat_flow_monotonicity_check(datum, funcs, (0.5, 2.0, 10.0))
    assert res.passed
    assert np.max(np.abs(res.lhs - res.rhs)) < 1e-8 * abs(res.rhs)


def test_heat_flow_monotone_on_word_datum():
    _, _, datum = standard_bl_data()[1]
    rng = np.random.default_rng(8)
    funcs = gaussian_heat_functions(datum, rng)
    res = heat_flow_monotonicity_check(datum, funcs, (0.25, 0.5, 1.0, 2.0, 5.0))
    assert np.all(res.finite_differences >= -1e-6)
    assert res.limit_relative_error <= 0.02
    assert res.passed


@pytest.mark.parametrize("decay, scale", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0), (math.nan, 1.0)])
def test_heat_flow_function_rejects_nonpositive_parameters(decay, scale):
    with pytest.raises(ValueError):
        HeatFlowFunction(decay=decay, center=(0.0,), scale=scale)
    with pytest.raises(ValueError):
        HeatFlowFunction.gaussian(decay, scale=scale)


# ------------------------------------------------- factor/map count mismatch


def _short_word_datum():
    _, _, datum = standard_bl_data()[1]
    assert len(datum.maps) == 10
    return datum


def test_bl_inequality_rejects_too_few_functions():
    datum = _short_word_datum()
    funcs = random_positive_polynomials(datum, np.random.default_rng(5))[:7]
    with pytest.raises(ValueError):
        bl_inequality_check(datum, funcs, order=8)


def test_entropy_dual_rejects_too_few_functions():
    datum = _short_word_datum()
    funcs = random_positive_polynomials(datum, np.random.default_rng(5))[:7]
    with pytest.raises(ValueError):
        entropy_dual_check(datum, funcs, HeatFlowFunction.gaussian(1.2, center=np.zeros(2)), order=8)


def test_heat_flow_rejects_too_few_functions():
    datum = _short_word_datum()
    funcs = gaussian_heat_functions(datum, np.random.default_rng(7))[:7]
    with pytest.raises(ValueError):
        heat_flow_monotonicity_check(datum, funcs, HEAT_FLOW_TIMES)
