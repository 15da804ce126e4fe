import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm

from kacbath import (
    EntropyEstimate,
    GeneratorParams,
    InitialCondition,
    decay_check,
    gaussian_initial_entropy,
    relative_entropy_to_thermal,
)
from kacbath.engine import trajectory_rng
from kacbath.entropy import (
    gaussian_kl_to_thermal,
    histogram_differential_entropy,
    log_unit_ball_volume,
)
from kacbath.model import THERMAL_VARIANCE


def gaussian_entropy(dim, variance):
    return 0.5 * dim * math.log(2 * math.pi * math.e * variance)


def test_log_unit_ball_volume():
    assert log_unit_ball_volume(1) == pytest.approx(math.log(2.0), abs=1e-14)
    assert log_unit_ball_volume(2) == pytest.approx(math.log(math.pi), abs=1e-14)
    assert log_unit_ball_volume(3) == pytest.approx(math.log(4 * math.pi / 3), abs=1e-14)


def test_knn_entropy_gaussian_dim2():
    rng = trajectory_rng(60, 0)
    sigma2 = 0.5
    x = rng.normal(size=(100000, 2)) * math.sqrt(sigma2)
    est = relative_entropy_to_thermal(x, k=4, rng=trajectory_rng(60, 1))
    value, se = est.differential_entropy, est.std_error
    assert abs(value - gaussian_entropy(2, sigma2)) < 0.03
    assert se > 0


def test_knn_entropy_scaling_law():
    rng = trajectory_rng(61, 0)
    x = rng.normal(size=(20000, 2))
    c = 2.7
    v1 = relative_entropy_to_thermal(x, rng=trajectory_rng(61, 1)).differential_entropy
    v2 = relative_entropy_to_thermal(c * x, rng=trajectory_rng(61, 2)).differential_entropy
    assert abs((v2 - v1) - 2 * math.log(c)) < 1e-9


def test_knn_entropy_se_shrinks():
    rng = trajectory_rng(62, 0)
    x = rng.normal(size=(40000, 2))
    se_small = relative_entropy_to_thermal(x[:20000], rng=trajectory_rng(62, 1)).std_error
    se_large = relative_entropy_to_thermal(x, rng=trajectory_rng(62, 2)).std_error
    assert se_large < se_small


def test_duplicate_points_are_jittered():
    x = np.zeros((100, 2))
    x[50:] = 1.0
    with pytest.warns(UserWarning):
        value = relative_entropy_to_thermal(x, k=2, rng=trajectory_rng(63, 0)).differential_entropy
    assert math.isfinite(value)


def test_relative_entropy_thermal_is_zero():
    rng = trajectory_rng(64, 0)
    x = rng.normal(size=(100000, 2)) * math.sqrt(THERMAL_VARIANCE)
    est = relative_entropy_to_thermal(x, rng=trajectory_rng(64, 1))
    assert abs(est.value) < 3 * est.std_error + 0.02


@pytest.mark.parametrize("dim", [1, 2, 4])
def test_relative_entropy_gaussian_formula(dim):
    rng = trajectory_rng(65, dim)
    s = 0.4 / (2 * math.pi)  # colder than thermal
    x = rng.normal(size=(100000, dim)) * math.sqrt(s)
    est = relative_entropy_to_thermal(x, rng=trajectory_rng(65, 10 + dim))
    expected = dim * gaussian_kl_to_thermal(s)
    assert abs(est.value - expected) < 3 * est.std_error + 0.02


def test_relative_entropy_mean_shift():
    rng = trajectory_rng(66, 0)
    b = 0.6
    x = rng.normal(size=(100000, 2)) * math.sqrt(THERMAL_VARIANCE) + b
    est = relative_entropy_to_thermal(x, rng=trajectory_rng(66, 1))
    expected = 2 * math.pi * b * b
    assert abs(est.value - expected) < 3 * est.std_error + 0.02


def test_gaussian_kl_formula_against_quadrature():
    # independent 1-D quadrature of f log(f / Gamma)
    s = 1.0 / math.pi
    f = norm(scale=math.sqrt(s)).pdf

    def integrand(x):
        fx = f(x)
        return fx * (math.log(fx) + math.pi * x * x)

    val, err = quad(integrand, -12, 12, epsabs=1e-12)
    assert err < 1e-9
    assert abs(gaussian_kl_to_thermal(s) - val) < 1e-9


def test_estimate_components_are_consistent():
    rng = trajectory_rng(67, 0)
    x = rng.normal(size=(5000, 2)) * 0.3
    est = relative_entropy_to_thermal(x, rng=trajectory_rng(67, 1))
    assert est.value == pytest.approx(est.second_moment_term - est.differential_entropy, abs=1e-12)
    assert est.estimator["method"] == "knn"


def test_histogram_cross_check_1d():
    rng = trajectory_rng(68, 0)
    x = rng.normal(size=200000) * 0.7
    h_hist = histogram_differential_entropy(x)
    assert abs(h_hist - gaussian_entropy(1, 0.49)) < 0.02


@pytest.mark.parametrize("cloud", [np.ones(10), np.full(7, -2.5), np.array([0.3, math.nan, 1.0]),
                                   np.array([0.3, math.inf, 1.0]), np.empty(0)],
                         ids=["ones", "constant", "nan", "inf", "empty"])
def test_histogram_rejects_point_masses_and_non_finite_clouds(cloud):
    # a point mass has entropy -inf: no finite number may stand for it
    with pytest.raises(ValueError):
        histogram_differential_entropy(cloud)


def test_sample_cloud_validation():
    with pytest.raises(ValueError):
        relative_entropy_to_thermal(np.zeros((1, 2)))
    with pytest.raises(ValueError):
        relative_entropy_to_thermal(np.array([[1.0, math.nan]] * 5))
    est = relative_entropy_to_thermal(np.zeros((5, 2)) + np.arange(5)[:, None])
    assert (est.estimator["n"], est.estimator["dim"]) == (5, 2)


@pytest.mark.parametrize("shape", [(10, 0), (10, 2, 2), ()], ids=["no-coordinates", "3-d", "scalar"])
def test_estimator_rejects_a_cloud_it_cannot_score(shape):
    with pytest.raises(ValueError, match=r"cloud must have shape \(n,\) or \(n, dim\) with dim >= 1"):
        relative_entropy_to_thermal(np.zeros(shape))


def test_jitter_warning_points_at_the_caller():
    with pytest.warns(UserWarning) as record:
        relative_entropy_to_thermal(np.zeros((10, 2)), k=2, n_bootstrap=2)
    assert record[0].filename == __file__


# ----------------------------------------------------- analytic initial entropy


def test_gaussian_initial_entropy_values(params28):
    assert gaussian_initial_entropy(InitialCondition.thermal(), params28) == pytest.approx(0.0, abs=1e-14)
    est = gaussian_initial_entropy(InitialCondition.gaussian_product(1.0 / math.pi), params28)
    assert est == pytest.approx(1.0 - math.log(2.0), rel=1e-14)
    p1 = GeneratorParams(M=1, N=4, lambda_S=0, lambda_R=1, mu=1)
    shifted = gaussian_initial_entropy(InitialCondition.shifted_gaussian([1.0]), p1)
    assert shifted == pytest.approx(math.pi, rel=1e-14)
    with pytest.raises(ValueError):
        gaussian_initial_entropy(InitialCondition.custom(lambda p, r: np.zeros(2)), params28)


def test_initial_entropy_cross_check_by_quadrature(params28):
    s = 1.0 / math.pi
    f = norm(scale=math.sqrt(s)).pdf

    def integrand(x):
        fx = f(x)
        return fx * (math.log(fx) + math.pi * x * x)

    per_coord, _ = quad(integrand, -12, 12, epsabs=1e-12)
    total = gaussian_initial_entropy(InitialCondition.gaussian_product(s), params28)
    assert total == pytest.approx(2 * per_coord, abs=1e-9)


# --------------------------------------------------------------- decay check


def _fake_estimate(value, se=0.003):
    return EntropyEstimate(value=value, std_error=se, differential_entropy=0.0,
                           second_moment_term=0.0, estimator={})


def test_decay_check_time_zero_passes_by_construction(params28, uniform_rho):
    s0 = 0.3
    report = decay_check([0.0], [_fake_estimate(s0)], s0, params28, uniform_rho)
    assert report["rows"][0]["pass"]
    assert report["rows"][0]["envelope"] == pytest.approx(1.0)


def test_decay_check_trivial_envelope_when_decoupled(uniform_rho):
    p = GeneratorParams(M=2, N=8, lambda_S=0.0, lambda_R=1.0, mu=0.0)
    s0 = 0.3
    report = decay_check([0.0, 2.0, 9.0], [_fake_estimate(s0)] * 3, s0, p, uniform_rho)
    assert all(row["envelope"] == 1.0 for row in report["rows"])
    assert report["pass"]


def test_decay_check_flags_violations(params28, uniform_rho):
    report = decay_check([4.0], [_fake_estimate(10.0)], 0.3, params28, uniform_rho)
    assert not report["pass"]
    assert report["rows"][0]["margin"] < 0
    with pytest.raises(ValueError, match="one estimate per observation time"):
        decay_check([], [], 0.3, params28, uniform_rho)


def test_decay_check_fails_non_finite_estimate_or_se(params28, uniform_rho):
    inf, nan = float("inf"), float("nan")
    estimates = [_fake_estimate(0.1, se=inf), _fake_estimate(-inf), _fake_estimate(nan), _fake_estimate(0.1, se=nan)]
    report = decay_check([2.0] * 4, estimates, 0.3, params28, uniform_rho)
    assert [row["pass"] for row in report["rows"]] == [False] * 4
    assert decay_check([2.0], [_fake_estimate(0.1)], 0.3, params28, uniform_rho)["pass"]


def test_decay_check_default_bias_margin(params28, uniform_rho):
    report = decay_check([0.0], [_fake_estimate(0.1)], 0.1, params28, uniform_rho)
    assert report["bias_margin"] == pytest.approx(0.04)
