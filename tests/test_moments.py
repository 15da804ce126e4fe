import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kacbath import (
    AngleDistribution,
    GeneratorParams,
    MomentPair,
    effective_coupling_rate,
    envelope,
    envelope_poisson_sum,
    propagate_moments,
    sum_rule_constant,
)
from kacbath.moments import POISSON_TAIL, DecayEnvelope, fit_decay_rate


def _update_matrix(params, rho=None):
    """The 2x2 map one jump, averaged over pairs and angles, applies to (m1, m2)."""
    a = effective_coupling_rate(params, rho) / params.total_rate
    b = a * (params.M / params.N)
    return np.array([[1.0 - a, a], [b, 1.0 - b]])


def test_update_matrix_eigenstructure(params28, uniform_rho):
    mat = _update_matrix(params28, uniform_rho)
    # coupling a = mu_eff / Lambda = 0.5 / 7
    assert mat[0, 1] == pytest.approx(0.5 / 7.0, abs=1e-16)
    assert mat[1, 0] == pytest.approx(0.5 / 7.0 * (2.0 / 8.0), abs=1e-16)
    vals = np.sort(np.linalg.eigvals(mat))
    expected2 = 1.0 - (0.5 / 7.0) * (1.0 + 2.0 / 8.0)
    assert abs(vals[1] - 1.0) < 1e-14
    assert abs(vals[0] - expected2) < 1e-14
    assert DecayEnvelope.from_params(params28, uniform_rho).per_jump == pytest.approx(expected2, abs=1e-15)


def test_update_matrix_3d():
    p = GeneratorParams(M=1, N=2, lambda_S=0, lambda_R=1, mu=1, dimension=3)
    assert DecayEnvelope.from_params(p).per_jump == pytest.approx(1.0 - (1.0 / 6.0) * 1.5, abs=1e-15)


@pytest.mark.parametrize("params, rho", [
    (GeneratorParams(M=2, N=8, lambda_S=1, lambda_R=1, mu=1), AngleDistribution.uniform()),
    (GeneratorParams(M=2, N=8, lambda_S=1, lambda_R=1, mu=1), AngleDistribution.half_pi_atoms()),
    (GeneratorParams(M=1, N=2, lambda_S=0, lambda_R=1, mu=1, dimension=3), None),
], ids=["1d-uniform", "1d-half-pi", "3d"])
def test_contraction_matches_eigenvalue_power_bitwise(params, rho):
    M, N = params.M, params.N
    ell2 = 1.0 - (effective_coupling_rate(params, rho) / params.total_rate) * (1.0 + M / N)
    env = DecayEnvelope.from_params(params, rho)
    for k in (0, 1, 8, 60):
        assert env.contraction(k) == M / (N + M) + (N / (N + M)) * ell2 ** k
    with pytest.raises(ValueError, match="k must be nonnegative"):
        env.contraction(-1)


def test_only_the_envelope_warns_when_bath_smaller(uniform_rho):
    # the sum rule and the moment ODE hold for any M, N; only D(t) assumes N >= M
    p = GeneratorParams(M=2, N=1, lambda_S=1, lambda_R=1, mu=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sum_rule_constant(3, p, uniform_rho)
        envelope_poisson_sum(1.0, p, uniform_rho)
        propagate_moments(MomentPair(0.9, 0.1), 1.0, p, uniform_rho)
    with pytest.warns(UserWarning, match="N >= M"):
        envelope(1.0, p, uniform_rho)


def test_contraction_at_zero_rate(uniform_rho):
    p = GeneratorParams(M=2, N=4, lambda_S=0.0, lambda_R=0.0, mu=0.0)
    env = DecayEnvelope.from_params(p, uniform_rho)
    assert env.contraction(0) == env.weight_system + env.weight_bath
    assert sum_rule_constant(0, p, uniform_rho) == 1.0
    with pytest.raises(ValueError, match="total jump rate is zero"):
        sum_rule_constant(1, p, uniform_rho)


def test_sum_rule_constant_endpoints(params28, uniform_rho):
    assert sum_rule_constant(0, params28, uniform_rho) == 1.0
    # one jump: 1 - mu_eff / Lambda, by collapsing the two-term bracket
    mu_eff = 0.5
    lam = 7.0
    assert sum_rule_constant(1, params28, uniform_rho) == pytest.approx(1 - mu_eff / lam, abs=1e-15)
    assert sum_rule_constant(4000, params28, uniform_rho) == pytest.approx(0.2, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(k=st.integers(0, 60))
def test_sum_rule_constant_range(k):
    p = GeneratorParams(M=2, N=8, lambda_S=1, lambda_R=1, mu=1)
    c = sum_rule_constant(k, p, AngleDistribution.uniform())
    assert 0.2 - 1e-12 <= c <= 1.0 + 1e-12


def test_envelope_at_zero(params28, uniform_rho):
    assert envelope(0.0, params28, uniform_rho) == pytest.approx(1.0, abs=1e-15)


def test_envelope_closed_form_values(params28, uniform_rho):
    # D(t) = 0.2 + 0.8 exp(-0.625 t) for (M, N) = (2, 8), mu = 1, uniform law
    for t in (0.5, 1.0, 2.0, 4.0):
        expected = 0.2 + 0.8 * math.exp(-0.625 * t)
        assert envelope(t, params28, uniform_rho) == pytest.approx(expected, abs=1e-15)


def test_envelope_poisson_sum_matches_closed_form(params28, uniform_rho):
    for t in (0.5, 1.0, 2.0, 4.0):
        closed = envelope(t, params28, uniform_rho)
        series = envelope_poisson_sum(t, params28, uniform_rho)
        assert abs(closed - series) < 1e-10


@pytest.mark.parametrize("lam_t", [0.5, 7.0, 1e3, 1e5, 1e6])
def test_envelope_poisson_sum_is_accurate_up_to_the_event_cap(lam_t, params28, uniform_rho):
    # the series truncates below POISSON_TAIL, and the weights from the mode add no
    # rounding of size lam_t log lam_t: at lam_t = 1e6 (the config cap) too
    thermostat = GeneratorParams(M=1, N=200, lambda_S=0.0, lambda_R=1.0, mu=1.0)
    for p in (params28, thermostat):
        t = lam_t / p.total_rate
        assert abs(envelope_poisson_sum(t, p, uniform_rho) - envelope(t, p, uniform_rho)) <= POISSON_TAIL


def test_envelope_poisson_sum_rejects_bad_times(params28, uniform_rho):
    for t in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="t must be finite and nonnegative"):
            envelope_poisson_sum(t, params28, uniform_rho)


def test_envelope_poisson_sum_no_jumps():
    p = GeneratorParams(M=2, N=4, lambda_S=0.0, lambda_R=0.0, mu=0.0)
    rho = AngleDistribution.uniform()
    assert envelope(3.0, p, rho) == 1.0
    assert envelope_poisson_sum(3.0, p, rho) == 1.0


def test_envelope_thermostat_limit():
    # huge bath at rate mu = 1: envelope collapses to exp(-t/2)
    p = GeneratorParams(M=1, N=10 ** 6, lambda_S=0.0, lambda_R=1.0, mu=1.0)
    rho = AngleDistribution.uniform()
    for t in np.linspace(0.0, 5.0, 11):
        assert abs(envelope(float(t), p, rho) - math.exp(-t / 2.0)) < 1e-5


def test_envelope_warns_when_bath_smaller():
    p = GeneratorParams(M=8, N=2, lambda_S=1, lambda_R=1, mu=1)
    with pytest.warns(UserWarning):
        DecayEnvelope.from_params(p, AngleDistribution.uniform())(1.0)


def test_classical_preset_envelope_rate():
    # preset rates give decay 2 (N+M) / (N+M-1) times the squared-sine moment
    m, n = 3, 7
    p = GeneratorParams.classical_kac(m, n)
    rho = AngleDistribution.uniform()
    env = DecayEnvelope.from_params(p, rho)
    assert env.rate == pytest.approx(0.5 * 2.0 * (m + n) / (m + n - 1), rel=1e-14)


def test_propagate_moments_trivials(params28, uniform_rho):
    m0 = MomentPair(0.4, 0.4)
    out = propagate_moments(m0, 3.3, params28, uniform_rho)
    assert out.m1 == pytest.approx(0.4, abs=1e-15)
    assert out.m2 == pytest.approx(0.4, abs=1e-15)
    m1 = MomentPair(0.9, 0.1)
    assert propagate_moments(m1, 0.0, params28, uniform_rho) == m1
    inf = propagate_moments(m1, 1e6, params28, uniform_rho)
    center = (2 * 0.9 + 8 * 0.1) / 10
    assert inf.m1 == pytest.approx(center, abs=1e-12)
    assert inf.m2 == pytest.approx(center, abs=1e-12)


def test_propagate_moments_vs_poisson_matrix_power(params28, uniform_rho):
    # independent route: average the k-fold matrix update with Poisson weights
    m0 = np.array([1.0 / math.pi, 1.0 / (2 * math.pi)])
    upd = _update_matrix(params28, uniform_rho)
    lam = params28.total_rate
    for t in (0.3, 1.0, 2.5):
        acc = np.zeros(2)
        vec = m0.copy()
        log_p = -lam * t
        k = 0
        cum = 0.0
        while cum < 1.0 - 1e-14 and k < 500:
            p = math.exp(log_p)
            acc += p * vec
            cum += p
            k += 1
            log_p += math.log(lam * t) - math.log(k)
            vec = upd @ vec
        pred = propagate_moments(MomentPair(*m0), t, params28, uniform_rho)
        assert abs(pred.m1 - acc[0]) < 1e-10
        assert abs(pred.m2 - acc[1]) < 1e-10


@settings(max_examples=60, deadline=None)
@given(
    a=st.floats(0.0, 5.0),
    b=st.floats(0.0, 5.0),
    t=st.floats(0.0, 20.0),
)
def test_energy_conservation_line(a, b, t):
    p = GeneratorParams(M=2, N=8, lambda_S=1, lambda_R=1, mu=1)
    rho = AngleDistribution.uniform()
    out = propagate_moments(MomentPair(a, b), t, p, rho)
    before = 2 * a + 8 * b
    after = 2 * out.m1 + 8 * out.m2
    assert abs(after - before) <= 1e-12 * (1.0 + before)


def test_fit_decay_rate_recovers_exact_exponential():
    ts = np.array([0.5, 1.0, 2.0, 4.0])
    rate = 0.5 * 201 / 200
    values = 0.25 + 0.7 * np.exp(-rate * ts)
    assert abs(fit_decay_rate(ts, values, 0.25) - rate) < 1e-12
    with pytest.raises(ValueError):
        fit_decay_rate(ts, np.full(4, 0.1), 0.25)


def test_moment_pair_validation():
    with pytest.raises(ValueError):
        MomentPair(-0.1, 0.5)


def test_nan_time_and_moments_raise(params28, uniform_rho):
    for call in (lambda: envelope(math.nan, params28, uniform_rho),
                 lambda: DecayEnvelope.from_params(params28, uniform_rho)(math.nan),
                 lambda: propagate_moments(MomentPair(0.3, 0.16), math.nan, params28, uniform_rho),
                 lambda: MomentPair(math.nan, 0.16),
                 lambda: MomentPair(0.3, math.nan)):
        with pytest.raises(ValueError, match="nonnegative"):
            call()
    # +inf stays accepted: both limits are defined
    assert envelope(math.inf, params28, uniform_rho) == pytest.approx(2 / 10)
    limit = propagate_moments(MomentPair(0.3, 0.16), math.inf, params28, uniform_rho)
    assert limit.m1 == limit.m2 == pytest.approx((2 * 0.3 + 8 * 0.16) / 10)


def test_zero_rate_keeps_its_start_at_infinite_time(uniform_rho):
    # rate 0 times t = inf is nan; with no coupling the gap never decays
    p = GeneratorParams(M=2, N=8, lambda_S=1.0, lambda_R=1.0, mu=0.0)
    assert envelope(math.inf, p, uniform_rho) == 1.0
    assert propagate_moments(MomentPair(0.3, 0.16), math.inf, p, uniform_rho) == MomentPair(0.3, 0.16)
