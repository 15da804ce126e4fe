"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS line; sizes, tolerances, and runtime budgets are
fixed here rather than calibrated elsewhere.
"""
import math
import time

import numpy as np
import pytest

from kacbath import (
    AngleDistribution,
    EnsembleConfig,
    GeneratorParams,
    InitialCondition,
    build_discrete_angle_measure,
    build_sphere_quadrature,
    decay_check,
    envelope,
    envelope_poisson_sum,
    gaussian_initial_entropy,
    mc_sum_rule,
    propagate_moments,
    relative_entropy_to_thermal,
    sigma_subset_weights,
    simulate_ensemble,
)
from kacbath.engine import estimator_rng, trajectory_rng
from kacbath.model import sample_pairs_array
from kacbath.moments import fit_decay_rate
from kacbath.verification import (
    angle_measure_report,
    run_bl_suite,
    run_heat_flow_suite,
    run_nelson_suite,
)
from kacbath.words import (
    decompose,
    realize_inverse_1d,
)
from tests.conftest import raised_cosine
from tests.oracles import gaussian_marginal_check

SEED = 20240809


@pytest.fixture(scope="module")
def decay_run():
    """Shared ensemble for criteria 3 and 4: (M, N) = (2, 8), 1e5 trajectories."""
    params = GeneratorParams(M=2, N=8, lambda_S=1.0, lambda_R=1.0, mu=1.0)
    rho = AngleDistribution.uniform()
    init = InitialCondition.gaussian_product(1.0 / math.pi)
    config = EnsembleConfig(n_traj=100000, t_grid=(0.0, 0.5, 1.0, 2.0, 4.0), seed=SEED)
    t0 = time.time()
    result = simulate_ensemble(params, rho, init, config)
    return params, rho, init, config, result, time.time() - t0


def test_criterion_1_envelope_algebra(params28, uniform_rho):
    t0 = time.time()
    worst = 0.0
    for t in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0):
        closed = envelope(t, params28, uniform_rho)
        series = envelope_poisson_sum(t, params28, uniform_rho)
        expected = 0.2 + 0.8 * math.exp(-t * 0.5 * (10.0 / 8.0))
        assert abs(closed - expected) < 1e-14
        worst = max(worst, abs(closed - series))
    elapsed = time.time() - t0
    assert worst <= 1e-10
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 PASS: envelope series == closed form, max dev {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_sum_rule_monte_carlo():
    t0 = time.time()
    settings = [
        ("d=1 uniform", GeneratorParams(M=2, N=4, lambda_S=1.0, lambda_R=1.0, mu=1.0),
         AngleDistribution.uniform()),
        ("d=1 half-pi atoms", GeneratorParams(M=2, N=4, lambda_S=1.0, lambda_R=1.0, mu=1.0),
         AngleDistribution.half_pi_atoms()),
        ("d=3", GeneratorParams(M=1, N=2, lambda_S=0.0, lambda_R=1.0, mu=1.0, dimension=3),
         None),
    ]
    worst_ratio = 0.0
    for idx, (label, params, rho) in enumerate(settings):
        for k in (1, 2, 3, 5, 8):
            est = mc_sum_rule(k, params, rho, 100000, trajectory_rng(SEED, 100 * idx + k))
            assert est.passed, f"{label} k={k}: dev {est.max_deviation} vs 4se {4 * est.std_error.max()}"
            offdiag_ok = est.max_offdiagonal <= 4 * est.std_error.max() + 1e-15
            assert offdiag_ok, f"{label} k={k} off-diagonal"
            if est.std_error.max() > 0:
                worst_ratio = max(worst_ratio, est.max_deviation / (4 * est.std_error.max()))
    elapsed = time.time() - t0
    assert elapsed < 120.0
    print(f"\nACCEPTANCE 2 PASS: sum rule at 1e5 words, worst dev/4SE {worst_ratio:.2f}, {elapsed:.1f}s")


def test_criterion_3_moment_decay(decay_run):
    params, rho, init, config, result, sim_seconds = decay_run
    t0 = time.time()
    m0 = init.initial_moments(params)
    worst = 0.0
    for t, mean, se, _ in result.moment_rows():
        pred = propagate_moments(m0, t, params, rho)
        assert abs(mean - pred.m1) <= 4 * se, f"t={t}"
        worst = max(worst, abs(mean - pred.m1) / se)
    elapsed = sim_seconds + (time.time() - t0)
    assert elapsed < 300.0
    print(f"\nACCEPTANCE 3 PASS: moments at 1e5 trajectories, worst |dev|/SE {worst:.2f}, {elapsed:.1f}s")


def test_criterion_4_entropy_decay(decay_run):
    params, rho, init, config, result, sim_seconds = decay_run
    t0 = time.time()
    s0 = gaussian_initial_entropy(init, params)
    assert s0 == pytest.approx(1.0 - math.log(2.0), rel=1e-14)
    estimates = [
        relative_entropy_to_thermal(result.cloud(ti), k=4, rng=estimator_rng(SEED, ti))
        for ti in range(len(result.t_grid))
    ]
    report = decay_check(result.t_grid, estimates, s0, params, rho)
    assert report.bias_margin == pytest.approx(0.04, abs=1e-15)
    for row in report.rows:
        assert row.passed, f"t={row.t}: {row.estimate} > {row.bound}"
    assert estimates[-1].value < 0.5 * estimates[0].value
    elapsed = sim_seconds + (time.time() - t0)
    assert elapsed < 600.0
    margins = ", ".join(f"{row.margin:.3f}" for row in report.rows)
    print(f"\nACCEPTANCE 4 PASS: entropy under envelope (margins {margins}), "
          f"S(4)/S(0) = {estimates[-1].value / estimates[0].value:.3f}, {elapsed:.1f}s")


def test_criterion_5_thermostat_limit():
    t0 = time.time()
    params = GeneratorParams(M=1, N=200, lambda_S=0.0, lambda_R=1.0, mu=1.0)
    rho = AngleDistribution.uniform()
    init = InitialCondition.gaussian_product(1.0 / math.pi)
    m0 = init.initial_moments(params)
    ts = np.array([0.5, 1.0, 2.0, 4.0])
    limit = (1 * m0.m1 + 200 * m0.m2) / 201
    oracle = np.array([propagate_moments(m0, float(t), params, rho).m1 for t in ts])
    fitted = fit_decay_rate(ts, oracle, limit)
    target_rate = 0.5 * 201.0 / 200.0
    assert abs(fitted - target_rate) < 1e-12
    config = EnsembleConfig(n_traj=20000, t_grid=(0.0, 0.5, 1.0, 2.0, 4.0), seed=SEED + 5)
    result = simulate_ensemble(params, rho, init, config)
    for t, mean, se, _ in result.moment_rows():
        pred = propagate_moments(m0, t, params, rho)
        assert abs(mean - pred.m1) <= 4 * se, f"t={t}"
    elapsed = time.time() - t0
    assert elapsed < 300.0
    print(f"\nACCEPTANCE 5 PASS: thermostat rate fit |err| = {abs(fitted - target_rate):.2e}, "
          f"simulation within 4 SE, {elapsed:.1f}s")


def test_criterion_6_discretization_exactness(uniform_rho):
    t0 = time.time()
    densities = [uniform_rho, AngleDistribution.from_density(raised_cosine)]
    for rho in densities:
        for K in range(1, 9):
            report = angle_measure_report(build_discrete_angle_measure(rho, K), tol=1e-12)
            assert report["pass"], report
    for L in range(2, 9):
        for K in range(2, 9):
            rule = build_sphere_quadrature(L, K)
            assert abs(rule.mass - 1.0) <= 1e-12
            assert np.max(np.abs(rule.second_moment() - np.eye(3) / 3.0)) <= 1e-12
    for L in range(2, 9):
        rule = build_sphere_quadrature(L, 2)
        x, w = rule.nodes[::4, 2], rule.weights[::4] * 8
        for p in range(2 * L):
            exact = 2.0 / (p + 1) if p % 2 == 0 else 0.0
            assert abs(np.dot(w, x ** p) - exact) <= 1e-11
    elapsed = time.time() - t0
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 6 PASS: discrete measures exact at 1e-12, quadrature at 1e-11, {elapsed:.1f}s")


def test_criterion_7_inequality_lab():
    t0 = time.time()
    nelson = run_nelson_suite()
    assert nelson["pass"], nelson
    assert nelson["n_checks"] == 60
    bl = run_bl_suite()
    assert bl["pass"], bl
    heat = run_heat_flow_suite()
    assert heat["pass"], heat
    elapsed = time.time() - t0
    assert elapsed < 120.0
    print(f"\nACCEPTANCE 7 PASS: nelson min margin {nelson['min_margin']:.2e}, "
          f"bl {bl['min_bl_margin']:.2e}, dual {bl['min_dual_margin']:.2e}, "
          f"heat-flow fd {heat['min_fd_derivative']:.2e} limit err {heat['max_limit_rel_error']:.4f}, "
          f"{elapsed:.1f}s")


def test_criterion_8_structural_properties():
    t0 = time.time()
    params = GeneratorParams(M=2, N=4, lambda_S=1.0, lambda_R=1.0, mu=1.0)
    rho = AngleDistribution.uniform()
    n_words, k = 10000, 6
    rng = trajectory_rng(SEED, 8000)
    i0, j0, _ = sample_pairs_array(params, rng, n_words * k)
    thetas = rho.sample(rng, n_words * k)
    inverses = realize_inverse_1d(
        i0.reshape(n_words, k), j0.reshape(n_words, k), thetas.reshape(n_words, k), 6
    )
    eye6 = np.eye(6)
    eye2 = np.eye(2)
    worst = {"orth": 0.0, "blocks": 0.0, "gamma": 0.0, "svd": 0.0, "sigma": 0.0}
    for idx in range(n_words):
        inv = inverses[idx]
        worst["orth"] = max(worst["orth"], float(np.max(np.abs(inv @ inv.T - eye6))))
        spectrum = decompose(inv, 2)
        a, b = inv[:2, :2], inv[:2, 2:]
        block_defect = np.max(np.abs(a @ a.T + b @ b.T - eye2))
        worst["blocks"] = max(worst["blocks"], float(block_defect))
        worst["gamma"] = max(
            worst["gamma"],
            float(max(np.max(spectrum.gammas - 1.0), np.max(-spectrum.gammas), 0.0)),
        )
        svd_defect = np.max(np.abs(spectrum.u @ np.diag(spectrum.gammas) @ spectrum.vt - a))
        worst["svd"] = max(worst["svd"], float(svd_defect))
        _, sw = sigma_subset_weights(spectrum.gammas)
        acc = np.zeros((2, 2))
        for mask, wgt in enumerate(sw):
            proj = np.diag([0.0 if (mask >> i) & 1 else 1.0 for i in range(2)])
            acc += wgt * proj
        worst["sigma"] = max(
            worst["sigma"], float(np.max(np.abs(acc - np.diag(spectrum.gammas ** 2))))
        )
    for name, value in worst.items():
        assert value <= 1e-10, (name, value)

    params22 = GeneratorParams(M=2, N=2, lambda_S=1.0, lambda_R=1.0, mu=1.0)
    rng2 = trajectory_rng(SEED, 8001)
    i0, j0, _ = sample_pairs_array(params22, rng2, 100 * 5)
    thetas = rho.sample(rng2, 100 * 5)
    invs = realize_inverse_1d(i0.reshape(100, 5), j0.reshape(100, 5), thetas.reshape(100, 5), 4)

    def h(pts):
        x, y = pts[:, 0], pts[:, 1]
        return 1.0 + 0.4 * x - 0.2 * y + 0.3 * x * y + 0.05 * x * x

    worst_marginal = 0.0
    for idx in range(100):
        a, b = invs[idx, :2, :2], invs[idx, :2, 2:]
        res = gaussian_marginal_check(a, b, h)
        assert res.reliable
        worst_marginal = max(worst_marginal, res.max_residual)
    assert worst_marginal <= 1e-8
    elapsed = time.time() - t0
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 8 PASS: 1e4 words structural defects <= "
          f"{max(worst.values()):.2e}, marginal residual {worst_marginal:.2e}, {elapsed:.1f}s")
