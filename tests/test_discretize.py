import math

import numpy as np
import pytest
from scipy.special import i0

from kacbath import AngleDistribution, build_discrete_angle_measure, build_sphere_quadrature
from kacbath.discretize import MeasureConstructionError, fejer_smooth
from kacbath.verification import angle_measure_report, sphere_rule_report
from tests.conftest import raised_cosine
from tests.oracles import sphere_quadrature_reference

TWO_PI = 2.0 * math.pi


def test_fejer_uniform_stays_uniform(uniform_rho):
    smoothed = fejer_smooth(uniform_rho, 4)
    thetas = np.linspace(-math.pi, math.pi, 33)
    assert np.max(np.abs(smoothed(thetas) - 1.0 / TWO_PI)) < 1e-15
    assert abs(smoothed.coefficient(0) - 1.0 / TWO_PI) < 1e-16
    assert smoothed.coefficient(1) == 0.0


def test_fejer_damped_first_mode():
    rho = AngleDistribution.from_density(raised_cosine)
    for k in (1, 2, 3, 5):
        smoothed = fejer_smooth(rho, k)
        expected = (1.0 / (4.0 * math.pi)) * (1.0 - 1.0 / (2 * k + 1))
        assert abs(smoothed.coefficient(1) - expected) < 1e-14


def test_fejer_preserves_zero_sincos_mode():
    # the +-2 coefficients stay conjugate-real, so the sin*cos moment is zero
    for rho in (AngleDistribution.from_density(raised_cosine), AngleDistribution.half_pi_atoms()):
        smoothed = fejer_smooth(rho, 3)
        diff = smoothed.coefficient(2) - smoothed.coefficient(-2)
        assert abs(diff.imag) < 1e-14


def test_uniform_measure_equal_weights(uniform_rho):
    for k in (1, 2, 5):
        nu = build_discrete_angle_measure(uniform_rho, k)
        n = 4 * k + 1
        assert len(nu.law.atom_weights) == n
        assert np.max(np.abs(nu.law.atom_weights - 1.0 / n)) < 1e-15
        assert abs(nu.law.sin2_moment - 0.5) < 1e-14


@pytest.mark.parametrize("k", range(1, 9))
def test_measure_invariants_both_densities(k, uniform_rho):
    for rho in (uniform_rho, AngleDistribution.from_density(raised_cosine)):
        nu = build_discrete_angle_measure(rho, k)
        report = angle_measure_report(nu)
        assert report["pass"], report


def test_fourier_equality_raised_cosine_k3():
    rho = AngleDistribution.from_density(raised_cosine)
    nu = build_discrete_angle_measure(rho, 3)
    for m in range(-6, 7):
        assert abs(nu.law.fourier_coefficient(m) - nu.smoothed.coefficient(m)) < 1e-14


def test_angle_report_pass_is_the_fourier_verdict_alone():
    # AngleDistribution.atoms enforces mass, sin*cos moment and weight signs, so only the
    # spectrum match decides `pass`; at tol = mismatch the mass error (1.1e-16 or 2.2e-16)
    # is above tol (K = 4 is left out: numpy's Gauss-Legendre rule gives it mass exactly 1)
    rho = AngleDistribution.from_density(raised_cosine)
    for k in (1, 6, 8):
        nu = build_discrete_angle_measure(rho, k)
        mismatch = angle_measure_report(nu)["max_fourier_mismatch"]
        for tol in (mismatch / 2, mismatch, 2 * mismatch):
            report = angle_measure_report(nu, tol=tol)
            assert report["pass"] == (mismatch <= tol)
        assert angle_measure_report(nu, tol=mismatch)["mass_error"] > mismatch
        assert set(report) == {"K", "n_atoms", "mass_error", "sincos_moment", "max_fourier_mismatch",
                               "min_weight", "fourier_hypothesis_ok", "pass"}


def test_atomic_input_flagged():
    rho = AngleDistribution.half_pi_atoms()
    with pytest.warns(UserWarning):
        nu = build_discrete_angle_measure(rho, 2)
    assert not nu.fourier_hypothesis_ok
    assert abs(np.sum(nu.law.atom_weights) - 1.0) < 1e-12
    assert abs(nu.law.sincos_moment) < 1e-12


def test_weak_convergence_of_smooth_density():
    # von Mises-like law: integral of sin^2 against the measure approaches the target
    norm = TWO_PI * i0(1.0)
    rho = AngleDistribution.from_density(lambda t: np.exp(np.cos(t)) / norm)
    target = rho.sin2_moment
    errs = [abs(build_discrete_angle_measure(rho, k).law.sin2_moment - target) for k in (1, 4, 16)]
    # smoothing damps mode 2 by 2/(2K+1): first-order convergence in 1/K
    assert errs[2] < 0.3 * errs[0]
    assert errs[0] > errs[1] > errs[2]
    for k in (1, 4, 16):
        expected_err = abs(rho.fourier_coefficient(2).real) * TWO_PI / (2 * k + 1)
        nu = build_discrete_angle_measure(rho, k)
        assert abs(abs(nu.law.sin2_moment - target) - expected_err) < 1e-12


def test_negative_smoothed_density_rejected():
    class BadLaw:
        kind = "density"

        def fourier_coefficient(self, m):
            # m = 0 mass coefficient negative: impossible for a true law
            return complex(-1.0 / TWO_PI) if m == 0 else 0.0j

    with pytest.raises(MeasureConstructionError):
        build_discrete_angle_measure(BadLaw(), 2)


def test_sampling_from_measure(rng, uniform_rho):
    nu = build_discrete_angle_measure(uniform_rho, 2)
    draws = nu.law.sample(rng, 50000)
    assert set(np.round(draws, 12)).issubset(set(np.round(nu.law.atom_thetas, 12)))


@pytest.mark.parametrize("k", (1, 4))
@pytest.mark.parametrize("density", (None, raised_cosine), ids=("uniform", "raised_cosine"))
def test_measure_law_is_atomic_with_its_own_sums(k, density):
    rho = AngleDistribution.uniform() if density is None else AngleDistribution.from_density(density)
    nu = build_discrete_angle_measure(rho, k)
    law = nu.law
    assert law.kind == "atoms"
    assert nu.K == k
    th, w = law.atom_thetas, law.atom_weights
    assert law.sin2_moment == float(np.sum(w * np.sin(th) ** 2))
    assert law.sincos_moment == float(np.sum(w * (np.sin(th) * np.cos(th))))
    for m in range(-2 * k, 2 * k + 1):
        assert law.fourier_coefficient(m) == complex(np.sum(w * np.exp(-1j * m * th)) / TWO_PI)


# ------------------------------------------------------------------- sphere


def test_sphere_two_point_polar_rule():
    rule = build_sphere_quadrature(2, 2)
    polar_nodes, polar_weights = rule.nodes[::4, 2], rule.weights[::4] * 8
    assert np.allclose(np.unique(polar_nodes), [-1 / math.sqrt(3), 1 / math.sqrt(3)], atol=1e-15)
    assert np.allclose(polar_weights, [1.0, 1.0], atol=1e-14)
    assert abs(rule.mass - 1.0) < 1e-14


@pytest.mark.parametrize("L", range(2, 9))
@pytest.mark.parametrize("K", range(2, 9))
def test_sphere_second_moment_identity(L, K):
    rule = build_sphere_quadrature(L, K)
    assert np.max(np.abs(rule.second_moment() - np.eye(3) / 3.0)) < 1e-12
    assert abs(rule.mass - 1.0) < 1e-12


@pytest.mark.parametrize("L", range(2, 9))
def test_sphere_rule_matches_the_loop_bit_for_bit(L):
    for K in range(2, 9):
        rule = build_sphere_quadrature(L, K)
        nodes, weights = sphere_quadrature_reference(L, K)
        assert rule.nodes.tobytes() == nodes.tobytes(), K
        assert rule.weights.tobytes() == weights.tobytes(), K


def test_sphere_polar_moments():
    # integral of cos^2 against the polar rule with the sin jacobian is 2/3;
    # integral of sin^3 likewise 4/3 (both exact from degree-2 polynomials)
    for L in range(2, 9):
        rule = build_sphere_quadrature(L, 2)
        u, w = rule.nodes[::4, 2], rule.weights[::4] * 8
        assert abs(np.dot(w, u ** 2) - 2.0 / 3.0) < 1e-13
        assert abs(np.dot(w, 1.0 - u ** 2) - 4.0 / 3.0) < 1e-13


def test_azimuthal_sums():
    for K in range(2, 9):
        phis = np.pi * np.arange(2 * K) / K
        assert abs(np.sum(np.sin(phis) * np.cos(phis))) < 1e-12
        assert abs(np.sum(np.sin(phis) ** 2) * (np.pi / K) - np.pi) < 1e-12


def test_sphere_report_and_validation():
    report = sphere_rule_report(build_sphere_quadrature(5, 4))
    assert report["pass"]
    with pytest.raises(ValueError):
        build_sphere_quadrature(1, 4)
    with pytest.raises(ValueError):
        build_sphere_quadrature(4, 1)


def test_sphere_nodes_are_unit_vectors():
    rule = build_sphere_quadrature(6, 5)
    norms = np.linalg.norm(rule.nodes, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-14
