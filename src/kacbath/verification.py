"""Bundled fixture suites for the inequality lab and the discrete measures."""
from __future__ import annotations

import numpy as np

from .discretize import DiscreteAngleMeasure, SphereQuadrature
from .inequalities import (
    BLDatum,
    HeatFlowFunction,
    Profile,
    bl_inequality_check,
    entropic_nelson_check,
    entropy_dual_check,
    heat_flow_monotonicity_check,
    nelson_fixture_suite,
)
from .model import AngleDistribution, GeneratorParams
from .words import build_bl_datum

NELSON_TIMES = (0.1, 0.5, 2.0)
NELSON_ORDER = 64
BL_ORDER = 20
BL_SEED = 2024
HEAT_FLOW_TIMES = (0.25, 0.5, 1.0, 2.0, 5.0, 10.0, 25.0, 50.0)
HEAT_FLOW_SEED = 7
SPHERE_RULE_TOL = 1e-12


def random_positive_polynomials(datum: BLDatum, rng: np.random.Generator) -> list[Profile]:
    """Per map, the strictly positive factor u -> floor + (bias + slope . u)^2."""

    def factor(floor: float, bias: float, slope: np.ndarray) -> Profile:
        return lambda pts: floor + (bias + np.atleast_2d(pts) @ slope) ** 2

    funcs = []
    for b in datum.maps:
        floor = 0.3 + 0.4 * float(rng.random())
        bias = float(rng.normal(scale=0.5))
        funcs.append(factor(floor, bias, rng.normal(scale=0.5, size=b.shape[0])))
    return funcs


def gaussian_heat_functions(datum: BLDatum, rng: np.random.Generator) -> list[HeatFlowFunction]:
    funcs = []
    for b in datum.maps:
        d = b.shape[0]
        a = 0.8 + 0.8 * float(rng.random())
        center = rng.normal(scale=0.3, size=d) if d else np.zeros(0)
        funcs.append(HeatFlowFunction.gaussian(a, center=center, scale=0.5 + rng.random()))
    return funcs


def standard_bl_data() -> list[tuple[str, GeneratorParams, BLDatum]]:
    """Identity-resolving projection data from enumerated short words."""
    nu = AngleDistribution.half_pi_atoms()
    p2 = GeneratorParams(M=2, N=1, lambda_S=1.0, lambda_R=0.0, mu=1.0)
    p3 = GeneratorParams(M=3, N=1, lambda_S=1.0, lambda_R=0.0, mu=1.0)
    return [
        ("k0_dim2", p2, build_bl_datum(0, p2, nu)),
        ("k1_dim2", p2, build_bl_datum(1, p2, nu)),
        ("k1_dim3", p3, build_bl_datum(1, p3, nu)),
    ]


def run_nelson_suite() -> dict:
    checks = [entropic_nelson_check(h, t, order=NELSON_ORDER) for h in nelson_fixture_suite() for t in NELSON_TIMES]
    return {
        "n_checks": len(checks),
        "min_margin": min(c.margin for c in checks),
        "n_inconclusive": sum(c.inconclusive for c in checks),
        "pass": all(c.passed for c in checks),
    }


def run_bl_suite() -> dict:
    bl_checks = []
    dual_checks = []
    for label, params, datum in standard_bl_data():
        funcs = random_positive_polynomials(datum, np.random.default_rng(BL_SEED))
        bl_checks.append(bl_inequality_check(datum, funcs, order=BL_ORDER))
        h = HeatFlowFunction.gaussian(1.2, center=np.full(datum.ambient_dim, 0.2))
        dual_checks.append(entropy_dual_check(datum, funcs, h, order=BL_ORDER))
    checks = bl_checks + dual_checks
    return {
        "n_checks": len(checks),
        "min_bl_margin": min(c.margin for c in bl_checks),
        "min_dual_margin": min(c.margin for c in dual_checks),
        "n_inconclusive": sum(c.inconclusive for c in checks),
        "pass": all(c.passed for c in checks),
    }


def run_heat_flow_suite(t_grid=HEAT_FLOW_TIMES, order: int = 40) -> dict:
    # `order` does nothing now that Phi(t) is a closed form; bench/tracing.py::heat_flow_counts reads its default.
    results = []
    for label, params, datum in standard_bl_data():
        funcs = gaussian_heat_functions(datum, np.random.default_rng(HEAT_FLOW_SEED))
        results.append((label, heat_flow_monotonicity_check(datum, funcs, t_grid)))
    # k0_dim2's Phi is flat, so the overall minimum is its rounding; the per-datum minima show the rest
    slopes = {label: float(r.finite_differences.min()) for label, r in results}
    return {
        "n_checks": len(results),
        "min_fd_derivative": min(slopes.values()),
        "min_fd_derivative_by_datum": slopes,
        "max_limit_rel_error": max(r.limit_relative_error for _, r in results),
        "pass": all(r.passed for _, r in results),
    }


def run_inequality_suite() -> dict:
    nelson = run_nelson_suite()
    bl = run_bl_suite()
    heat = run_heat_flow_suite()
    return {
        "nelson": nelson,
        "brascamp_lieb": bl,
        "heat_flow": heat,
        "pass": bool(nelson["pass"] and bl["pass"] and heat["pass"]),
    }


def angle_measure_report(measure: DiscreteAngleMeasure, tol: float = 1e-12) -> dict:
    """Invariants of the discrete angle measure: mass, angle moment, spectrum match."""
    k, law = measure.K, measure.law
    mismatches = [
        abs(law.fourier_coefficient(m) - complex(measure.coefficients[m + 2 * k]))
        for m in range(-2 * k, 2 * k + 1)
    ]
    report = {
        "K": k,
        "n_atoms": len(law.atom_weights),
        "mass_error": abs(float(np.sum(law.atom_weights)) - 1.0),
        "sincos_moment": abs(law.sincos_moment),
        "max_fourier_mismatch": max(mismatches),
        "min_weight": float(law.atom_weights.min()),
        "fourier_hypothesis_ok": measure.fourier_hypothesis_ok,
    }
    # mass, sin*cos moment and weight signs are already enforced by AngleDistribution.atoms
    report["pass"] = bool(report["max_fourier_mismatch"] <= tol)
    return report


def sphere_rule_report(rule: SphereQuadrature) -> dict:
    second = rule.second_moment()
    report = {
        "L": rule.polar_order,
        "K": rule.azimuthal_count,
        "n_nodes": len(rule.nodes),
        "mass_error": abs(rule.mass - 1.0),
        "second_moment_max_dev": float(np.max(np.abs(second - np.eye(3) / 3.0))),
        "min_weight": float(rule.weights.min()),
    }
    report["pass"] = bool(
        report["mass_error"] <= SPHERE_RULE_TOL
        and report["second_moment_max_dev"] <= SPHERE_RULE_TOL
        and report["min_weight"] > 0.0
    )
    return report
