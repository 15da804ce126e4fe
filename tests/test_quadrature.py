import math

import numpy as np
import pytest

from kacbath.quadrature import (
    gauss_hermite_gaussian,
    gauss_legendre,
    gaussian_tensor_rule,
    legendre_value_and_derivative,
    segment_quadrature,
    tensor_rule,
)


@pytest.mark.parametrize("order", [2, 3, 5, 8, 16, 32, 64])
def test_gauss_legendre_matches_numpy(order):
    x, w = gauss_legendre(order)
    x_ref, w_ref = np.polynomial.legendre.leggauss(order)
    assert np.max(np.abs(x - x_ref)) < 1e-13
    assert np.max(np.abs(w - w_ref)) < 1e-13


def test_two_point_rule_is_pm_inv_sqrt3():
    x, w = gauss_legendre(2)
    assert np.allclose(x, [-1 / math.sqrt(3), 1 / math.sqrt(3)], atol=1e-15)
    assert np.allclose(w, [1.0, 1.0], atol=1e-14)


@pytest.mark.parametrize("order", range(2, 9))
def test_exactness_on_monomials(order):
    # exact for all monomials of degree <= 2*order - 1 against the interval integral
    x, w = gauss_legendre(order)
    for p in range(2 * order):
        exact = 2.0 / (p + 1) if p % 2 == 0 else 0.0
        assert abs(np.dot(w, x ** p) - exact) < 1e-11


def test_legendre_recurrence_low_orders():
    x = np.linspace(-1, 1, 7)
    p2, dp2 = legendre_value_and_derivative(2, x)
    assert np.allclose(p2, 1.5 * x * x - 0.5, atol=1e-15)
    assert np.allclose(dp2, 3.0 * x, atol=1e-12)


def test_gauss_hermite_gaussian_moments():
    x, w = gauss_hermite_gaussian(32)
    assert abs(np.sum(w) - 1.0) < 1e-14
    assert abs(np.dot(w, x ** 2) - 1.0 / (2.0 * math.pi)) < 1e-15
    assert abs(np.dot(w, x ** 4) - 3.0 / (2.0 * math.pi) ** 2) < 1e-15


def test_tensor_rule_integrates_product():
    x, w = gauss_hermite_gaussian(16)
    pts, wts = tensor_rule(x, w, 2)
    val = np.dot(wts, pts[:, 0] ** 2 * pts[:, 1] ** 2)
    assert abs(val - (1.0 / (2.0 * math.pi)) ** 2) < 1e-16


def test_tensor_rule_dim_zero():
    pts, wts = tensor_rule(np.array([1.0]), np.array([2.0]), 0)
    assert pts.shape == (1, 0)
    assert wts.tolist() == [1.0]


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_gaussian_tensor_rule_is_the_cached_tensor_rule(dim):
    pts, wts = gaussian_tensor_rule(6, dim)
    ref_pts, ref_wts = tensor_rule(*gauss_hermite_gaussian(6), dim)
    assert np.array_equal(pts, ref_pts) and np.array_equal(wts, ref_wts)
    assert gaussian_tensor_rule(6, dim)[0] is pts
    with pytest.raises(ValueError):
        pts[0, 0] = 1.0  # shared by every caller, so read-only
    if dim == 1:  # 1-D users read column 0: the plain rule, bit for bit
        x, w = gauss_hermite_gaussian(6)
        assert np.array_equal(pts[:, 0], x) and np.array_equal(wts, w)


def test_segment_quadrature_trig():
    val = segment_quadrature(np.sin, np.linspace(0, math.pi, 65))
    assert abs(val - 2.0) < 1e-13
