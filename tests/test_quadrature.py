import math

import numpy as np
import pytest

from kacbath import build_sphere_quadrature
from kacbath.quadrature import (
    gauss_hermite_gaussian,
    gaussian_tensor_rule,
    segment_quadrature,
    tensor_rule,
)


@pytest.mark.parametrize("order", range(2, 9))
def test_exactness_on_monomials(order):
    # the sphere rule's polar Gauss-Legendre rule is exact for all monomials of
    # degree <= 2*order - 1 against the interval integral
    rule = build_sphere_quadrature(order, 2)
    x, w = rule.nodes[::4, 2], rule.weights[::4] * 8
    for p in range(2 * order):
        exact = 2.0 / (p + 1) if p % 2 == 0 else 0.0
        assert abs(np.dot(w, x ** p) - exact) < 1e-11


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
