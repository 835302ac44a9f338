"""K0 wrapper against independent references and its input checks.

Frozen constants below were computed with mpmath at 40 digits.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import k0 as scipy_k0

from helpers import k0_small_argument
from wgdisp.bessel import bessel_k0
from wgdisp.errors import InputError

K0_AT_1 = 0.4210244382407083
K0_AT_PI = 0.029508683630671742
# Remainder of the leading logarithmic expansion, mpmath-frozen.
REMAINDER_1EM4 = 2.581567973600254e-08
REMAINDER_1EM2 = 1.4302851459114829e-04


def test_reference_value_at_one():
    assert bessel_k0(1.0) == pytest.approx(K0_AT_1, rel=1e-13)


def test_reference_value_at_pi():
    assert bessel_k0(math.pi) == pytest.approx(K0_AT_PI, rel=1e-13)


def test_accuracy_against_scipy_full_domain():
    x = np.geomspace(1e-6, 700.0, 6000)
    rel = np.abs(bessel_k0(x) / scipy_k0(x) - 1.0)
    assert rel.max() <= 1e-12


def test_small_argument_expansion_remainder():
    # Leading expansion -ln(x/2) - gamma; the true remainder is slightly
    # above the round 1e-8 / 1e-4 figures sometimes quoted for these
    # arguments, so the frozen values are asserted instead.
    d4 = bessel_k0(1e-4) - k0_small_argument(1e-4)
    assert d4 == pytest.approx(REMAINDER_1EM4, rel=1e-6)
    assert abs(d4) < 3e-8
    d2 = bessel_k0(0.01) - k0_small_argument(0.01)
    assert d2 == pytest.approx(REMAINDER_1EM2, rel=1e-6)
    assert abs(d2) < 1.5e-4


def test_asymptotic_tail_ratio():
    x = 50.0
    ratio = bessel_k0(x) / (math.sqrt(math.pi / (2 * x)) * math.exp(-x))
    assert abs(ratio - 1.0) < 0.003


def test_rejects_nonpositive():
    with pytest.raises(InputError):
        bessel_k0(0.0)
    with pytest.raises(InputError):
        bessel_k0(-1.0)
    with pytest.raises(InputError):
        bessel_k0(np.array([1.0, -2.0]))


def test_array_shape_roundtrip():
    x = np.array([[0.5, 3.0], [10.0, 0.01]])
    out = bessel_k0(x)
    assert out.shape == x.shape
    assert np.allclose(out, scipy_k0(x), rtol=1e-12)


@given(st.floats(min_value=1e-6, max_value=700.0))
@settings(max_examples=200, deadline=None)
def test_positive_and_decreasing(x):
    v = bessel_k0(x)
    assert v > 0.0
    assert bessel_k0(x * 1.01) < v


@given(st.floats(min_value=1e-5, max_value=600.0))
@settings(max_examples=100, deadline=None)
def test_matches_scipy_pointwise(x):
    assert bessel_k0(x) == pytest.approx(float(scipy_k0(x)), rel=1e-12)
