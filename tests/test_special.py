"""The numpy K0, E1, erfc and erfcx of wgdisp._special against scipy.special.

Each kernel is held within 1e-14 relative of scipy over every argument
range the program reaches, wherever scipy's value is at least 1e-300.
scipy's own erfc loses about x^2 ulps past x = 8 (5.6e-14 relative at
x = 21 against mpmath), so there erfc is held against
exp(-x^2) erfcx(x) from scipy's erfcx, with x^2 split exactly.
"""

import math
import warnings

import numpy as np
import pytest
import scipy.special as sc

from wgdisp import _special

TOL = 1e-14


def _rel(got, want):
    keep = np.abs(want) >= 1e-300
    return np.abs(got[keep] / want[keep] - 1.0).max()


def _exact_exp_minus_square(x):
    """exp(-x^2) with x^2 split into hi^2 + (x - hi)(x + hi), hi 26 bits."""
    t = x * 134217729.0
    hi = t - (t - x)
    return np.exp(-hi * hi) * np.exp(-(x - hi) * (x + hi))


# Log grids over the whole range plus linear grids across each branch switch.
K0_E1_GRID = np.concatenate([np.geomspace(1e-14, 750.0, 40001),
                             np.linspace(0.05, 0.15, 4001),
                             np.linspace(0.4, 0.6, 4001),
                             np.linspace(1.0, 60.0, 8001)])


@pytest.mark.parametrize("name", ["k0", "exp1"])
def test_k0_and_e1_against_scipy(name):
    got = getattr(_special, name)(K0_E1_GRID)
    assert _rel(got, getattr(sc, name)(K0_E1_GRID)) <= TOL


def test_erfc_against_scipy():
    x = np.concatenate([np.linspace(-30.0, 8.0, 40001), np.linspace(-1.0, 1.0, 4001)])
    assert _rel(_special.erfc(x), sc.erfc(x)) <= TOL
    far = np.linspace(8.0, 27.0, 20001)
    assert _rel(_special.erfc(far), _exact_exp_minus_square(far) * sc.erfcx(far)) <= TOL


def test_erfcx_against_scipy():
    x = np.concatenate([np.linspace(0.0, 100.0, 100001), np.linspace(25.0, 27.0, 4001)])
    assert _rel(_special.erfcx(x), sc.erfcx(x)) <= TOL


def test_small_arguments():
    # The logarithmic singularities at 0, down to the smallest subnormal;
    # there scipy's K0 halves x to 0 and returns inf.
    x = np.array([1e-310, 1e-300, 1e-200, 1e-100, 1e-30])
    for name in ("k0", "exp1"):
        assert _rel(getattr(_special, name)(x), getattr(sc, name)(x)) <= TOL
    tiny = 5e-324
    assert _special.exp1(tiny) == pytest.approx(float(sc.exp1(tiny)), rel=TOL)
    assert _special.k0(tiny) == pytest.approx(
        -(math.log(tiny) - math.log(2.0)) - np.euler_gamma, rel=1e-15)


def test_underflow_together_with_scipy():
    x = np.array([746.0, 750.0, 800.0, 1e4, 1e8])
    for name in ("k0", "exp1"):
        assert np.array_equal(getattr(_special, name)(x), np.zeros_like(x))
        assert np.array_equal(getattr(sc, name)(x), np.zeros_like(x))
    assert _special.erfc(27.3) == sc.erfc(27.3) == 0.0


def test_erfc_negative_arguments():
    x = -np.geomspace(1e-8, 30.0, 2001)
    got = _special.erfc(x)
    assert _rel(got, sc.erfc(x)) <= TOL
    assert np.all(got > 1.0) and np.all(got <= 2.0)


def test_erfcx_does_not_overflow():
    x = np.array([26.0, 30.0, 100.0, 1e4, 1e8, 1e150])
    got = _special.erfcx(x)
    assert np.all(np.isfinite(got)) and np.all(got > 0.0)
    assert _rel(got, sc.erfcx(x)) <= TOL


@pytest.mark.parametrize("x", [1e154, 1e200, 1e300])
def test_erfcx_past_the_square_of_the_largest_double(x):
    # Past about 1.3e154 x^2 overflows; there erfcx(x) = 1 / (x sqrt(pi))
    # to double precision, and no warning is raised.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _special.erfcx(x)
        both = _special.erfcx(np.array([30.0, x]))
    want = 1.0 / (x * math.sqrt(math.pi))
    assert abs(got / want - 1.0) <= 1e-15
    assert both[1] == got and both[0] == _special.erfcx(30.0)


def test_value_does_not_depend_on_the_array():
    # One argument alone, in a short array or deep in a long one (several
    # passes) gives the same bits, as the bitwise mode-table tests need.
    rng = np.random.default_rng(7)
    x = np.exp(rng.uniform(math.log(1e-3), math.log(200.0), 1500))
    for name in ("k0", "exp1", "erfc", "erfcx"):
        f = getattr(_special, name)
        whole = f(x)
        assert np.array_equal(whole, [f(v) for v in x])
        assert np.array_equal(whole[700:703], f(x[700:703]))


def test_shapes():
    for name in ("k0", "exp1", "erfc", "erfcx"):
        f = getattr(_special, name)
        assert np.ndim(f(0.7)) == 0 and isinstance(float(f(0.7)), float)
        assert f(np.full((2, 3), 0.7)).shape == (2, 3)
        assert f(np.empty(0)).shape == (0,)
