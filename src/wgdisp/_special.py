"""K0, E1, erfc and erfcx in numpy, without scipy.

K0 is the radial factor of each TE mode, E1 gives the heat-kernel images of
the TE split, and erfc and erfcx the Ewald screening of both splits.  Each
function takes a scalar or an array of any shape; an argument gets the same
bits whatever array it comes in, so a one-mode view equals its entry in a
mode table.

* K0 below x = 0.1 and E1 below x = 0.5: the power series
  K0(x) = sum_k (H_k - ln(x/2) - gamma) (x^2/4)^k / (k!)^2 (H_k harmonic
  numbers) and E1(x) = -gamma - ln x - sum_{k>=1} (-x)^k / (k k!); above,
  e^x K0(x) = int_0^inf e^{-s} (s (2x + s))^{-1/2} ds and
  e^x E1(x) = int_0^inf e^{-s} / (x + s) ds.
* erfcx: exp(x^2) erfc(x) below x = 26, with x^2 split exactly; above,
  sqrt(pi) erfcx(x) = int_0^inf e^{-s} (x^2 + s)^{-1/2} ds, and from
  x = 1e150 on, where x^2 would overflow, its limit 1 / x.
* erfc: the C library's, through :func:`math.erfc` element by element.

The integrals take the trapezoidal rule after the double-exponential
substitution s = exp(u - e^{-u}) (H. Takahasi and M. Mori, Publ. RIMS Kyoto
Univ. 9 (1974) 721; M. Mori and M. Sugihara, J. Comput. Appl. Math. 127
(2001) 287), 30 nodes for the weight e^{-s} and 37 for e^{-s} s^{-1/2},
normalized to their exact moments.  The integrands are analytic up to
s = -x, -2x or -x^2, so one fixed rule serves each whole range and no
constant is fitted.

Accuracy against mpmath at 30 digits (``tools/check_special.py``): within
1.1e-15 relative for K0 and E1 on [1e-300, 700] and for erfcx on
[-26, 1e300], and 3.6e-16 for erfc on [-30, 26.5], where scipy's own erfc is
off by up to 5.6e-14 (about x^2 ulps past x = 8).  K0 and E1 underflow to
0 past about 745, as scipy's do.
"""

from __future__ import annotations

import math

import numpy as np

_EULER = 0.57721566490153286061
_INV_SQRT_PI = 1.0 / math.sqrt(math.pi)


def _rule(step, first, count, power):
    """Nodes s (a column) and weights of the rule for
    int_0^inf e^{-s} s^{power - 1} g(s) ds, normalized to Gamma(power)."""
    u = first + step * np.arange(count)[:, None]
    r = u - np.exp(-u)
    s = np.exp(r)
    w = step * (1.0 + np.exp(-u)) * np.exp(power * r - s)
    return s, w * (math.gamma(power) / w.sum())


_S, _W = _rule(0.24, -3.4, 30, 1.0)  # E1 from 0.5 and erfcx from 26 up
_S_HALF, _W_HALF = _rule(0.21, -4.15, 37, 0.5)  # K0 from 0.1 up
# Series terms k = 1..15 of E1 and k = 1..5 of K0: the last are below 1e-17
# of the sums at the top of their ranges.
_E1_TERMS = -1.0 / (np.arange(1, 16) * np.cumprod(np.arange(1, 16)))[:, None]
_K0_TERMS = 1.0 / np.cumprod(np.arange(1, 6))[:, None] ** 2
_K0_HARMONIC = np.cumsum(1.0 / np.arange(1, 6))[:, None]
_CHUNK = 512  # arguments per pass: temporaries of 37 x 512 doubles at most


def _sums(x, terms):
    """sum_j terms(c)[j, i] for each argument c[0, i] = x[i].

    numpy adds the rows of a (terms, arguments) array one after another,
    so each value depends on its argument alone, however many a pass holds;
    a single argument is doubled, as a one-column array is summed pairwise.
    """
    if x.size > _CHUNK:
        return np.concatenate([_sums(x[i:i + _CHUNK], terms)
                               for i in range(0, x.size, _CHUNK)])
    return terms((x if x.size > 1 else np.repeat(x, 2))[None, :]).sum(axis=0)[:x.size]


def _powers(c, n):
    """Rows c^1 .. c^n of a row of arguments."""
    return np.multiply.accumulate(np.repeat(c, n, axis=0), axis=0)


def _piecewise(x, floor, below, above):
    """``below`` of the arguments under ``floor`` and ``above`` of the rest,
    each taking a flat array of its own arguments, in the shape of ``x``."""
    arr = np.asarray(x, dtype=float)
    flat = arr.reshape(-1)
    low = flat < floor
    count = np.count_nonzero(low)
    if count == 0:
        out = above(flat)
    elif count == flat.size:
        out = below(flat)
    else:
        out = np.empty(flat.size)
        out[low] = below(flat[low])
        out[~low] = above(flat[~low])
    return out.reshape(arr.shape)[()]


def _k0_series(c):
    log = np.log(c) + (_EULER - math.log(2.0))  # ln(x/2) + gamma, also where x/2 = 0
    return np.concatenate([-log, _powers(0.25 * c * c, _K0_TERMS.size) * _K0_TERMS
                           * (_K0_HARMONIC - log)])


def k0(x):
    """Modified Bessel function K0(x), x > 0."""
    return _piecewise(x, 0.1, lambda x: _sums(x, _k0_series), lambda x: np.exp(
        -x) * _sums(x, lambda c: _W_HALF / np.sqrt(2.0 * c + _S_HALF)))


def exp1(x):
    """Exponential integral E1(x) = int_x^inf e^{-t} / t dt, x > 0."""
    return _piecewise(x, 0.5, lambda x: _sums(
        x, lambda c: _powers(-c, _E1_TERMS.size) * _E1_TERMS) - np.log(x) - _EULER,
        lambda x: np.exp(-x) * _sums(x, lambda c: _W / (c + _S)))


def erfc(x):
    """Complementary error function erfc(x) = 1 - erf(x)."""
    arr = np.asarray(x, dtype=float)
    return np.fromiter(map(math.erfc, arr.reshape(-1).tolist()), float,
                       arr.size).reshape(arr.shape)[()]


def _erfcx_product(x):
    """exp(x^2) erfc(x), |x| < 26, with x^2 = hi^2 + (x - hi)(x + hi) for hi
    the leading 26 bits of x, so that hi^2 is exact."""
    t = x * 134217729.0
    hi = t - (t - x)
    return np.exp(hi * hi) * np.exp((x - hi) * (x + hi)) * erfc(x)


def _erfcx_large(x):
    """erfcx(x), x >= 26: the rule, and from x = 1e150 on, where the rule's
    x^2 nears the largest double, 1 / (x sqrt(pi)), whose relative
    correction -1 / (2 x^2) is below 1e-300 there."""
    return _piecewise(x, 1e150, lambda x: _sums(
        x, lambda c: _W / np.sqrt(c * c + _S)) * _INV_SQRT_PI, lambda x: _INV_SQRT_PI / x)


def erfcx(x):
    """Scaled complementary error function exp(x^2) erfc(x), x > -26."""
    return _piecewise(x, 26.0, _erfcx_product, _erfcx_large)
