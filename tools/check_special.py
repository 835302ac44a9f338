"""Sweep wgdisp._special's K0, E1, erfc and erfcx against mpmath.

    PYTHONPATH=src python tools/check_special.py [points per range]

For each function and argument range, evaluates the numpy kernel on a
geometric (or, for ranges through zero, linear) grid and prints the largest
relative error against mpmath at 30 significant digits, over the arguments
whose exact value is at least 1e-300, and where it occurs.  The kernels
have no fitted constants (their nodes and series terms are computed at
import), so there is nothing to regenerate.  Needs mpmath, which is not a
declared dependency of wgdisp.
"""

import sys

import mpmath as mp
import numpy as np

from wgdisp import _special

mp.mp.dps = 30


def erfcx(x):
    """exp(x^2) erfc(x).  From x = 1e4 on, where x^2 rounded to 30 digits
    leaves exp(x^2) too few of them, by the asymptotic series
    sum_k (-1)^k (2k - 1)!! / (2 x^2)^k / (x sqrt(pi)), summed until a term
    is below 1e-40: its error is below the first term it drops."""
    if x < 1e4:
        return mp.erfc(x) * mp.exp(x * x)
    term = total = mp.mpf(1)
    k = 0
    while abs(term) > mp.mpf("1e-40"):
        k += 1
        term *= -(2 * k - 1) / (2 * x * x)
        total += term
    return total / (x * mp.sqrt(mp.pi))


EXACT = {
    "k0": lambda x: mp.besselk(0, x),
    "exp1": mp.e1,
    "erfc": mp.erfc,
    "erfcx": erfcx,
}
RANGES = {
    "k0": [(1e-300, 1e-14), (1e-14, 0.1), (0.1, 0.5), (0.5, 2.0), (2.0, 20.0),
           (20.0, 700.0)],
    "exp1": [(1e-300, 1e-14), (1e-14, 0.5), (0.5, 2.0), (2.0, 20.0), (20.0, 700.0)],
    "erfc": [(-30.0, -1.0), (-1.0, 1.0), (1.0, 8.0), (8.0, 26.5)],
    "erfcx": [(-26.0, 0.0), (0.0, 0.5), (0.5, 26.0), (26.0, 100.0), (100.0, 1e4),
              (1e4, 1e300)],
}


def grid(lo, hi, n):
    if lo > 0.0:
        return np.geomspace(lo, hi, n)
    return np.linspace(lo, hi, n)


def main(points=2000):
    for name, ranges in RANGES.items():
        kernel, exact = getattr(_special, name), EXACT[name]
        for lo, hi in ranges:
            x = grid(lo, hi, points)
            got = kernel(x)
            want = np.array([exact(mp.mpf(float(v))) for v in x])
            keep = np.array([abs(w) >= mp.mpf("1e-300") for w in want])
            rel = np.array([float(abs(mp.mpf(float(g)) / w - 1)) if k else 0.0
                            for g, w, k in zip(got, want, keep)])
            worst = int(rel.argmax())
            print(f"{name:6s} [{lo:g}, {hi:g}]: max relative error {rel.max():.2e} "
                  f"at x = {x[worst]:.6g} ({int(keep.sum())} points)")


if __name__ == "__main__":
    main(*(int(a) for a in sys.argv[1:]))
