"""Sweep wgdisp.fourth_order's photon tables against mpmath.

    PYTHONPATH=src python tools/check_photon_table.py

For TM11, TM21, TE10 and TE11 in a 1 x 0.8 guide, at z = 0.3a and 0.6a and
with one and two transition energies, builds the photon table
(``_photon_integrals``) that ``fourth_order_oracle`` builds: on tau = 0
and on every point of the 48-point Gauss-Laguerre grid scaled by
1 / (2 k_mn) (up to about 86 / k_mn).  Each entry is compared with

    r0, r1, r2 = 2 int_0^w_max dw / kappa kappa^(0, 1, 2) e^{-z kappa} D
    rh = -2 int_0^w_max dw / kappa w^2 e^{-z kappa} D

(kappa = sqrt(k_mn^2 + w^2), D = Re[e^{i w tau} / prod_r (W_r - i w)],
w_max = k_mn sinh psi_max) at 30 significant digits: 24-point
Gauss-Legendre on pieces split at powers of two of the narrowest energy up
to 16 times it, then in steps no longer than half a period of e^{i w tau},
one decay length 1/z or the distance from w = 0, so every piece is smooth.
The reference's own error is the change from 16-point rules on the same
pieces.  Prints, per class (mode), entry and grid, the largest error
relative to the table scale (the largest |reference| over the table's
taus) and where it occurs.  Needs mpmath, which is not a declared
dependency of wgdisp.
"""

import math

import mpmath as mp
import numpy as np

from wgdisp.fourth_order import _photon_integrals
from wgdisp.waveguide import Geometry, ModeIndex, _cutoffs

mp.mp.dps = 30

GEOM = Geometry(1.0, 0.8)
MODES = [ModeIndex("TM", 1, 1), ModeIndex("TM", 2, 1),
         ModeIndex("TE", 1, 0), ModeIndex("TE", 1, 1)]
ENERGIES = [(2.0 * math.pi / 100.0,), (2.0 * math.pi / 100.0, 2.0 * math.pi / 60.0)]
ZS = (0.3, 0.6)


def gauss_legendre(points):
    """Nodes and weights of the ``points``-point rule on [-1, 1] at the
    working precision (Newton on the Legendre recurrence)."""
    nodes, weights = [], []
    for i in range(1, points + 1):
        x = mp.cos(mp.pi * (i - mp.mpf(0.25)) / (points + mp.mpf(0.5)))
        for _ in range(100):
            p0, p1 = mp.mpf(1), x
            for k in range(2, points + 1):
                p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
            dp = points * (x * p1 - p0) / (x * x - 1)
            step = p1 / dp
            x -= step
            if abs(step) < mp.mpf(10) ** (-mp.mp.dps - 5):
                break
        nodes.append(x)
        weights.append(2 / ((1 - x * x) * dp * dp))
    return nodes, weights


RULES = {points: gauss_legendre(points) for points in (16, 24)}


def pieces(kmn, z, Ws, tau):
    """Breakpoints of [0, w_max]: geometric up to 16 times the narrowest
    energy, then steps no longer than half a period of e^{i w tau}, one
    decay length 1/z or the distance from w = 0."""
    w_max = kmn * mp.sinh(mp.acosh(1 + 46 / (kmn * z)))
    points = [mp.mpf(0)] + [w for w in (min(Ws) * mp.mpf(2) ** k for k in range(-4, 5))
                            if w < w_max]
    step = min(mp.pi / tau, 1 / z) if tau > 0 else 1 / z
    while points[-1] < w_max:
        points.append(min(points[-1] + min(step, points[-1]), w_max))
    return points


def reference(kmn, z, Ws, tau, is_te, points):
    """The table entries for one tau, on the ``points``-point rule."""
    nodes, weights = RULES[points]
    kmn, z, tau = mp.mpf(kmn), mp.mpf(z), mp.mpf(tau)
    Ws = [mp.mpf(W) for W in Ws]
    sums = [mp.mpf(0)] * (1 if is_te else 3)
    edges = pieces(kmn, z, Ws, tau)
    for lo, hi in zip(edges[:-1], edges[1:]):
        half, mid = (hi - lo) / 2, (hi + lo) / 2
        for x, wt in zip(nodes, weights):
            w = mid + half * x
            kappa = mp.sqrt(kmn * kmn + w * w)
            lorentz = mp.mpc(1)
            for W in Ws:
                lorentz /= mp.mpc(W, -w)
            d = (mp.expj(w * tau) * lorentz).real
            base = half * wt / kappa * mp.exp(-z * kappa) * d
            if is_te:
                sums[0] += -w * w * base
            else:
                sums[0] += base
                sums[1] += base * kappa
                sums[2] += base * kappa * kappa
    return [2 * s for s in sums]


def main():
    lag_x = np.polynomial.laguerre.laggauss(48)[0]
    worst, ref_err = {}, 0.0
    for mode in MODES:
        kmn = float(_cutoffs(GEOM, np.array([mode.m]), np.array([mode.n]))[0])
        grids = {"tau = 0": np.array([0.0]), "48-point grid": lag_x / (2.0 * kmn)}
        for z in ZS:
            for Ws in ENERGIES:
                for grid, taus in grids.items():
                    is_te = mode.polarization == "TE"
                    got = _photon_integrals(kmn, z, [Ws], taus, is_te)[0].T
                    exact = [reference(kmn, z, Ws, t, is_te, 24) for t in taus]
                    coarse = [reference(kmn, z, Ws, t, is_te, 16) for t in taus]
                    names = ("rh",) if is_te else ("r0", "r1", "r2")
                    for c, name in enumerate(names):
                        scale = max(abs(e[c]) for e in exact)
                        for i, tau in enumerate(taus):
                            err = float(abs(got[c][i] - exact[i][c]) / scale)
                            ref_err = max(ref_err, float(abs(coarse[i][c] - exact[i][c]) / scale))
                            key = (mode.label(), name, grid)
                            if err >= worst.get(key, (-1.0,))[0]:
                                worst[key] = (err, f"z={z} energies={len(Ws)} "
                                              f"tau={tau:.4g}")
    for (label, name, grid), (err, where) in worst.items():
        print(f"{label} {name} {grid:13s}: max error / table scale {err:.2e} "
              f"at {where}")
    print(f"reference: 16- against 24-point rules differ by at most "
          f"{ref_err:.2e} of the table scale")


if __name__ == "__main__":
    main()
