"""Check wgdisp.coupling's printed paper-literal sums against mpmath.

    PYTHONPATH=src python tools/check_printed_sums.py [separations]

``_printed_sums`` takes the printed TM cross terms (xy, yx) and the unit
zero-index TE terms (xx, yy) by a trapezoidal rule in ln t and bounds the
error of each pair.  Over guides of width 1 and heights 1, 0.7, 0.3 and
0.1, three pairs of points (off the centre lines, one on a wall, both at
the centre) and ``separations`` values of z spaced geometrically over
[0.05a, 3a], this sums the listed terms in mpmath at 30 significant digits,
to the cutoff K past which their envelopes add below 1e-6 of the bound, and
prints per guide the largest actual error over the derived bound.  Every
ratio must stay below 1.  The envelopes: each cross term is at most
2 pi^2 e^{-kz} / (A^2 k), so the TM modes past K add at most
(pi / A) e^{-(K - k_11) z} / z; each zero-index term is at most
(2/A) sqrt(pi / 2kz) e^{-kz}, so a row drops at most its first term past K
plus L / pi times the integral.  Needs mpmath, which is not a declared
dependency of wgdisp; at the default 4 separations a run takes about a
minute and a half on one core.
"""

import math
import sys

import mpmath as mp
import numpy as np

from wgdisp.coupling import _printed_sums
from wgdisp.waveguide import Geometry, TransversePoint, mode_arrays

mp.mp.dps = 30

HEIGHTS = (1.0, 0.7, 0.3, 0.1)
# Points as fractions of (a, b): off the centre lines, on the wall x = 0,
# and both at the centre, where the cross terms vanish.
POINTS = (((0.3, 0.2), (0.6, 0.5)), ((0.0, 0.3), (0.45, 0.1)), ((0.5, 0.5), (0.5, 0.5)))


def cutoff(geom, z, room):
    """The least k_11 1.1^j past which the terms' envelopes add below ``room``."""
    a, b, area = geom.a, geom.b, geom.area
    k11 = math.hypot(math.pi / a, math.pi / b)
    K = k11
    while max(math.pi / area * math.exp(-(K - k11) * z) / z,
              (2.0 / area) * math.sqrt(math.pi / (2.0 * K * z)) * math.exp(-K * z)
              * (2.0 + (a + b) / (math.pi * z))) > room:
        K *= 1.1
    return K


def exact(geom, p1, p2, z, K):
    """(xy, yx, xx, yy) summed in mpmath over the modes below K."""
    a, b, area = mp.mpf(geom.a), mp.mpf(geom.b), mp.mpf(geom.a) * mp.mpf(geom.b)
    x1, y1, x2, y2, zm = (mp.mpf(v) for v in (p1.x, p1.y, p2.x, p2.y, z))
    tm = mode_arrays(geom, K)["TM"]
    xy, yx = [], []
    for m, n in zip(tm["m"].tolist(), tm["n"].tolist()):
        al, be = m * mp.pi / a, n * mp.pi / b
        k = mp.sqrt(al * al + be * be)
        w = -2 * mp.pi ** 2 / area ** 2 * mp.exp(-k * zm) / k
        xy.append(w * mp.cos(al * x2) * mp.sin(be * y2) * mp.sin(al * x1) * mp.cos(be * y1))
        yx.append(w * mp.sin(al * x2) * mp.cos(be * y2) * mp.cos(al * x1) * mp.sin(be * y1))
    zero = []
    for length, at2, at1 in ((b, y2, y1), (a, x2, x1)):  # xx, then yy
        terms = []
        for m in range(1, int(K * float(length) / math.pi) + 1):
            k = m * mp.pi / length
            terms.append(2 / area * mp.sin(k * at2) * mp.sin(k * at1) * mp.besselk(0, k * zm))
        zero.append(mp.fsum(terms))
    return mp.fsum(xy), mp.fsum(yx), *zero


def main(separations=4):
    for height in HEIGHTS:
        geom = Geometry(1.0, height)
        worst = (0.0, None)
        for (f1, f2) in POINTS:
            p1 = TransversePoint(f1[0], f1[1] * height)
            p2 = TransversePoint(f2[0], f2[1] * height)
            for z in np.geomspace(0.05, 3.0, separations).tolist():
                cross, zero, cross_bound, zero_bound = _printed_sums(geom, p1, p2, z, 10 ** 6)
                want = exact(geom, p1, p2, z, cutoff(geom, z, 1e-6 * min(cross_bound, zero_bound)))
                for got, ref, bound in zip((*cross, *zero), want, (cross_bound,) * 2 + (zero_bound,) * 2):
                    ratio = float(abs(mp.mpf(got) - ref) / bound)
                    if ratio >= worst[0]:
                        worst = (ratio, (f1, f2, z))
        ratio, (f1, f2, z) = worst
        print(f"1 x {height:g}: max actual error / bound {ratio:.2e} at p1 = {f1}, "
              f"p2 = {f2} (fractions of a, b), z = {z:.3g}a ({separations} separations)")


if __name__ == "__main__":
    main(*(int(a) for a in sys.argv[1:]))
