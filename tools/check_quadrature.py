"""Sweep wgdisp.quadrature's double-exponential kernel rules against mpmath.

    PYTHONPATH=src python tools/check_quadrature.py [points per class]

For each kernel class (zz, transverse-transverse, mixed odd and TE), each
weighting and each scheme, evaluates the kernel integral at ``points``
values of zeta = k_mn z spaced geometrically over [0.5, 8] (the range that
``oracle-check`` draws) and prints the largest relative error against
mpmath at 30 significant digits, where it occurs, and the largest ratio of
the actual error to the error the rule reports (a ratio below 1 means every
reported error bounds the true one).  The exact values are pi e^{-zeta}
for the unweighted TM kernels, K0(zeta) for the TE cut integral, and
``mpmath.quadosc`` of the cosine or sine transform for the weighted TM
kernels, at u_e = E / k_mn of 1e-4, 1e-3, 1e-2 and 0.1 in turn.  Needs
mpmath, which is not a declared dependency of wgdisp.
"""

import sys

import mpmath as mp
import numpy as np

from wgdisp.quadrature import SCHEMES, _kernel_integrals

mp.mp.dps = 30

# Class name and the sign of its unweighted value against pi e^{-zeta}.
TM_CLASSES = {"zz": 1, "tt": -1, "odd": 1}
WEIGHTS = (1e-4, 1e-3, 1e-2, 0.1)


def weighted_exact(kind, u_e, zeta):
    """2 integral_0^inf g(u) cos or sin(zeta u) du of the weighted kernel."""
    u_e, zeta = mp.mpf(u_e), mp.mpf(zeta)

    def g(u):
        om = mp.sqrt(u * u + 1)
        den = om * (om + u_e)
        return {"zz": 1 / den, "odd": u / den, "tt": -(1 + om * u_e) / den}[kind]

    trig = mp.sin if kind == "odd" else mp.cos
    return 2 * mp.quadosc(lambda u: g(u) * trig(zeta * u), [0, mp.inf], omega=zeta)


def cases(points):
    """(class label, rule, exact) for every class, weighting and zeta; the
    rule takes a scheme and returns (value, reported error)."""
    zetas = np.geomspace(0.5, 8.0, points)
    for kind, sign in TM_CLASSES.items():
        for zeta in zetas:
            yield (f"{kind} unweighted", zeta,
                   lambda scheme, k=kind, z=zeta: kernel(k, False, 0.0, z, scheme),
                   sign * mp.pi * mp.exp(-mp.mpf(zeta)))
        for i, zeta in enumerate(zetas):
            u_e = WEIGHTS[i % len(WEIGHTS)]
            yield (f"{kind} weighted", zeta,
                   lambda scheme, k=kind, u=u_e, z=zeta: kernel(k, True, u, z, scheme),
                   weighted_exact(kind, u_e, zeta))
    for zeta in zetas:
        yield "TE", zeta, lambda scheme, z=zeta: te_cut(z, scheme), mp.besselk(0, mp.mpf(zeta))


def kernel(kind, weighted, u_e, zeta, scheme):
    """One kernel integral of a class and its reported error."""
    value, err = _kernel_integrals(kind, weighted, np.array([u_e]), np.array([zeta]), scheme)
    return value[0], err[0]


def te_cut(zeta, scheme):
    """The TE cut integral (K0) and its error: the kernel at u_e = 1/2 is
    -1 times it."""
    value, err = kernel("te", True, 0.5, zeta, scheme)
    return -value, err


def main(points=24):
    worst = {}
    for label, zeta, rule, exact in cases(points):
        for scheme in SCHEMES:
            value, reported = rule(scheme)
            actual = abs(mp.mpf(value) - exact)
            rel = float(actual / abs(exact))
            ratio = float(actual / reported) if reported else float("inf")
            key = (label, scheme)
            best = worst.get(key, (0.0, 0.0, 0.0))
            worst[key] = (max(best[0], rel), zeta if rel >= best[0] else best[1],
                          max(best[2], ratio))
    for (label, scheme), (rel, zeta, ratio) in worst.items():
        print(f"{label:15s} {scheme:21s}: max relative error {rel:.2e} at zeta = "
              f"{zeta:.4g}; max actual/reported error {ratio:.2e} ({points} points)")


if __name__ == "__main__":
    main(*(int(a) for a in sys.argv[1:]))
