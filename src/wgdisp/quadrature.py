"""Per-case couplings: the closed forms of a batch of cases and the
wavenumber-integral oracle they are validated against.

A batch is one ``_Cases`` record, an array per field (each case its own
mode, points, separation and orientation); every oracle takes its modes as
one, which ``_mode_cases`` builds of a list of modes.  ``_closed_forms`` takes
their closed forms from the factor rows of :mod:`wgdisp.coupling`, one build
per polarization; ``f_tm_closed`` and ``f_te_closed`` are its one-case calls.

``_quadratures`` evaluates the same couplings for a batch of cases by
direct numerical integration of the defining wavenumber integrals, the
oracle the closed forms are validated against; ``f_quadrature`` is its
one-case call.  Two independent regularization routes are provided:
``real-axis-subtracted`` (the Fourier integral of the decaying remainder)
and ``branch-cut-rotated`` (a rotated, manifestly decaying contour), each
by double-exponential rules.  One call takes any number of schemes: the
kernel classes, distinct (u_e, zeta) and prefactors are built once, and
each scheme takes one numpy pass per kernel class and block of cases.  An
integral's error is the difference between the rules at steps h and 2h
plus a rounding floor; a value is certified when that error is within the
one relative tolerance ``_REL_TOL``, and no term of it comes from a closed
form the oracle validates.

Only the ``coupling`` command, ``oracle-check`` and the fourth-order
oracle import this module.

Natural units hbar = c = 1 throughout.
"""

from __future__ import annotations

import functools
import math
import warnings
from typing import NamedTuple

import numpy as np

from .conventions import Conventions, apply
from .coupling import _TM_CLASS, _mode_tensors, _te_rows, _tm_rows
from .errors import InputError, QuadratureError, TightConfinementWarning, _require_positive
from .waveguide import TE, TM, Geometry, ModeIndex, TransversePoint, _cutoffs

_AXES = {"x": 0, "y": 1, "z": 2}
SCHEMES = ("real-axis-subtracted", "branch-cut-rotated")


# The relative tolerance the oracle certifies.  Both schemes sum
# double-exponential rules at a fixed step and at twice it; the reported
# error is their difference plus a rounding floor of a few ulps of the sum of
# the terms' magnitudes.  The kernel integrals are exponentially small against
# an order-one integrand, so that floor grows like exp(zeta) times machine
# epsilon for zeta = k_mn z: 1e-9 is certified up to zeta ~ 9 on the real
# axis and ~ 15 on the rotated ray; beyond that a QuadratureError carries the
# best estimate.
_REL_TOL = 1e-9


# ---------------------------------------------------------------------------
# batches of cases and their closed forms
# ---------------------------------------------------------------------------

class _Cases(NamedTuple):
    """A batch of coupling cases, one entry per case in each array: the TE
    mask, the indices m and n and cutoff k (:func:`_cutoffs`) of its mode,
    its points p1 and p2 (each a :class:`TransversePoint` of arrays), its
    separation z and the axes i (at p2) and j (at p1) of its F_ij."""
    te: np.ndarray
    m: np.ndarray
    n: np.ndarray
    k: np.ndarray
    p1: TransversePoint
    p2: TransversePoint
    z: np.ndarray
    i: np.ndarray
    j: np.ndarray


def _case_batch(geom: Geometry, te, m, n, p1: TransversePoint, p2: TransversePoint, z,
                orients) -> _Cases:
    """:class:`_Cases` of one case per orientation in ``orients``, from the
    sequences ``te``, ``m``, ``n``, the coordinates of ``p1`` and ``p2``, and
    ``z`` with one entry per case."""
    i, j = np.array([[_AXES[o[0]], _AXES[o[1]]] for o in orients], dtype=int).reshape(-1, 2).T
    m, n = np.asarray(m, dtype=int), np.asarray(n, dtype=int)
    return _Cases(np.asarray(te, dtype=bool), m, n, _cutoffs(geom, m, n),
                  *(TransversePoint(np.asarray(p.x), np.asarray(p.y)) for p in (p1, p2)),
                  np.asarray(z), i, j)


@np.errstate(over="ignore")  # k_mn past the largest double: refused below
def _mode_cases(geom: Geometry, modes: list[ModeIndex], p1: TransversePoint,
                p2: TransversePoint, z: float, orients) -> _Cases:
    """The cases of ``modes`` at one pair of points and separation, one per
    orientation in ``orients`` mode by mode, once the arguments are checked."""
    for orient in orients:
        if len(orient) != 2 or orient[0] not in _AXES or orient[1] not in _AXES:
            raise InputError(f"orientation must be two of 'xyz', got {orient!r}")
    _require_positive("axial separation", z, "z=")
    if not (geom.contains(p1) and geom.contains(p2)):
        raise InputError("dipole points must lie inside the cross-section")
    listed = [mode for mode in modes for _ in orients]
    size = len(listed)
    cases = _case_batch(geom, [mode.polarization == TE for mode in listed],
                        [mode.m for mode in listed], [mode.n for mode in listed],
                        *(TransversePoint([p.x] * size, [p.y] * size) for p in (p1, p2)),
                        [z] * size, list(orients) * len(modes))
    for mode, k in zip(modes, cases.k[::len(orients)].tolist()):
        if not (0.0 < k * z and k < math.inf if mode.polarization == TE
                else 4.0 * math.pi / geom.area * k < math.inf):
            raise InputError(f"{mode.label()} has no finite coupling in the guide a={geom.a!r}, "
                             f"b={geom.b!r} at z={z!r}: a weight of its rows is not a finite "
                             f"double")
    return cases


@np.errstate(invalid="ignore")  # a TE entry past the largest double times 0: nan
def _closed_forms(geom: Geometry, cases: _Cases, energy: float,
                  conventions: Conventions) -> np.ndarray:
    """Closed-form couplings of a batch of cases under ``conventions``, TE
    ones at the transition energy ``energy``: one build of factor rows and
    couplings per polarization, each value its mode's tensor entry as a
    mode table at its points gives it."""
    te, m, n, k, p1, p2, z, i, j = cases
    lists = [(m, n, k, rows(geom, m, n, k, p1, p2)) if build else None
             for rows, build in ((_tm_rows, not te.all()), (_te_rows, te.any()))]
    tm, te_tensors = _mode_tensors(conventions, geom, *lists, p1, p2, z, energy)
    cols = np.arange(k.size)
    out = np.zeros(k.size) if te_tensors is None else te_tensors[i, j, cols]
    return out if tm is None else np.where(te, out, tm[i, j, cols])


def f_tm_closed(geom: Geometry, mode: ModeIndex, orient: str, p1: TransversePoint,
                p2: TransversePoint, z: float,
                conventions: Conventions = Conventions()) -> float:
    """Closed-form TM coupling; index order is (i at p2, j at p1)."""
    cases = _mode_cases(geom, [mode], p1, p2, z, [orient])
    if mode.polarization != TM:
        raise InputError(f"f_tm_closed requires a TM mode, got {mode.label()}")
    return float(_closed_forms(geom, cases, 0.0, conventions)[0])


def f_te_closed(geom: Geometry, mode: ModeIndex, orient: str, p1: TransversePoint,
                p2: TransversePoint, z: float, energy: float,
                conventions: Conventions = Conventions()) -> float:
    """Closed-form TE coupling E_i(p2) E_j(p1) * C * energy * K0(k_mn z).

    Orientations involving z return exactly 0 (no longitudinal TE
    electric field).  ``energy`` is the transition energy in units of
    hbar c / length.
    """
    cases = _mode_cases(geom, [mode], p1, p2, z, [orient])
    if mode.polarization != TE:
        raise InputError(f"f_te_closed requires a TE mode, got {mode.label()}")
    _require_positive("transition energy", energy)
    u_e = energy / float(cases.k[0])
    if u_e > 0.1 and "z" not in orient:
        warnings.warn(f"tight-confinement parameter E/k_mn = {u_e:.3g} exceeds 0.1 for "
                      f"{mode.label()}; the closed form drops O(u_e^2) corrections",
                      TightConfinementWarning, stacklevel=2)
    return float(_closed_forms(geom, cases, energy, conventions)[0])


# ---------------------------------------------------------------------------
# numerical kernels: double-exponential rules
# ---------------------------------------------------------------------------
#
# Each kernel integral is one trapezoidal sum in a double-exponential variable
# at the step _DE_STEP and at twice it; the error reported is their difference
# plus a rounding floor _DE_ROUNDING sum |w_i f_i| of the fine sum's terms.
#
# * branch-cut-rotated: the exp-sinh substitution x = exp(s - e^{-s}) of
#   integral_0^inf f(x) dx (H. Takahasi and M. Mori, Publ. RIMS Kyoto Univ. 9
#   (1974) 721; M. Mori and M. Sugihara, J. Comput. Appl. Math. 127 (2001)
#   287), on integrands that decay along the 45-degree ray or the TE cut.
#   The coarse nodes are every other fine node.
# * real-axis-subtracted: the rule of T. Ooura and M. Mori for Fourier
#   integrals (J. Comput. Appl. Math. 38 (1991) 353; 112 (1999) 229),
#   y = M phi(t) with M = pi / h, whose nodes approach the zeros of the sine
#   or cosine double-exponentially.  M changes with the step, so the coarse
#   rule has nodes of its own.
#
# Many cases share one numpy pass, one row of nodes each; each row is summed
# over its own nodes alone, so a value has the same bits in any batch.

# Any step from 1/28 to 1/48 reaches the same accuracy; at 1/30 the weighted
# TM kernels round so that the pair energies pinned bit for bit in
# tests/test_fourth_order.py and the twelve-diagram consistency of
# oracle-check keep the last bits they had under QUADPACK.
_DE_STEP = 1.0 / 30.0
# Exp-sinh rule: s from -4.5 (x ~ 1e-41) to 50 (x ~ 5e21).  Nodes run up to
# where the integrand's decay factor is e^{-_RAY_REACH} or less.
_RAY_SPAN = (-4.5, 50.0)
_RAY_REACH = 100.0
# Ooura-Mori rule: t from -7 to 5.5; the end terms are below 3e-21 of the
# integrals for zeta up to 8 (and below the rounding floor beyond).
_FOURIER_SPAN = (-7.0, 5.5)
# Rounding floor: a few ulps per term times about sqrt(N), the typical growth
# of rounding in a sum of N ~ 300-600 terms.  tools/check_quadrature.py finds
# every actual error below 3% of the reported one for zeta in [0.5, 8].
_DE_ROUNDING = 50.0 * np.finfo(float).eps
_ROT = complex(math.cos(math.pi / 4.0), math.sin(math.pi / 4.0))
# Nodes per pass of a batch of kernel integrals, complex temporaries of 128 KiB:
# numpy takes a * (b + c) of 256 KiB or more in place as (b + c) * a, whose
# complex product rounds differently, so larger passes would move values.
_CASE_NODES = 8192


@functools.cache
def _ray_rule(step: float = _DE_STEP, end: float = _RAY_SPAN[1]):
    """Nodes x and weights h dx/ds of the exp-sinh rule, s from _RAY_SPAN[0] to ``end``."""
    lo = _RAY_SPAN[0]
    s = lo + step * np.arange(round((end - lo) / step) + 1)
    x = np.exp(s - np.exp(-s))
    return x, step * x * (1.0 + np.exp(-s))


@functools.cache
def _fourier_rule(step: float, sine: bool):
    """Nodes y and weights W of the Ooura-Mori rule at ``step``:
    integral_0^inf f(y) sin y dy (``sine``) or f(y) cos y dy ~ sum W f(y).

    phi(t) = t / (1 - e^{-eta}), eta = 2t + alpha (1 - e^{-t}) + beta (e^t - 1),
    beta = 1/4, alpha = beta / sqrt(1 + M ln(1 + M) / 4 pi), at
    t = n h (sine) or (n - 1/2) h (cosine), where M t is a zero of the
    trigonometric factor; past t = 0 that factor is taken as
    (-1)^n sin(M (phi - t)), which keeps its approach to zero.
    """
    big_m = math.pi / step
    alpha = 0.25 / math.sqrt(1.0 + big_m * math.log1p(big_m) / (4.0 * math.pi))
    lo, hi = _FOURIER_SPAN
    n = np.arange(math.ceil(lo / step), math.floor(hi / step) + 1)
    t = step * (n if sine else n - 0.5)
    et = np.exp(t)
    eta = 2.0 * t - alpha * np.expm1(-t) + 0.25 * np.expm1(t)
    em, ee = np.expm1(eta), np.exp(eta)
    with np.errstate(invalid="ignore"):  # t = 0 (sine): 0/0, replaced below
        phi = t * ee / em
        dphi = (em - t * (2.0 + alpha / et + 0.25 * et)) * ee / em ** 2
    if sine:  # limits at t = 0 from eta'(0) = d1 and eta''(0) = d2
        d1, d2 = 2.25 + alpha, 0.25 - alpha
        phi[n == 0], dphi[n == 0] = 1.0 / d1, 0.5 - d2 / (2.0 * d1 * d1)
    y = big_m * phi
    direct = np.sin(y) if sine else np.cos(y)
    with np.errstate(invalid="ignore", divide="ignore"):
        near_zero = np.where(n % 2 == 0, 1.0, -1.0) * np.sin(big_m * t / em)
    return y, math.pi * dphi * np.where(t > 0.0, near_zero, direct)


def _kernel_integrals(kind: str, weighted: bool, u_e: np.ndarray, zeta: np.ndarray,
                      scheme: str) -> tuple[np.ndarray, np.ndarray]:
    """Dimensionless kernel integrals of one class and their errors, one per
    element of the 1-D arrays ``u_e`` and ``zeta``.

    "te": -2 u_e integral_0^inf cos(zeta u) / sqrt(u^2 + 1) du (= -2 u_e K0),
    on the ray as the cut integral of exp(-zeta u)/sqrt(u^2-1) from 1, with
    u = 1 + v^2, v = x / sqrt(max(zeta, 1)).  TM: twice the cosine transform
    of 1/den ("zz") or -1/den ("tt", the unit constant removed), or twice
    the sine transform of u/den ("odd", with the sign of zx and zy); den is
    u^2 + 1, or with ``weighted`` omega (omega + u_e), omega = sqrt(u^2 + 1),
    whose tt numerator u^2 - omega (omega + u_e) is written -(1 + omega u_e).
    On the ray: 2 Re or Im of integral_0^inf g(u) exp(i u zeta) du along
    u = e^{i pi/4} t, t = x / max(zeta, 1) (the poles at u = +-i and the
    branch points of omega lie outside the open first-quadrant wedge), on
    the nodes up to each case's extent, with an inf error past the rule.
    """
    ray = scheme == "branch-cut-rotated"
    x, w = _ray_rule()
    if not ray:
        counts = np.full(zeta.size, _fourier_rule(_DE_STEP, kind == "odd")[0].size)
    elif kind == "te":
        c = 1.0 / np.sqrt(np.maximum(zeta, 1.0))
        counts = np.searchsorted(x, np.sqrt(_RAY_REACH / zeta) / c, side="right")
    else:
        scale = np.maximum(zeta, 1.0)
        counts = np.searchsorted(x, _RAY_REACH * scale / zeta, side="right")
    block = max(1, _CASE_NODES // int(counts.max()))
    if zeta.size > block:
        parts = [_kernel_integrals(kind, weighted, u_e[lo:lo + block], zeta[lo:lo + block],
                                   scheme) for lo in range(0, zeta.size, block)]
        return tuple(np.concatenate(part) for part in zip(*parts))
    zc, ue, nodes = zeta[:, None], u_e[:, None], int(counts.max())

    def g(u):
        om = np.sqrt(u * u + 1.0) if weighted or kind == "te" else None
        if kind == "te":
            return 1.0 / om
        den = om * (om + ue) if weighted else u * u + 1.0
        if kind == "tt":
            return -(1.0 + om * ue) / den if weighted else -1.0 / den
        return u / den if kind == "odd" else 1.0 / den

    if not ray:
        (y, w), (yc, wc) = (_fourier_rule(step, kind == "odd")
                            for step in (_DE_STEP, 2.0 * _DE_STEP))
        terms = w * g(y / zc) / zc
        coarse = np.array([float(wc @ row) for row in g(yc / zc)]) / zeta
    elif kind == "te":
        v = c[:, None] * x[:nodes]
        scale = 2.0 * c * np.array([math.exp(-t) for t in zeta.tolist()])
        terms = w[:nodes] * (scale[:, None] * np.exp(-zc * v * v) / np.sqrt(v * v + 2.0))
    else:
        # Python's complex division: numpy's rounds some quotients differently.
        rot = np.array([_ROT / s for s in scale.tolist()])[:, None]
        u = rot * x[:nodes]
        f = rot * g(u) * np.exp(1j * zc * u)
        terms = w[:nodes] * (f.imag if kind == "odd" else f.real)
    # Each row summed over its own nodes alone: padding moves numpy's pairwise blocks.
    value, total, half = (np.empty(zeta.size) for _ in range(3))
    for count in set(counts.tolist()):  # np.unique imports numpy.ma: 1.6 MB of RSS
        rows = counts == count
        fine = terms[rows, :count]
        value[rows], total[rows], half[rows] = (
            fine.sum(axis=1), np.abs(fine).sum(axis=1), fine[:, ::2].sum(axis=1))
    err = np.abs(value - (2.0 * half if ray else coarse)) + _DE_ROUNDING * total
    err[(counts == x.size) & ray] = math.inf  # the ray's extent past its last node
    if not ray:  # u^2 of the last node past the largest double: terms lost to 0
        err[~((y[-1] / zeta) ** 2 < math.inf)] = math.inf
    err[np.isnan(err)] = math.inf
    factor = -2.0 * u_e if kind == "te" else 2.0
    return factor * value, np.abs(factor) * err


# :func:`_quadratures` keys a case's kernel class by 2 c + weighted, with c
# the index in _KINDS: 0 for TE, _TM_KIND[i, j] for TM.  _KERNEL_SIGN[i, j]
# is the sign of a kernel: xz and yz take the odd kernel reversed.
_KINDS = ("te", "zz", "odd", "tt")
_TM_KIND = 3 - _TM_CLASS
_KERNEL_SIGN = np.array([[1.0, 1.0, -1.0], [1.0, 1.0, -1.0], [1.0, 1.0, 1.0]])


# Past the largest double (zeta near 0 or huge, a huge u_e, a TE prefactor) a
# count, term or value is inf or nan, and its error inf or the value refused.
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _quadratures(geom: Geometry, cases: _Cases, energies, schemes,
                 conventions: Conventions) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Wavenumber integrals of a batch of cases under each of ``schemes``:
    arrays of values, errors and uncertified flags (the values that miss
    _REL_TOL), shape (len(schemes), number of cases).  ``energies[c]`` is
    case c's transition energy, 0.0 for the integrand without the weight
    omega/(omega + E).  The kernel classes, each class's distinct (u_e, zeta)
    in order of first use (a TE draw's components share theirs) and the
    prefactors are built once; each scheme takes one :func:`_kernel_integrals`
    call per class.  Of ``conventions`` only the TE normalization applies."""
    for scheme in schemes:
        if scheme not in SCHEMES:
            raise InputError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
    te, m, n, k, p1, p2, z, i, j = cases
    energies = np.asarray(energies, dtype=float)
    weighted = energies > 0.0
    kind = _TM_KIND[i, j]
    live = np.flatnonzero(~te | ((kind == 3) & weighted))  # TE cases: else exactly 0
    index = {}
    slot = [index.setdefault(key, len(index)) for key in zip(
        (2 * np.where(te, 0, kind) + weighted)[live].tolist(), (energies / k)[live].tolist(),
        (k * z)[live].tolist())]
    code, u_e, zeta = np.array(list(index)).reshape(-1, 3).T
    members = {c: np.flatnonzero(code == c) for c in dict.fromkeys(code.tolist())}
    cols = np.arange(k.size)
    rows = np.zeros((6, k.size))  # TE rows in the TM rows' places; z rows zero
    if te.any():
        rows[[0, 1, 3, 4]] = _te_rows(geom, m, n, k, p1, p2)
    pref = rows[i, cols] * rows[3 + j, cols] * k
    if not te.all():
        tm = _tm_rows(geom, m, n, k, p1, p2)
        pref = np.where(te, pref, (4.0 / geom.area) * k * tm[i, cols] * tm[3 + j, cols])
    pref *= _KERNEL_SIGN[i, j]  # exact: the kernel's sign moved onto its factor
    kernel = np.zeros((2, len(schemes), code.size))  # values and errors per distinct case
    for s, scheme in enumerate(schemes):
        for c, at in members.items():
            kernel[:, s, at] = _kernel_integrals(_KINDS[int(c) // 2], c % 2 == 1, u_e[at],
                                                 zeta[at], scheme)
    value, error = np.zeros((2, len(schemes), k.size))
    value[:, live], error[:, live] = kernel[:, :, slot]
    # Adding 0.0 turns the -0.0 of a zero prefactor times a negative kernel
    # into 0.0, as the closed forms give, and leaves every other value as it is.
    value = pref * value + 0.0
    error = np.where(pref == 0.0, 0.0, error * np.abs(pref))  # 0 also past the rule (inf * 0)
    if conventions.printed:  # values and errors of zero-index TE cases once more
        both = np.array([value, error])
        value, error = apply(conventions, None, both, zero=np.where(
            te & ((m == 0) | (n == 0)), both, 0.0), oracle=True)[1]
    # A zero prefactor legitimately produces value == error == 0.
    return value, error, (error != 0.0) & (
        error > _REL_TOL * np.maximum(np.abs(value), 1e-280 / _REL_TOL))


def _certified(values: np.ndarray, errors: np.ndarray, uncertified: np.ndarray) -> np.ndarray:
    """The values of a one-scheme :func:`_quadratures` call, or the
    QuadratureError of its first uncertified one."""
    if uncertified.any():
        c = int(np.argmax(uncertified[0]))
        raise QuadratureError("wavenumber integral did not reach the requested tolerance",
                              best_estimate=values[0, c], achieved_error=errors[0, c])
    return values[0]


def f_quadrature(geom: Geometry, mode: ModeIndex, orient: str, p1: TransversePoint,
                 p2: TransversePoint, z: float, energy: float | None = None,
                 scheme: str = "branch-cut-rotated",
                 conventions: Conventions = Conventions()) -> float:
    """Numerical oracle for the per-mode coupling wavenumber integral.

    With a transition ``energy`` (positive) the integrand carries the weight
    omega/(omega + energy); with None the weight is 1 (for TE modes the
    unweighted integral is a delta supported at z = 0, hence exactly 0
    for z > 0).  Non-decaying integrand parts are regularized according
    to ``scheme``; for TE modes the kernels keep the leading
    tight-confinement order, matching the closed-form pipeline.  Of
    ``conventions`` only the TE normalization applies.
    """
    cases = _mode_cases(geom, [mode], p1, p2, z, [orient])
    if energy is not None:
        _require_positive("transition energy", energy)
    return float(_certified(*_quadratures(geom, cases, [energy or 0.0], [scheme],
                                          conventions))[0])
