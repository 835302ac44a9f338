"""Per-mode coupling functions between two dipoles on the guide axis.

Each guided mode mediates a coupling F_ij(p1, p2, z) between dipole
component j at transverse point p1 and component i at point p2, a
distance z > 0 down the axis.  In the tight-confinement regime these
reduce to closed forms:

* TM modes decay as pure exponentials exp(-k_mn z).  The axial-axial
  (zz) coupling is positive; the transverse-transverse couplings carry
  the sign of the regularized Fourier integral

      integral du u^2/(u^2+1) exp(i u zeta) = -pi exp(-zeta),  zeta > 0

  which is negative (the non-decaying constant part of the integrand
  Fourier-transforms to a delta supported at z = 0 and is dropped for
  z > 0).  ``sign_convention="oracle-consistent"`` uses that sign;
  ``"paper-literal"`` reproduces printed prefactors verbatim instead.

* TE modes couple only transverse components and decay as the modified
  Bessel function K0(k_mn z).  The contour evaluation of the mode
  integral produces a factor -2 u_e with u_e = E/(k_mn), kept under
  ``factor_convention="derivation-consistent"``; ``"paper-literal"``
  keeps the bare +1 prefactor as printed.

Mixed transverse-axial TM couplings (xz, yz against zx, zy) come from an
integrand odd in the axial wavenumber and are antisymmetric under
exchanging the roles of the two points; both orders are provided and the
assembled pair energy is insensitive to the antisymmetry because the
contraction runs over both index orders.

``f_quadrature`` evaluates the same couplings by direct numerical
integration of the defining wavenumber integrals and is the oracle the
closed forms are validated against.  Two independent regularization
routes are provided: ``real-axis-subtracted`` (cosine/sine-weighted
Fourier quadrature of the decaying remainder) and ``branch-cut-rotated``
(integration along a rotated, manifestly decaying contour).

Natural units hbar = c = 1 throughout.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .bessel import bessel_k0
from .errors import InputError, QuadratureError, TightConfinementWarning
from .waveguide import (TE, TM, Geometry, ModeIndex, TransversePoint,
                        cutoff_wavenumber, transverse_profile)

_AXES = {"x": 0, "y": 1, "z": 2}
ORIENTATIONS = ("xx", "xy", "xz", "yx", "yy", "yz", "zx", "zy", "zz")

SCHEMES = ("real-axis-subtracted", "branch-cut-rotated")

# Sign of each TM closed-form component relative to the common positive
# magnitude (4 pi / A) k_mn P_i(p2) P_j(p1) exp(-k_mn z).
_TM_SIGN_ORACLE = {
    "zz": 1.0,
    "xx": -1.0, "yy": -1.0, "xy": -1.0, "yx": -1.0,
    "xz": -1.0, "yz": -1.0,
    "zx": 1.0, "zy": 1.0,
}
# Printed prefactors keep transverse-transverse couplings positive and the
# mixed couplings symmetric.
_TM_SIGN_PAPER = {
    "zz": 1.0,
    "xx": 1.0, "yy": 1.0,
    "xz": -1.0, "yz": -1.0, "zx": -1.0, "zy": -1.0,
}


@dataclass(frozen=True)
class QuadratureSpec:
    """Scheme and accuracy controls for the wavenumber-integral oracle.

    The oscillatory routes lose relative accuracy like exp(zeta) times
    machine epsilon for zeta = k_mn z (the integral is exponentially
    small against an order-one integrand), so certifying rel_tol = 1e-9
    is possible up to zeta ~ 9; beyond that pick a looser tolerance or
    expect a QuadratureError carrying the best estimate.
    """

    scheme: str = "branch-cut-rotated"
    rel_tol: float = 1e-9
    max_subdivisions: int = 200

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise InputError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if not (0.0 < self.rel_tol <= 1e-3):
            raise InputError(f"rel_tol must lie in (0, 1e-3], got {self.rel_tol!r}")
        if self.max_subdivisions < 10:
            raise InputError("max_subdivisions must be at least 10")


@dataclass(frozen=True)
class CouplingValue:
    value: float
    mode: ModeIndex
    orientation: str
    method: str


def _check_orientation(orient: str) -> tuple[str, str]:
    if len(orient) != 2 or orient[0] not in _AXES or orient[1] not in _AXES:
        raise InputError(f"orientation must be two of 'xyz', got {orient!r}")
    return orient[0], orient[1]


def _check_separation(z: float) -> None:
    if not (z > 0.0 and math.isfinite(z)):
        raise InputError(f"axial separation must be positive, got z={z!r}")


def tm_profile_factor(geom: Geometry, mode: ModeIndex, axis: str,
                      p: TransversePoint) -> float:
    """Real transverse factor of the TM profile along one axis.

    The z factor is sin*sin; x and y carry the (index pi / k_mn length)
    ratio of the gradient components.
    """
    kmn = cutoff_wavenumber(geom, mode)
    ax = mode.m * math.pi / geom.a
    ay = mode.n * math.pi / geom.b
    if axis == "z":
        return math.sin(ax * p.x) * math.sin(ay * p.y)
    if axis == "x":
        return (ax / kmn) * math.cos(ax * p.x) * math.sin(ay * p.y)
    if axis == "y":
        return (ay / kmn) * math.sin(ax * p.x) * math.cos(ay * p.y)
    raise InputError(f"unknown axis {axis!r}")


def f_tm_closed(
    geom: Geometry,
    mode: ModeIndex,
    orient: str,
    p1: TransversePoint,
    p2: TransversePoint,
    z: float,
    sign_convention: str = "oracle-consistent",
) -> CouplingValue:
    """Closed-form TM coupling; index order is (i at p2, j at p1)."""
    i, j = _check_orientation(orient)
    _check_separation(z)
    if mode.polarization != TM:
        raise InputError(f"f_tm_closed requires a TM mode, got {mode.label()}")
    if not (geom.contains(p1) and geom.contains(p2)):
        raise InputError("dipole points must lie inside the cross-section")
    kmn = cutoff_wavenumber(geom, mode)
    decay = math.exp(-kmn * z)

    if sign_convention == "oracle-consistent":
        sign = _TM_SIGN_ORACLE[orient]
    elif sign_convention == "paper-literal":
        if orient in ("xy", "yx"):
            # Printed prefactor for the xy coupling, generalized off the
            # diagonal by splitting the double-angle factors per point.
            ax = mode.m * math.pi / geom.a
            ay = mode.n * math.pi / geom.b
            if orient == "xy":
                trig = (math.cos(ax * p2.x) * math.sin(ay * p2.y)
                        * math.sin(ax * p1.x) * math.cos(ay * p1.y))
            else:
                trig = (math.sin(ax * p2.x) * math.cos(ay * p2.y)
                        * math.cos(ax * p1.x) * math.sin(ay * p1.y))
            value = -(math.pi ** 2 / (2.0 * geom.area ** 2 * kmn)) * 4.0 * trig * decay
            return CouplingValue(value, mode, orient, "closed-form")
        sign = _TM_SIGN_PAPER[orient]
    else:
        raise InputError(f"unknown sign_convention {sign_convention!r}")

    base = (4.0 * math.pi / geom.area) * kmn * decay
    value = sign * base * tm_profile_factor(geom, mode, i, p2) \
        * tm_profile_factor(geom, mode, j, p1)
    return CouplingValue(value, mode, orient, "closed-form")


def f_te_closed(
    geom: Geometry,
    mode: ModeIndex,
    orient: str,
    p1: TransversePoint,
    p2: TransversePoint,
    z: float,
    energy: float,
    factor_convention: str = "derivation-consistent",
    normalization: str = "unit-normalized",
) -> CouplingValue:
    """Closed-form TE coupling E_i(p2) E_j(p1) * C * energy * K0(k_mn z).

    Orientations involving z return exactly 0 (no longitudinal TE
    electric field).  ``energy`` is the transition energy in units of
    hbar c / length.
    """
    i, j = _check_orientation(orient)
    _check_separation(z)
    if mode.polarization != TE:
        raise InputError(f"f_te_closed requires a TE mode, got {mode.label()}")
    if not (energy > 0.0):
        raise InputError(f"transition energy must be positive, got {energy!r}")
    if "z" in orient:
        return CouplingValue(0.0, mode, orient, "closed-form")
    kmn = cutoff_wavenumber(geom, mode)
    u_e = energy / kmn
    if u_e > 0.1:
        warnings.warn(
            f"tight-confinement parameter E/k_mn = {u_e:.3g} exceeds 0.1 for "
            f"{mode.label()}; the closed form drops O(u_e^2) corrections",
            TightConfinementWarning, stacklevel=2)
    if factor_convention == "derivation-consistent":
        factor = -2.0
    elif factor_convention == "paper-literal":
        factor = 1.0
    else:
        raise InputError(f"unknown factor_convention {factor_convention!r}")
    e2 = transverse_profile(geom, mode, 0.0, p2, normalization).real
    e1 = transverse_profile(geom, mode, 0.0, p1, normalization).real
    value = factor * energy * e2[_AXES[i]] * e1[_AXES[j]] * bessel_k0(kmn * z)
    return CouplingValue(value, mode, orient, "closed-form")


# ---------------------------------------------------------------------------
# numerical kernels
# ---------------------------------------------------------------------------

def _tm_kernel_even(orient_class: str, weighted: bool, u_e: float):
    """Even part of the dimensionless TM integrand, after subtraction.

    ``orient_class`` is "zz" or "tt" (any transverse-transverse pair); for
    "tt" the non-decaying unit constant has already been removed.
    """
    if not weighted:
        if orient_class == "zz":
            return lambda u: 1.0 / (u * u + 1.0)
        return lambda u: -1.0 / (u * u + 1.0)
    if orient_class == "zz":
        def g(u):
            om = np.sqrt(u * u + 1.0 + 0j) if np.iscomplexobj(u) else math.sqrt(u * u + 1.0)
            return 1.0 / (om * (om + u_e))
    else:
        def g(u):
            om = np.sqrt(u * u + 1.0 + 0j) if np.iscomplexobj(u) else math.sqrt(u * u + 1.0)
            return u * u / (om * (om + u_e)) - 1.0
    return g


def _tm_kernel_odd(weighted: bool, u_e: float):
    if not weighted:
        return lambda u: u / (u * u + 1.0)

    def g(u):
        om = np.sqrt(u * u + 1.0 + 0j) if np.iscomplexobj(u) else math.sqrt(u * u + 1.0)
        return u / (om * (om + u_e))
    return g


def _quad_checked(func, a, b, spec: QuadratureSpec, scale_hint: float, **kw):
    from scipy.integrate import quad

    # Request well below the target so the (often pessimistic) reported
    # error certifies the caller's tolerance.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        value, err = quad(func, a, b,
                          epsabs=max(spec.rel_tol * scale_hint * 1e-3, 1e-300),
                          epsrel=min(spec.rel_tol * 1e-2, 1e-11),
                          limit=spec.max_subdivisions, **kw)
    return value, err


def _fourier_cos(g, zeta, spec: QuadratureSpec, scale_hint: float) -> tuple[float, float]:
    """2 * integral_0^inf g(u) cos(zeta u) du via weighted quadrature."""
    from scipy.integrate import quad

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        value, err = quad(g, 0.0, np.inf, weight="cos", wvar=zeta,
                          epsabs=max(spec.rel_tol * scale_hint * 1e-2, 1e-300),
                          limit=spec.max_subdivisions,
                          limlst=spec.max_subdivisions)
    return 2.0 * value, 2.0 * err


def _fourier_sin(g, zeta, spec: QuadratureSpec, scale_hint: float) -> tuple[float, float]:
    from scipy.integrate import quad

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        value, err = quad(g, 0.0, np.inf, weight="sin", wvar=zeta,
                          epsabs=max(spec.rel_tol * scale_hint * 1e-2, 1e-300),
                          limit=spec.max_subdivisions,
                          limlst=spec.max_subdivisions)
    return 2.0 * value, 2.0 * err


_ROT = complex(math.cos(math.pi / 4.0), math.sin(math.pi / 4.0))


def _wedge_half(g, zeta, spec: QuadratureSpec, scale_hint: float) -> tuple[complex, float]:
    """integral_0^inf g(u) exp(i u zeta) du along the 45-degree ray.

    Valid for kernels analytic in the first-quadrant wedge (all kernels
    here: poles at u = +-i and branch points of sqrt(u^2+1) sit on the
    imaginary axis, outside the open wedge).
    """

    def integrand(t):
        u = _ROT * t
        return _ROT * g(np.asarray(u)) * np.exp(1j * zeta * u)

    re, re_err = _quad_checked(lambda t: integrand(t).real, 0.0, np.inf, spec, scale_hint)
    im, im_err = _quad_checked(lambda t: integrand(t).imag, 0.0, np.inf, spec, scale_hint)
    return complex(re, im), re_err + im_err


def _te_kernel_value(u_e: float, zeta: float, spec: QuadratureSpec) -> tuple[float, float]:
    """Leading tight-confinement TE kernel integral (equals -2 u_e K0)."""
    if spec.scheme == "real-axis-subtracted":
        val, err = _fourier_cos(lambda u: 1.0 / math.sqrt(u * u + 1.0),
                                zeta, spec, math.exp(-zeta))
        return -u_e * val, u_e * err
    # Decaying contour: substitute u = 1 + v^2 in the cut integral
    # integral_1^inf exp(-zeta u)/sqrt(u^2-1) du.
    def g(v):
        return 2.0 * math.exp(-zeta * (1.0 + v * v)) / math.sqrt(v * v + 2.0)

    val, err = _quad_checked(g, 0.0, np.inf, spec, math.exp(-zeta))
    return -2.0 * u_e * val, 2.0 * u_e * err


def _tm_kernel_value(orient: str, weighted: bool, u_e: float, zeta: float,
                     spec: QuadratureSpec) -> tuple[float, float]:
    """Dimensionless TM kernel integral for one orientation pair."""
    scale = math.exp(-zeta)
    if orient == "zz":
        g = _tm_kernel_even("zz", weighted, u_e)
        if spec.scheme == "real-axis-subtracted":
            return _fourier_cos(g, zeta, spec, scale)
        w, err = _wedge_half(g, zeta, spec, scale)
        return 2.0 * w.real, err
    if orient in ("xx", "yy", "xy", "yx"):
        g = _tm_kernel_even("tt", weighted, u_e)
        if spec.scheme == "real-axis-subtracted":
            return _fourier_cos(g, zeta, spec, scale)
        w, err = _wedge_half(g, zeta, spec, scale)
        return 2.0 * w.real, err
    # Mixed transverse-axial pairs: the integrand is odd in the axial
    # wavenumber, so K_xz = -2 integral_0^inf g sin(zeta u) du = -2 Im W
    # and the reversed index order flips the sign.
    g = _tm_kernel_odd(weighted, u_e)
    sign = -1.0 if orient in ("xz", "yz") else 1.0
    if spec.scheme == "real-axis-subtracted":
        val, err = _fourier_sin(g, zeta, spec, scale)
        return sign * val, err
    w, err = _wedge_half(g, zeta, spec, scale)
    return sign * 2.0 * w.imag, err


def f_quadrature(
    geom: Geometry,
    mode: ModeIndex,
    orient: str,
    p1: TransversePoint,
    p2: TransversePoint,
    z: float,
    energy: float = 0.0,
    include_energy_factor: bool = False,
    spec: QuadratureSpec | None = None,
    normalization: str = "unit-normalized",
) -> CouplingValue:
    """Numerical oracle for the per-mode coupling wavenumber integral.

    With ``include_energy_factor`` the integrand carries the weight
    omega/(omega + energy); without it the weight is 1 (for TE modes the
    unweighted integral is a delta supported at z = 0, hence exactly 0
    for z > 0).  Non-decaying integrand parts are regularized according
    to ``spec.scheme``; for TE modes the kernels keep the leading
    tight-confinement order, matching the closed-form pipeline.
    """
    i, j = _check_orientation(orient)
    _check_separation(z)
    spec = spec or QuadratureSpec()
    if include_energy_factor and not (energy > 0.0):
        raise InputError("include_energy_factor requires a positive energy")
    kmn = cutoff_wavenumber(geom, mode)
    zeta = kmn * z
    u_e = energy / kmn if include_energy_factor else 0.0

    if mode.polarization == TE:
        if "z" in orient:
            return CouplingValue(0.0, mode, orient, "quadrature")
        if not include_energy_factor:
            return CouplingValue(0.0, mode, orient, "quadrature")
        kernel, err = _te_kernel_value(u_e, zeta, spec)
        e2 = transverse_profile(geom, mode, 0.0, p2, normalization).real
        e1 = transverse_profile(geom, mode, 0.0, p1, normalization).real
        pref = e2[_AXES[i]] * e1[_AXES[j]] * kmn
        value = pref * kernel
        _enforce_tolerance(value, abs(pref) * err, spec)
        return CouplingValue(value, mode, orient, "quadrature")

    kernel, err = _tm_kernel_value(orient, include_energy_factor, u_e, zeta, spec)
    pref = (4.0 / geom.area) * kmn * tm_profile_factor(geom, mode, i, p2) \
        * tm_profile_factor(geom, mode, j, p1)
    value = pref * kernel
    _enforce_tolerance(value, abs(pref) * err, spec)
    return CouplingValue(value, mode, orient, "quadrature")


def _enforce_tolerance(value: float, err: float, spec: QuadratureSpec) -> None:
    # A zero prefactor legitimately produces value == err == 0.
    if err == 0.0:
        return
    if err > spec.rel_tol * max(abs(value), 1e-280 / spec.rel_tol):
        raise QuadratureError(
            "wavenumber integral did not reach the requested tolerance",
            best_estimate=value, achieved_error=err)
