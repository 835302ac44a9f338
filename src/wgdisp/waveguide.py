"""Rectangular hollow perfectly-conducting waveguide: geometry, guided-mode
index bookkeeping, cutoff spectrum, dispersion relation and normalized
transverse electric-field profiles.

Conventions. The cross-section occupies 0 <= x <= a, 0 <= y <= b; the guide
axis is z.  A mode is TE_mn or TM_mn with cutoff wavenumber

    k_mn = sqrt((m pi / a)^2 + (n pi / b)^2)

and frequency omega = c sqrt(k_mn^2 + k^2) at axial wavenumber k.  The
transverse profiles (with kappa = omega / c) are

    TM:  E_z = (2/sqrt(A)) (k_mn/kappa) sin(m pi x/a) sin(n pi y/b)
         E_x = (2/sqrt(A)) (i k/kappa) (m pi/(k_mn a)) cos(m pi x/a) sin(n pi y/b)
         E_y = (2/sqrt(A)) (i k/kappa) (n pi/(k_mn b)) sin(m pi x/a) cos(n pi y/b)

    TE:  E_x = -(2/sqrt(A)) (n pi/(k_mn b)) N cos(m pi x/a) sin(n pi y/b)
         E_y = +(2/sqrt(A)) (m pi/(k_mn a)) N sin(m pi x/a) cos(n pi y/b)

with A = a*b.  TE profiles do not depend on k.  N = 1 reproduces the
printed profiles verbatim ("paper-literal"); under the default
"unit-normalized" convention N = 1/sqrt(2) whenever m or n is zero, which
makes the cross-section integral of |E|^2 exactly 1 for every mode (the
verbatim zero-index TE profiles integrate to 2 instead).

Everything here works in natural units hbar = c = 1 with lengths in
units of your choice; the default geometry uses a = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .quad2d import integrate2d

TE = "TE"
TM = "TM"


@dataclass(frozen=True)
class Geometry:
    """Cross-section dimensions of the guide (x-extent a, y-extent b)."""

    a: float = 1.0
    b: float = 1.0

    def __post_init__(self):
        if not (self.a > 0.0 and math.isfinite(self.a)):
            raise InputError(f"geometry requires a > 0, got a={self.a!r}")
        if not (self.b > 0.0 and math.isfinite(self.b)):
            raise InputError(f"geometry requires b > 0, got b={self.b!r}")

    @property
    def area(self) -> float:
        return self.a * self.b

    @property
    def b_over_a(self) -> float:
        return self.b / self.a

    def center(self) -> "TransversePoint":
        return TransversePoint(0.5 * self.a, 0.5 * self.b)

    def contains(self, p: "TransversePoint") -> bool:
        return 0.0 <= p.x <= self.a and 0.0 <= p.y <= self.b

    def is_corner(self, p: "TransversePoint") -> bool:
        """True at the four corners, where every mode profile vanishes."""
        return p.x in (0.0, self.a) and p.y in (0.0, self.b)


@dataclass(frozen=True)
class TransversePoint:
    x: float
    y: float


@dataclass(frozen=True)
class ModeIndex:
    """One guided mode family: polarization plus transverse integers.

    TM requires m >= 1 and n >= 1; TE allows a single zero index but not
    both.
    """

    polarization: str
    m: int
    n: int

    def __post_init__(self):
        if self.polarization not in (TE, TM):
            raise InputError(f"polarization must be 'TE' or 'TM', "
                             f"got {self.polarization!r}")
        if self.m < 0 or self.n < 0:
            raise InputError(f"mode indices must be non-negative, "
                             f"got (m, n) = ({self.m}, {self.n})")
        if self.polarization == TM and (self.m < 1 or self.n < 1):
            raise InputError(f"TM modes require m >= 1 and n >= 1, "
                             f"got TM{self.m}{self.n}")
        if self.polarization == TE and self.m == 0 and self.n == 0:
            raise InputError("TE00 does not exist")

    def label(self) -> str:
        return f"{self.polarization}{self.m}{self.n}"


def cutoff_wavenumber(geom: Geometry, mode: ModeIndex) -> float:
    """Cutoff wavenumber k_mn; strictly positive for every valid mode."""
    return math.hypot(mode.m * math.pi / geom.a, mode.n * math.pi / geom.b)


def mode_frequency(geom: Geometry, mode: ModeIndex, k: float, c: float = 1.0) -> float:
    """Angular frequency omega = c sqrt(k_mn^2 + k^2)."""
    if not (c > 0.0):
        raise InputError(f"wave speed must be positive, got c={c!r}")
    return c * math.hypot(cutoff_wavenumber(geom, mode), k)


def neumann_factor(mode: ModeIndex, convention: str) -> float:
    """Zero-index normalization factor for TE profiles (1 or 1/sqrt(2))."""
    if convention == "paper-literal":
        return 1.0
    if convention == "unit-normalized":
        if mode.polarization == TE and (mode.m == 0 or mode.n == 0):
            return 1.0 / math.sqrt(2.0)
        return 1.0
    raise InputError(f"unknown profile convention {convention!r}")


def transverse_profile(
    geom: Geometry,
    mode: ModeIndex,
    k: float,
    p: TransversePoint,
    convention: str = "unit-normalized",
) -> np.ndarray:
    """Cartesian components [E_x, E_y, E_z] of the transverse profile.

    TM components along x and y are imaginary (proportional to i*k); TE
    profiles are real and independent of k.
    """
    if not geom.contains(p):
        raise InputError(f"point ({p.x}, {p.y}) lies outside the cross-section")
    kmn = cutoff_wavenumber(geom, mode)
    root_a = 2.0 / math.sqrt(geom.area)
    ax = mode.m * math.pi / geom.a
    ay = mode.n * math.pi / geom.b
    sx, cx = math.sin(ax * p.x), math.cos(ax * p.x)
    sy, cy = math.sin(ay * p.y), math.cos(ay * p.y)
    out = np.zeros(3, dtype=complex)
    if mode.polarization == TM:
        kappa = math.hypot(kmn, k)
        out[2] = root_a * (kmn / kappa) * sx * sy
        out[0] = root_a * (1j * k / kappa) * (ax / kmn) * cx * sy
        out[1] = root_a * (1j * k / kappa) * (ay / kmn) * sx * cy
    else:
        nf = neumann_factor(mode, convention)
        out[0] = -root_a * nf * (ay / kmn) * cx * sy
        out[1] = root_a * nf * (ax / kmn) * sx * cy
    return out


def normalization_integral(
    geom: Geometry,
    mode: ModeIndex,
    k: float,
    convention: str = "unit-normalized",
    tol: float = 1e-11,
) -> float:
    """Cross-section integral of |E|^2 by adaptive 2-D quadrature.

    Equals 1 for every mode under the unit-normalized convention and 2
    for zero-index TE modes under the paper-literal one.
    """

    def integrand(x, y):
        kmn = cutoff_wavenumber(geom, mode)
        ax = mode.m * math.pi / geom.a
        ay = mode.n * math.pi / geom.b
        pref = 4.0 / geom.area
        if mode.polarization == TM:
            kap2 = kmn * kmn + k * k
            ez2 = (kmn * kmn / kap2) * np.sin(ax * x) ** 2 * np.sin(ay * y) ** 2
            ex2 = (k * k / kap2) * (ax / kmn) ** 2 * np.cos(ax * x) ** 2 * np.sin(ay * y) ** 2
            ey2 = (k * k / kap2) * (ay / kmn) ** 2 * np.sin(ax * x) ** 2 * np.cos(ay * y) ** 2
            return pref * (ez2 + ex2 + ey2)
        nf = neumann_factor(mode, convention)
        ex2 = (ay / kmn) ** 2 * np.cos(ax * x) ** 2 * np.sin(ay * y) ** 2
        ey2 = (ax / kmn) ** 2 * np.sin(ax * x) ** 2 * np.cos(ay * y) ** 2
        return pref * nf * nf * (ex2 + ey2)

    value, _ = integrate2d(
        integrand, 0.0, geom.a, 0.0, geom.b,
        tol=tol,
        initial=(max(mode.m, 1), max(mode.n, 1)),
    )
    return value


def enumerate_modes(geom: Geometry, max_cutoff: float) -> list[ModeIndex]:
    """All TE and TM modes with k_mn <= max_cutoff, sorted by cutoff.

    Degenerate cutoffs are ordered TM before TE, then by descending m,
    then ascending n (so the square-guide fundamental pair lists as
    TE10, TE01).  The modes are those of :func:`mode_arrays`; the sort
    key uses :func:`cutoff_wavenumber`, the value the ``modes`` table prints.
    """
    tables = mode_arrays(geom, max_cutoff)
    found: list[tuple[float, int, int, int, ModeIndex]] = []
    for rank, pol in ((0, TM), (1, TE)):
        for m, n in zip(tables[pol]["m"].tolist(), tables[pol]["n"].tolist()):
            mode = ModeIndex(pol, m, n)
            found.append((cutoff_wavenumber(geom, mode), rank, -m, n, mode))
    found.sort(key=lambda row: row[:4])
    return [row[4] for row in found]


def mode_arrays(geom: Geometry, max_cutoff: float,
                lower_cutoff: float | None = None):
    """Vectorized mode tables for bulk summation.

    Returns a dict with, per polarization, integer arrays m, n and the
    cutoff array k, sorted by k with ties in row-major (m, n) order.  TE
    entries include the zero-index families.  Without ``lower_cutoff`` the
    tables hold every mode with k <= max_cutoff; with it, only the shell
    lower_cutoff < k <= max_cutoff.  Both edges carry the same 1e-12
    relative slack, so the shells listed between successive cutoffs,
    concatenated, are exactly the table at the last cutoff.

    Candidates are built row by row over m, each row holding only the n
    that can reach the shell, so a call costs about as many modes as it
    returns.
    """
    if not 0.0 < max_cutoff < math.inf:
        raise InputError(f"max_cutoff must be positive and finite, "
                         f"got {max_cutoff!r}")
    if lower_cutoff is None:
        floor = 0.0  # k > 0 drops only the (0, 0) pair
    elif 0.0 <= lower_cutoff < math.inf:
        floor = lower_cutoff * (1.0 + 1e-12)
    else:
        raise InputError(f"lower_cutoff must be non-negative and finite, "
                         f"got {lower_cutoff!r}")
    limit = max_cutoff * (1.0 + 1e-12)
    # Per row m, the n range [n_lo, n_hi] that can hold floor < k <= limit,
    # padded by one index on each side against rounding; the exact test
    # below decides.
    m = np.arange(0, int(limit * geom.a / math.pi) + 2)
    kx2 = (m * np.pi / geom.a) ** 2
    per_n = geom.b / np.pi
    n_hi = (np.sqrt(np.maximum(limit * limit - kx2, 0.0)) * per_n).astype(int) + 1
    n_lo = np.maximum(
        (np.sqrt(np.maximum(floor * floor - kx2, 0.0)) * per_n).astype(int) - 1, 0)
    counts = np.maximum(n_hi - n_lo + 1, 0)
    mm = np.repeat(m, counts)
    nn = np.arange(mm.size) - np.repeat(np.cumsum(counts) - counts - n_lo, counts)
    kk = np.hypot(mm * np.pi / geom.a, nn * np.pi / geom.b)
    keep = (kk > floor) & (kk <= limit)
    mm, nn, kk = mm[keep], nn[keep], kk[keep]
    order = np.argsort(kk, kind="stable")
    mm, nn, kk = mm[order], nn[order], kk[order]
    tm = (mm >= 1) & (nn >= 1)
    return {
        TM: {"m": mm[tm], "n": nn[tm], "k": kk[tm]},
        TE: {"m": mm, "n": nn, "k": kk},
    }


def mode_count(geom: Geometry, max_cutoff: float) -> int:
    """Cheap upper estimate of the number of modes below a cutoff."""
    # Quarter-disc lattice-point count per polarization, plus axis rows.
    area_density = geom.area / math.pi ** 2
    per_pol = 0.25 * math.pi * max_cutoff ** 2 * area_density
    axis = max_cutoff * (geom.a + geom.b) / math.pi
    return int(2 * per_pol + axis) + 4
