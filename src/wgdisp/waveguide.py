"""Rectangular hollow perfectly-conducting waveguide: geometry, guided-mode
index bookkeeping, cutoff spectrum and dispersion relation.

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

with A = a*b.  TE profiles do not depend on k.  N = 1/sqrt(2) whenever m
or n is zero makes the cross-section integral of |E|^2 exactly 1 for every
mode, as the default convention bundle takes them; N = 1, the printed
profiles of the "paper-literal" bundle, makes it 2 for zero-index TE modes.
Every coupling is built from unit-normalized factor rows
(``wgdisp.coupling._tm_rows`` and ``_te_rows``), and
:func:`wgdisp.conventions.apply` takes a zero-index TE coupling twice for
the printed profiles.

Everything here works in natural units hbar = c = 1 with lengths in
units of your choice; the default geometry uses a = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, ModeCapError, _require_positive

TE = "TE"
TM = "TM"

# Most modes a mode sum or a mode listing may hold.
MODE_CAP = 1_000_000


@dataclass(frozen=True)
class Geometry:
    """Cross-section dimensions of the guide (x-extent a, y-extent b)."""

    a: float = 1.0
    b: float = 1.0

    def __post_init__(self):
        if not (self.a > 0.0 and math.isfinite(self.a)):
            raise InputError(f"geometry requires a positive and finite a, got a={self.a!r}")
        if not (self.b > 0.0 and math.isfinite(self.b)):
            raise InputError(f"geometry requires a positive and finite b, got b={self.b!r}")

    @property
    def area(self) -> float:
        return self.a * self.b

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
    """Cutoff wavenumber k_mn of ``mode``, strictly positive: the value of
    :func:`_cutoffs`, so the k of every mode sum and of the ``modes`` table."""
    with np.errstate(over="ignore"):  # inf past the largest double, as in mode_arrays
        return float(_cutoffs(geom, np.array([mode.m], float), np.array([mode.n], float))[0])


def enumerate_modes(geom: Geometry, max_cutoff: float) -> list[ModeIndex]:
    """All TE and TM modes of :func:`mode_arrays` with k_mn <= max_cutoff,
    sorted by their k_mn there, the k of every mode sum.

    Degenerate cutoffs are ordered TM before TE, then by descending m,
    then ascending n (so the square-guide fundamental pair lists as
    TE10, TE01).  A cutoff with more than ``MODE_CAP`` modes by
    :func:`mode_count` raises ModeCapError before any mode is listed.
    """
    if 0.0 < max_cutoff < math.inf and mode_count(geom, max_cutoff) > MODE_CAP:
        raise ModeCapError(mode_count(geom, max_cutoff), MODE_CAP)
    tables = mode_arrays(geom, max_cutoff)
    m, n, k = (np.concatenate((tables[TM][key], tables[TE][key])) for key in ("m", "n", "k"))
    te = np.arange(k.size) >= tables[TM]["k"].size
    order = np.lexsort((n, -m, te, k))
    return [ModeIndex(TE if t else TM, mi, ni) for t, mi, ni in
            zip(te[order].tolist(), m[order].tolist(), n[order].tolist())]


def mode_arrays(geom: Geometry, max_cutoff: float):
    """Vectorized mode tables for bulk summation.

    Returns a dict with, per polarization, integer arrays m, n and the
    cutoff array k of every mode with k <= max_cutoff (1 + 1e-12), sorted by
    k with ties in row-major (m, n) order.  TE entries include the
    zero-index families.  So the tables at a lower cutoff are, bit for bit,
    the head of those at a higher one.

    Candidates are built row by row over m, each row holding only the n
    that can reach the cutoff, so a call costs about as many modes as it
    returns.
    """
    _require_positive("max_cutoff", max_cutoff)
    limit = max_cutoff * (1.0 + 1e-12)
    # Per row m, the counts of the n from 0 on that can hold k <= limit,
    # padded by one index against rounding; the exact test below decides.
    m = np.arange(0, int(limit * geom.a / math.pi) + 2)
    with np.errstate(over="ignore"):  # inf: that row holds no mode
        kx2 = (m * np.pi / geom.a) ** 2
    counts = (np.sqrt(np.maximum(limit * limit - kx2, 0.0)) * (geom.b / np.pi)).astype(int) + 2
    mm = np.repeat(m, counts)
    nn = np.arange(mm.size) - np.repeat(np.cumsum(counts) - counts, counts)
    with np.errstate(over="ignore"):  # inf: past any finite cutoff, dropped below
        kk = _cutoffs(geom, mm, nn)
    keep = (kk > 0.0) & (kk <= limit)  # k > 0 drops only the (0, 0) pair
    mm, nn, kk = mm[keep], nn[keep], kk[keep]
    order = np.argsort(kk, kind="stable")
    mm, nn, kk = mm[order], nn[order], kk[order]
    tm = (mm >= 1) & (nn >= 1)
    return {
        TM: {"m": mm[tm], "n": nn[tm], "k": kk[tm]},
        TE: {"m": mm, "n": nn, "k": kk},
    }


def _cutoffs(geom: Geometry, m: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Cutoffs k_mn of the index arrays m and n: the one ``np.hypot`` of
    :func:`mode_arrays`, mode sums, closed forms, oracles and listings."""
    return np.hypot(m * np.pi / geom.a, n * np.pi / geom.b)


def mode_count(geom: Geometry, max_cutoff: float) -> int | float:
    """Cheap upper estimate of the number of modes below a cutoff: an
    integer, or inf where the estimate passes the largest double."""
    # Quarter-disc lattice-point count per polarization, plus axis rows.
    area_density = geom.area / math.pi ** 2
    try:
        per_pol = 0.25 * math.pi * max_cutoff ** 2 * area_density
    except OverflowError:
        return math.inf
    count = 2 * per_pol + max_cutoff * (geom.a + geom.b) / math.pi
    return int(count) + 4 if count < math.inf else math.inf
