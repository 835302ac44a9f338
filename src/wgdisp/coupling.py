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
  z > 0).

* TE modes couple only transverse components and decay as the modified
  Bessel function K0(k_mn z).  The contour evaluation of the mode
  integral produces a factor -2 u_e with u_e = E/(k_mn).

Every kernel here computes those oracle-consistent couplings, with
unit-normalized TE profiles; :func:`wgdisp.conventions.apply` maps them
to the printed prefactors, and :func:`_paper_cross` and
:func:`_printed_sums` give the printed cross terms it takes.

Mixed transverse-axial TM couplings (xz, yz against zx, zy) come from an
integrand odd in the axial wavenumber and are antisymmetric under
exchanging the roles of the two points; both orders are provided and the
assembled pair energy is insensitive to the antisymmetry because the
contraction runs over both index orders.

Both closed forms have one formula (``_mode_tensors``), shared with every
mode sum: per mode, z-independent transverse factor rows (``_tm_rows``,
``_te_rows``) times a radial weight, (4 pi / A) k_mn exp(-k_mn z) or
-2 energy K0(k_mn z).  The mode tables of :mod:`wgdisp.energy` hold these
rows for many modes at once, and :mod:`wgdisp.quadrature` builds them
for a batch of cases at points of their own, next to the wavenumber
oracle.  ``_tm_split`` sums the oracle-consistent TM couplings of all
modes at once, from the same rows, by an Ewald split of the tube's Green
function, and ``_te_split`` sums the unit-normalized TE
couplings the same way, by a split in time of the tube's heat kernel.
Both take the rows of a few dozen screened modes and about a hundred
images at any separation, and return their tensors with derived truncation
bounds (``_tm_split_bound``, ``_te_split_bound``); ``_printed_sums`` takes
the paper-literal sums no split covers by a rule in ln t, with its own bound.

Natural units hbar = c = 1 throughout.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from ._special import erfc, erfcx, exp1, k0

from .conventions import KERNEL_TE_FACTOR, KERNEL_TM_SIGNS, apply
from .waveguide import Geometry, TransversePoint

ORIENTATIONS = ("xx", "xy", "xz", "yx", "yy", "yz", "zx", "zy", "zz")


# ---------------------------------------------------------------------------
# per-mode factor rows: the one per-mode coupling formula
# ---------------------------------------------------------------------------

def _axis_trig(geom, m, n, p2, p1):
    """Per-mode sin and cos of (m pi/a) x and (n pi/b) y at p2 and p1.

    Returns arrays sx, cx, sy, cy of shape (2, n_modes), row 0 at p2 and
    row 1 at p1.  At points with float coordinates the transcendentals are
    taken once per index from 0 to the largest m (or n), on a per-axis
    table built for the call, and gathered with the integer m and n; each
    table entry is the same float operation as the per-mode one and does
    not depend on the length of its table, so the values match
    ``np.sin(m * np.pi / geom.a * p.x)`` and its kin bit for bit.  Points
    may instead hold arrays with one coordinate per mode (as
    :class:`wgdisp.quadrature._Cases` holds them), each taken with its own
    mode's index.
    """
    def axis(c2, c1, index, length):
        if np.ndim(c2):  # one coordinate per mode
            t = np.array([c2, c1]) * (index * np.pi / length)
            return np.sin(t), np.cos(t)
        t = np.multiply.outer((c2, c1), np.arange(index.max(initial=0) + 1) * np.pi / length)
        return np.sin(t).take(index, axis=1), np.cos(t).take(index, axis=1)

    return (*axis(p2.x, p1.x, m, geom.a), *axis(p2.y, p1.y, n, geom.b))


def _paper_cross(geom, m, n, k, p1, p2, z):
    """Printed paper-literal TM xy and yx couplings per mode, at separation z.

    The printed xy prefactor, generalized off the diagonal by splitting
    the double-angle factors per point; the trig factors are
    :func:`_axis_trig`'s.  Their sums over every mode are
    :func:`_printed_sums`.
    """
    with np.errstate(over="ignore"):  # k z past the largest double: e^{-kz} = 0
        decay = np.exp(-k * z)
    sx, cx, sy, cy = _axis_trig(geom, m, n, p2, p1)
    try:
        pref = -(np.pi ** 2 / (2.0 * geom.area ** 2 * k)) * 4.0 * decay
    except OverflowError:  # A^2 past the largest double
        pref = -(np.pi ** 2 / (2.0 * geom.area) / (geom.area * k)) * 4.0 * decay
    return (pref * cx[0] * sy[0] * sx[1] * cy[1],
            pref * sx[0] * cy[0] * cx[1] * sy[1])


def _tm_rows(geom, m, n, k, p1, p2):
    """z-independent TM factor rows of a mode list, shape (6, N).

    Rows 0-2 hold the x, y and z profile factors at p2 and rows 3-5 those
    at p1, so mode by mode the TM coupling is
    sign_ij (4 pi / A) k e^{-kz} rows[i] rows[3 + j].  ``m`` and
    ``n`` are integer index arrays; the trig factors come from
    :func:`_axis_trig`.
    """
    ax = m * np.pi / geom.a
    ay = n * np.pi / geom.b
    sx, cx, sy, cy = _axis_trig(geom, m, n, p2, p1)
    return np.stack([(ax / k) * cx * sy, (ay / k) * sx * cy, sx * sy],
                    axis=1).reshape(6, k.size)


# ---------------------------------------------------------------------------
# Ewald split of the oracle-consistent TM channel
# ---------------------------------------------------------------------------
#
# Under oracle-consistent signs the TM mode sum is a Green-function
# derivative, F_TM,ij = -2 pi d_{r2,i} d_{r1,j} G_D(r2, r1), with G_D the
# Dirichlet Green function of the Laplacian in the tube: the images
# (1/4 pi) sigma_x sigma_y / R of r1 at (sigma_x x1 + 2ja, sigma_y y1 + 2lb),
# over sigma = +-1 and integer j, l.  Each image 1/R splits into
# erfc(R/eta)/R, summed over the images near r2, plus erf(R/eta)/R, summed
# over the modes with Gaussian-screened radial weights (P. P. Ewald, Ann.
# Phys. 64 (1921) 253; C. M. Linton, SIAM Rev. 52 (2010) 630).  Both sums
# converge like exp(-(.)^2), so the cost per separation does not depend on z
# and the direct image carries the free-space 1/z^3 tensor exactly.  Both
# sides drop terms below about _SPLIT_EPS of their leading scale.

_SPLIT_EPS = 1e-17
_SPLIT_REACH = math.sqrt(-math.log(_SPLIT_EPS))  # image reach in units of eta
# Class of each TM entry, which picks its split weight and its oracle kernels:
# 0 transverse-transverse, 1 mixed, 2 zz.
_TM_CLASS = np.array([[0, 0, 1], [0, 0, 1], [1, 1, 2]])


def _diagonals(out: np.ndarray) -> np.ndarray:
    """Writable view of the diagonals of a C-ordered stack of square matrices."""
    return out.reshape(out.shape[0], -1)[:, ::out.shape[-1] + 1]


def _split_width(geom: Geometry) -> float:
    """Screening length eta of the split, 0.55 sqrt(A)."""
    return 0.55 * math.sqrt(geom.area)


def _k11(geom: Geometry) -> float:
    """Cutoff k_11 of the lowest TM mode, the diagonal of a lattice cell."""
    return math.hypot(math.pi / geom.a, math.pi / geom.b)


def _split_cutoff(geom: Geometry) -> float:
    """Cutoff of the screened mode sum.

    Past 2 _SPLIT_REACH / eta the screening factor exp(-k^2 eta^2 / 4) is
    below _SPLIT_EPS; the extra k_11 keeps it there for every cell of the
    lattice-to-integral comparison in :func:`_tm_split_bound`.
    """
    return 2.0 * _SPLIT_REACH / _split_width(geom) + _k11(geom)


def _power(x: float, n: float) -> float:
    """x ** n as Python's float power takes it, or inf where that overflows.

    :func:`_powers` applies it to arrays of separations: numpy's array power
    rounds some values differently from the C library's pow that Python
    uses (about 5% of x ** 4), and the splits keep Python's values.
    """
    try:
        return x ** n
    except OverflowError:
        return math.inf


def _powers(x: np.ndarray, n: float) -> np.ndarray:
    """:func:`_power` of each element of the 1-D array ``x``."""
    return np.fromiter((_power(v, n) for v in x.tolist()), float, x.size)


def _tm_split_spectral(geom, k, rows, z):
    """Screened-mode part of the split over the modes of ``k`` and ``rows``,
    shape (nz, 3, 3) for the 1-D array of separations ``z``.

    Entry (i, j) sums the products of the :func:`_tm_rows` factors i at p2
    and j at p1 of each mode of ``rows``.  The radial weight
    k e^{-kz} of the mode sum becomes k (A + B) / 2 for the
    transverse-transverse entries, k (A - B) / 2 for the mixed ones and
    k (A + B) / 2 - 2 g / (sqrt(pi) eta) for zz, with
    A = e^{-kz} erfc(k eta / 2 - z / eta), g = e^{-k^2 eta^2 / 4 - z^2 / eta^2}
    and B = erfcx(k eta / 2 + z / eta) g (= e^{kz} erfc(k eta / 2 + z / eta),
    without its overflow).  Each entry is one sum over the modes of a row of
    weights, so it does not depend on the other separations.
    """
    eta = _split_width(geom)
    zc = z[:, None]
    g = np.exp(-(0.5 * eta * k) ** 2 - _powers(z / eta, 2)[:, None])
    a_part = np.exp(-k * zc) * erfc(0.5 * eta * k - zc / eta)
    b_part = erfcx(0.5 * eta * k + zc / eta) * g
    tt = 0.5 * k * (a_part + b_part)
    weights = np.array([tt, 0.5 * k * (a_part - b_part),
                        tt - (2.0 / (math.sqrt(math.pi) * eta)) * g])
    products = rows[:, 0:3].T[:, None] * rows[:, 3:6].T[None]
    sums = (weights[_TM_CLASS] * products[:, :, None, :]).sum(axis=3)
    return ((4.0 * np.pi / geom.area) * KERNEL_TM_SIGNS[:, :, None]
            * sums).transpose(2, 0, 1)


def _image_offsets(c2: float, c1: float, period: float, reach: float) -> np.ndarray:
    """Offsets c2 - sigma c1 - j period of the images along one axis.

    Row 0 holds sigma = +1 and row 1 sigma = -1, each over one symmetric
    j range that covers every offset within ``reach``.
    """
    J = int(reach // period) + 1
    return np.array([[c2 - c1], [c2 + c1]]) - period * np.arange(-J, J + 1)


def _split_images(geom: Geometry, p1: TransversePoint, p2: TransversePoint):
    """The z-independent image data both splits share.

    Over the images (sigma_x x1 + 2ja, sigma_y y1 + 2lb) of p1 within the
    reach _SPLIT_REACH eta of p2 along each axis, returns the transverse
    offsets d = (x2 - sigma_x x1 - 2ja, y2 - sigma_y y1 - 2lb), shape (2, n),
    the signs s = (sigma_x, sigma_y), shape (2, n), and rho^2 = |d|^2.
    """
    reach = _SPLIT_REACH * _split_width(geom)
    x = _image_offsets(p2.x, p1.x, 2.0 * geom.a, reach)[:, None, :, None]
    y = _image_offsets(p2.y, p1.y, 2.0 * geom.b, reach)[None, :, None, :]
    # Images ordered by (sigma_x, sigma_y, j, l).
    d = np.empty((2, 2, 2, x.shape[2], y.shape[3]))
    s = np.empty_like(d)
    d[0], d[1] = x, y
    sign = np.array([1.0, -1.0])
    s[0], s[1] = sign[:, None, None, None], sign[None, :, None, None]
    return d.reshape(2, -1), s.reshape(2, -1), (x * x + y * y).reshape(-1)


def _tm_split_images(geom, images, z):
    """Image part of the split: 1/2 sum sigma_x sigma_y s_j H_ij(d), shape
    (nz, 3, 3) for the 1-D array of separations ``z``.

    Over the :func:`_split_images` ``images``, with s = (sigma_x, sigma_y,
    1), d = (x2 - sigma_x x1 - 2ja, y2 - sigma_y y1 - 2lb, z) and H the
    Hessian of erfc(r/eta)/r:
    H = f'' d^ d^ + (f'/r)(I - d^ d^), with f' = -G/r - E/r^2,
    f'' = 2G/eta^2 + 2G/r^2 + 2E/r^3, E = erfc(r/eta) and
    G = (2 / (sqrt(pi) eta)) e^{-r^2/eta^2}.
    """
    eta = _split_width(geom)
    offsets, (sx, sy), rho2 = images
    zc = z[:, None]
    r2 = rho2 + zc * zc
    r = np.sqrt(r2)
    e = erfc(r / eta)
    g = (2.0 / (math.sqrt(math.pi) * eta)) * np.exp(-r2 / eta ** 2)
    transverse = -(g * r + e) / (r2 * r)  # f'/r
    along = 2.0 * g / eta ** 2 + 2.0 * g / r2 + 2.0 * e / (r2 * r)  # f''
    # Per image: d, and sigma_x sigma_y s_j for each column j.
    d = np.empty((z.size, 3, rho2.size))
    d[:, :2], d[:, 2] = offsets, zc
    w = np.array([sy, sx, sx * sy])
    c = (along - transverse) / r2
    # One product of a (3, n) and an (n, 3) matrix per separation.
    out = 0.5 * (d * c[:, None, :]) @ (d * w).transpose(0, 2, 1)
    _diagonals(out)[:] += (0.5 * w @ transverse[:, :, None])[:, :, 0]
    return out


def _live(rows):
    """Entries whose profile factors at p2 (the first half of each row of
    ``rows``) and at p1 (the second) do not vanish for every mode; the mode
    tables zero the splits' rounding residue in the others."""
    at_p2, at_p1 = (rows != 0.0).any(axis=0).reshape(2, -1)
    return at_p2[:, None] & at_p1


def _tm_split(geom, k, rows, images, z):
    """Oracle-consistent TM tensors at the separations of the 1-D array ``z``
    from the Ewald split, shape (nz, 3, 3), and their
    :func:`_tm_split_bound` values, shape (nz,).

    ``k`` and ``rows`` are the cutoffs and :func:`_tm_rows` rows (one mode
    per row) of the modes up to :func:`_split_cutoff`, and ``images`` the
    :func:`_split_images` of the pair, as :func:`_te_split` takes them.
    Entries outside :func:`_live` are left as summed.  Each tensor is the
    same whichever separations share the call.
    """
    out = _tm_split_spectral(geom, k, rows, z) + _tm_split_images(geom, images, z)
    return out + 0.0, np.array([_tm_split_bound(geom, v) for v in z.tolist()])


def _tm_split_bound(geom: Geometry, z: float) -> float:
    """Bound on what the split's truncations drop from any TM entry.

    Screened modes (k > K = :func:`_split_cutoff`): each dropped mode
    contributes at most (4 pi / A) w(k) with w <= (k + c) g, c = 2/(sqrt(pi)
    eta), where k eta / 2 >= z / eta, and else w <= k e^{-kz} + (k + c) g
    (erfc <= e^{-x^2} for x >= 0, erfc <= 2, erfcx <= 1).  Every
    lattice cell of area pi^2 / A lies within k_11 below its mode's k, so
    for decreasing weights the sum over modes past K is below
    (A / 2 pi) integral_{K - k_11}^inf (4 pi / A) w(k) k dk.

    Images beyond the reach X = _SPLIT_REACH eta of an axis: each adds at
    most f''/2 <= e^{-r^2/eta^2} P(r) / 2, P(r) = (4 / (sqrt(pi) eta))
    (1/eta^2 + 1/r^2) + 2/r^3, with r >= r_c = sqrt(X^2 + z^2).  The
    Gaussian factorizes over the axes, and a 1D sum over offsets spaced by
    the period L is bounded by its first term plus 1/L times the integral.
    """
    eta = _split_width(geom)
    cutoff, low, gauss, _, lattice = _bound_parts(geom)
    screen = math.exp(-(z / eta) ** 2)
    spectral = 2.0 * screen * gauss
    if 2.0 * z / eta ** 2 > cutoff:  # 2 integral_low^inf k^2 e^{-kz} dk
        spectral += 2.0 * math.exp(-low * z) * (low * low / z + 2.0 * low / _power(z, 2)
                                               + 2.0 / _power(z, 3))
    reach = _SPLIT_REACH * eta
    rc2 = reach * reach + z * z
    poly = (4.0 / (math.sqrt(math.pi) * eta)) * (1.0 / eta ** 2 + 1.0 / rc2) \
        + 2.0 / (rc2 * math.sqrt(rc2))
    # Four image lattices, half an f'' each.
    images = 2.0 * screen * poly * lattice
    return spectral + images


@functools.lru_cache(maxsize=1)  # a kernel batch holds one guide
def _bound_parts(geom: Geometry) -> tuple[float, float, float, float, float]:
    """The z-independent parts of :func:`_tm_split_bound` and
    :func:`_te_split_bound`: the cutoff K, low = K - k_11, the TM and TE
    Gaussian integrals from low, and the bound on sum e^{-|d|^2/eta^2} over
    one image lattice's offsets past the reach along either axis."""
    eta = _split_width(geom)
    alpha = 0.25 * eta * eta
    c = 2.0 / (math.sqrt(math.pi) * eta)
    cutoff = _split_cutoff(geom)
    low = cutoff - _k11(geom)
    # integral_low^inf (k^2 + c k) e^{-alpha k^2} dk
    tm_gauss = ((low + c) * math.exp(-alpha * low * low) / (2.0 * alpha)
                + math.sqrt(math.pi) * math.erfc(math.sqrt(alpha) * low) / (4.0 * alpha ** 1.5))
    tau = 0.25 * eta * eta
    plane, lines = geom.area / (2.0 * math.pi), (geom.a + geom.b) / math.pi
    te_gauss = (plane * math.exp(-tau * low * low) / (2.0 * tau)
                + lines * 0.5 * math.sqrt(math.pi / tau) * math.erfc(math.sqrt(tau) * low))

    def beyond(period):  # offsets past the reach, both sides
        return 2.0 * (_SPLIT_EPS + math.sqrt(math.pi) * eta / (2.0 * period)
                      * math.erfc(_SPLIT_REACH))

    def every(period):
        return 2.0 + math.sqrt(math.pi) * eta / period

    ax, ay = 2.0 * geom.a, 2.0 * geom.b
    return cutoff, low, tm_gauss, te_gauss, beyond(ax) * every(ay) + every(ax) * beyond(ay)


# ---------------------------------------------------------------------------
# heat-kernel Ewald split of the TE channel
# ---------------------------------------------------------------------------
#
# The unit-normalized TE rows are e = (d_y psi, -d_x psi) / k, with psi the
# L^2-normalized Neumann eigenfunctions, so the unit TE tensor (the mode sum
# without its factor * E) is T = R M R^T, with R the 90-degree rotation and
# M_ij = sum d_i psi(r2) d_j psi(r1) K0(kz) / k^2.  Since
# K0(kz) / k^2 = integral_0^inf e^{-k^2 t} E1(z^2 / 4t) / 2 dt, M is that time
# integral over d_{r2,i} d_{r1,j} of the Neumann heat kernel, whose images
# e^{-|d|^2 / 4t} / (4 pi t) of r1 at (sigma_x x1 + 2ja, sigma_y y1 + 2lb) all
# carry the sign +1.  The time integral splits at tau = eta^2 / 4, with the
# TM split's eta: past tau it is the mode sum with weights k^2 W screened like
# e^{-k^2 tau}; up to tau it is the image sum, in closed form through E1 and
# screened like e^{-rho^2 / eta^2}.  Both use the TM split's cutoff and reach.

# Short times s with z^2 / 4s above _TE_SKIP add below E1(45) ~ 6e-22 per unit
# of time; the rule runs over at most _TE_SPAN e-folds of s below tau.
_TE_SKIP = 45.0
_TE_SPAN = 24.0
_TE_NODES = 80
# Accuracy of the short-time rule relative to each mode's K0(kz), over at
# most 16 e-folds of s and beyond: a factor 3 to 5 above the largest error
# found against adaptive quadrature (z from 1e-6 to 10 widths, k up to twice
# the split's cutoff).
_TE_RULE_TOL = (1e-14, 1e-12)
# Images with rho^2 at most _TE_SERIES times min(eta^2, z^2) take the Taylor
# series in rho^2 of their time integrals; the terms fall like 0.1^n.
_TE_SERIES = 0.1
_TE_TERMS = 20
_ROTATE = np.array([[0.0, 1.0], [-1.0, 0.0]])


@functools.cache
def _legendre_rule():
    """Nodes plus one and weights of the Gauss-Legendre rule on [-1, 1]."""
    x, w = _gauss_legendre(_TE_NODES)
    return x + 1.0, w


def _gauss_legendre(n):
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1], n >= 3.

    Step for step as ``numpy.polynomial.legendre.leggauss`` takes them, so
    bit for bit its values, without importing ``numpy.polynomial``: the
    eigenvalues of the symmetric companion matrix of P_n, one Newton step,
    then the weights 1 / (P_{n-1} P_n') scaled to unit peaks, symmetrized and
    normalized to sum to 2.
    """
    c = np.zeros((n + 1, 1))  # P_n in the Legendre basis, one column
    c[-1] = 1.0
    scl = 1.0 / np.sqrt(2 * np.arange(n) + 1)
    off = np.arange(1, n) * scl[:n - 1] * scl[1:n]
    x = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    d, der = c[:, 0].copy(), np.empty((n, 1))  # P_n' in the Legendre basis
    for j in range(n, 2, -1):
        der[j - 1] = (2 * j - 1) * d[j]
        d[j - 2] += d[j]
    der[1], der[0] = 3 * d[2], d[1]

    def series(c):  # Clenshaw's recurrence for a Legendre series at x
        c0, c1 = c[-2], c[-1]
        for nd in range(len(c) - 1, 1, -1):
            c0, c1 = c[nd - 2] - c1 * ((nd - 1) / nd), c0 + c1 * x * ((2 * nd - 1) / nd)
        return c0 + c1 * x

    dy, df = series(c), series(der)
    x -= dy / df
    fm = series(c[1:])
    fm /= np.abs(fm).max()
    df /= np.abs(df).max()
    w = 1 / (fm * df)
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    w *= 2.0 / w.sum()
    return x, w


def _te_short_times(geom, z):
    """Edges lo and tau of the short times the rule sums, in that order.

    The rule covers ln s from ln lo to ln tau, lo = max(z^2 / (4 _TE_SKIP),
    tau e^{-_TE_SPAN}), one lo per separation of ``z``; with lo >= tau
    nothing is summed.
    """
    tau = 0.25 * _split_width(geom) ** 2
    lo = np.maximum(z * z / (4.0 * _TE_SKIP), tau * math.exp(-_TE_SPAN))
    return lo, tau


def _te_short_time_rule(lo, tau):
    """Nodes s and weights of the Gauss-Legendre rule in ln s from lo to tau,
    one row per edge of the 1-D array ``lo``, each below tau:
    int_lo^tau g(s) ds ~ sum weights g(s).

    The logarithms are the C library's, one edge at a time (numpy's log
    rounds some arguments differently).
    """
    x1, w = _legendre_rule()
    logs = np.array([(math.log(v), math.log(tau / v)) for v in lo.tolist()]).reshape(-1, 2)
    half = 0.5 * logs[:, 1:]
    s = np.exp(logs[:, :1] + half * x1)
    return s, half * w * s


def _te_short_time_part(k, s, f):
    """(k^2 / 2) int_lo^tau e^{-k^2 s} E1(z^2/4s) ds, which the long-time
    weights k^2 W = K0(kz) - (this) lack, from the :func:`_te_short_time_rule`
    nodes ``s`` and ``f``, its weights times E1(z^2/4s), shared by every mode:
    one row per row of ``s``, one column per mode.
    """
    decay = (-k * k)[:, None] * s[:, None, :]
    np.exp(decay, out=decay)  # in place: one temporary of the chunk's size
    return 0.5 * k * k * (decay @ f[:, :, None])[:, :, 0]


# Term numbers n of the series, their n + 1 and n + 2, the n in 1..N that
# divide x in the incomplete gamma terms, and the factorials n!.
_SERIES_N = np.arange(_TE_TERMS)
_SERIES_N1, _SERIES_N2 = _SERIES_N + 1, _SERIES_N + 2
_GAMMA_N = np.arange(1, _TE_TERMS + 1)
_SERIES_FACT = np.cumprod(np.r_[1.0, _GAMMA_N[:-1]])


def _te_series(rho2, z, u0, e1):
    """Integrals J0 and J1 of :func:`_te_split_images` as series in rho^2,
    one per element of the 1-D arrays ``rho2``, ``z`` and ``e1``.

    With m_n = integral_{u0}^inf u^n E1(z^2 u) du
    = [Gamma(n + 1, z^2 u0) / z^{2n+2} - u0^{n+1} E1(z^2 u0)] / (n + 1),
    J0 = sum_n (-rho^2)^n m_n / n! and J1 = sum_n (-rho^2)^n m_{n+1} / n!.
    Gamma(n + 1, x) / n! = sum_{j <= n} e^{-x} x^j / j!, each term taken
    from its logarithm, keeps every term finite at small and at large z.
    The terms of one integral lie in one row and are summed along it, so
    each value depends on its own arguments alone.
    """
    zz = (z * z)[:, None]
    x = zz * u0
    logs = np.empty((x.size, _TE_TERMS + 1))
    logs[:, :1] = -x
    logs[:, 1:] = np.log(x / _GAMMA_N)
    gamma = np.cumsum(np.exp(np.cumsum(logs, axis=1)), axis=1)
    n, n1 = _SERIES_N, _SERIES_N1
    by_z = (-rho2[:, None] / zz) ** n
    by_u = u0 * e1[:, None] * (-rho2[:, None] * u0) ** n / _SERIES_FACT
    j0 = ((by_z * gamma[:, :-1] / zz - by_u) / n1).sum(axis=1)
    j1 = ((n1 * by_z * gamma[:, 1:] / _powers(z, 4)[:, None] - u0 * by_u)
          / _SERIES_N2).sum(axis=1)
    return j0, j1


def _te_split_images(geom, images, z, e1, e_images):
    """Short-time part of M: sum s_j (delta_ij J0 / 4 pi - d_i d_j J1 / 2 pi),
    shape (nz, 2, 2) for the 1-D array of separations ``z``.

    Over the :func:`_split_images` ``images`` with u0 = 1/eta^2 and
    R^2 = rho^2 + z^2, given e1 = E1(z^2 u0) per separation and
    ``e_images`` = E1(R^2 u0) per separation and image, the time integrals are
    J0 = integral_{u0}^inf E1(z^2 u) e^{-rho^2 u} du
       = [e^{-rho^2 u0} E1(z^2 u0) - E1(R^2 u0)] / rho^2 and
    J1 = integral_{u0}^inf u E1(z^2 u) e^{-rho^2 u} du
       = [J0 + u0 e^{-rho^2 u0} E1(z^2 u0) - e^{-R^2 u0} / R^2] / rho^2.
    Near-coincident images, whose closed forms cancel, take
    :func:`_te_series` instead; that covers the direct image at p1 = p2.
    """
    eta = _split_width(geom)
    u0 = 1.0 / (eta * eta)
    d, s, rho2 = images
    zz = (z * z)[:, None]
    near = rho2 <= _TE_SERIES * np.minimum(eta * eta, zz)
    q = np.where(near, 1.0, rho2)
    r2 = q + zz
    a_part = np.exp(-q * u0) * e1[:, None]
    j0 = (a_part - e_images) / q
    j1 = (j0 + u0 * a_part - np.exp(-r2 * u0) / r2) / q
    if near.any():
        at, image = np.nonzero(near)
        j0[near], j1[near] = _te_series(rho2[image], z[at], u0, e1[at])
    out = -(d * (j1 / (2.0 * np.pi))[:, None, :]) @ (d * s).T
    _diagonals(out)[:] += (s @ j0[:, :, None])[:, :, 0] / (4.0 * np.pi)
    return out


def _te_split(geom, k, rows, images, z):
    """Unit TE tensors at the separations of the 1-D array ``z`` (the TE mode
    sum without factor * E), shape (nz, 3, 3), and their
    :func:`_te_split_bound` values, shape (nz,).

    From the heat-kernel split: ``k`` and ``rows`` are the cutoffs and
    unit-normalized :func:`_te_rows` rows (one mode per row) of the modes up
    to :func:`_split_cutoff`, and ``images`` the :func:`_split_images` of the
    pair.  Entries outside :func:`_live` are left as summed.  The modes are
    contracted as :func:`wgdisp.energy._blocks` contracts them, so where
    images and short times add nothing the split equals that TE mode sum
    bit for bit.  All E1 of the splits and their bounds come from one call
    and all K0 from another; the bounds share K0(k_0 z).  Each tensor is
    the same whichever separations share the call.
    """
    eta = _split_width(geom)
    u0 = 1.0 / (eta * eta)
    zz = z * z
    lo, tau = _te_short_times(geom, z)
    ruled = lo < tau
    s, w = _te_short_time_rule(lo[ruled], tau)
    e = exp1(np.concatenate([(zz[ruled, None] / (4.0 * s)).ravel(),
                             ((images[2] + zz[:, None]) * u0).ravel(),
                             zz * u0, zz / (4.0 * np.minimum(lo, tau))]))
    radial = weight = k0(np.multiply.outer(z, k))
    if s.size:
        weight = radial.copy()
        weight[ruled] -= _te_short_time_part(k, s, w * e[:s.size].reshape(s.shape))
    e1, e_edge = e[-2 * z.size:-z.size], e[-z.size:]
    near = _te_split_images(geom, images, z, e1, e[s.size:-2 * z.size].reshape(z.size, -1))
    out = np.zeros((z.size, 3, 3))
    out[:, :2, :2] = (rows[:, 0:2] * weight[:, :, None]).transpose(0, 2, 1) \
        @ rows[:, 2:4] + _ROTATE @ near @ _ROTATE.T
    # Blocks of 8192 added in order: OpenBLAS threads a dot product past 10,000
    # elements, and its bits then depend on the thread count.
    k2 = sum(float(block @ block) for block in np.split(k, range(8192, k.size, 8192)))
    bounds = [_te_split_bound(geom, k2, k.size, v, (edge, tau), *args) for v, edge, *args in zip(
        z.tolist(), lo.tolist(), radial[:, 0].tolist(), e1.tolist(), e_edge.tolist())]
    return out + 0.0, np.array(bounds)


def _te_split_bound(geom: Geometry, k2: float, count: int, z: float, edges: tuple[float, float],
                    k0_first: float, e1: float, e_edge: float) -> float:
    """Bound on what the TE split drops from any entry of the unit tensor.

    ``k2`` sums k^2 over the ``count`` screened modes; ``edges`` are the
    :func:`_te_short_times` edges lo and tau at z, and ``k0_first``, ``e1``
    and ``e_edge`` are the split's K0(k_0 z), E1(z^2 / eta^2) and
    E1(z^2 / 4m) (see below).  Each profile product is at most 4 / A.

    Screened modes past K = :func:`_split_cutoff`: k^2 W is at most
    K0(kz) <= sqrt(pi / 2kz) e^{-kz}, and, with E1(x) <= e^{-x} ln(1 + 1/x)
    and ln(1 + 4t/z^2) <= L + ln(t / tau) for t >= tau,
    L = ln(1 + 4 tau / z^2), also (1/2) e^{-k^2 tau} (L + 1 / (K^2 tau)).
    The lattice cells of the modes with both indices non-zero lie within
    k_11 below their modes, so their sum is below (A / 2 pi) times the
    integral of w(k) k from K - k_11; the modes with one zero index are two
    rows spaced by pi/a and pi/b, each below the integral of w(k) / spacing.

    Short times: below lo (or below tau where no short time is summed)
    each mode drops at most (k^2 / 2) m E1(z^2 / 4m), m = min(lo, tau), and
    the rule errs by at most _TE_RULE_TOL K0(kz).

    Images beyond the reach X: each adds at most
    E1(z^2 u0) e^{-rho^2 u0} P, P = 1 / (4 pi X^2) + (u0 + 1/X^2) / (2 pi),
    and the Gaussian factorizes over the axes as in :func:`_tm_split_bound`.
    """
    eta = _split_width(geom)
    tau, u0 = 0.25 * eta * eta, 1.0 / (eta * eta)
    rows = 4.0 / geom.area
    cutoff, low, _, gauss, lattice = _bound_parts(geom)
    plane, lines = geom.area / (2.0 * math.pi), (geom.a + geom.b) / math.pi
    level = math.log1p(4.0 * tau / (z * z)) + 1.0 / (cutoff * cutoff * tau)
    gauss = 0.5 * level * gauss
    x = low * z
    half_gamma = 0.5 * math.sqrt(math.pi) * math.erfc(math.sqrt(x))  # Gamma(1/2, x) / 2
    tail = math.sqrt(math.pi / (2.0 * z)) * (
        plane * (math.sqrt(x) * math.exp(-x) + half_gamma) / z ** 1.5
        + lines * 2.0 * half_gamma / math.sqrt(z))
    spectral = rows * min(gauss, tail)
    lo, tau = edges
    m = min(lo, tau)
    short = rows * 0.5 * k2 * m * e_edge
    if lo < tau:  # k is sorted, so K0(k_0 z) is the largest K0
        tol = _TE_RULE_TOL[math.log(tau / lo) > 16.0]
        short += rows * tol * count * k0_first
    reach = _SPLIT_REACH * eta
    p = e1 * (1.0 / (4.0 * math.pi * reach ** 2)
              + (u0 + 1.0 / reach ** 2) / (2.0 * math.pi))
    # Four image lattices, each image with weight one.
    images = 4.0 * p * lattice
    return spectral + short + images


def _te_rows(geom, m, n, k, p1, p2):
    """z-independent unit-normalized TE profile rows of a mode list, shape (4, N).

    Rows 0-1 hold the x and y profile components at p2 and rows 2-3 those
    at p1, so mode by mode the TE coupling is
    -2 E K0(kz) rows[i] rows[2 + j]; the z components vanish.  The trig
    factors come from :func:`_axis_trig`.
    """
    ax = m * np.pi / geom.a
    ay = n * np.pi / geom.b
    nf = np.ones_like(k)
    nf[(m == 0) | (n == 0)] = 1.0 / math.sqrt(2.0)
    root_a = 2.0 / math.sqrt(geom.area)
    sx, cx, sy, cy = _axis_trig(geom, m, n, p2, p1)
    ex = -root_a * nf * (ay / k) * cx * sy
    ey = root_a * nf * (ax / k) * sx * cy
    return np.stack([ex, ey], axis=1).reshape(4, k.size)


def _mode_tensors(conventions, geom, tm, te, p1, p2, z, energy):
    """Per-mode couplings under ``conventions``, (3, 3, N) TM and TE stacks,
    of the mode lists ``tm`` and ``te``, each (m, n, k, factor rows) or None
    (and its stack then None).  Arrays and points may hold one entry per
    case of a batch (:func:`_axis_trig`)."""
    tm_out = te_out = cross_terms = zero_terms = None
    # Adding 0.0 turns the -0.0 of a negative factor times an exact zero into 0.0.
    with np.errstate(over="ignore"):  # k z past the largest double: e^{-kz} = K0 = 0
        if tm is not None:
            m, n, k, rows = tm
            tm_out = KERNEL_TM_SIGNS[:, :, None] * ((4.0 * np.pi / geom.area) * k * np.exp(-k * z))
            tm_out *= rows[0:3, None, :]
            tm_out *= rows[None, 3:6, :]
            tm_out += 0.0
            cross_terms = _paper_cross(geom, m, n, k, p1, p2, z) if conventions.printed else None
        if te is not None:
            m, n, k, rows = te
            radial = KERNEL_TE_FACTOR * energy * k0(k * z)
            te_out = np.zeros((3, 3, k.size))
            te_out[:2, :2] = radial * rows[0:2, None, :] * rows[None, 2:4, :]
            te_out += 0.0
            zero_terms = np.where((m == 0) | (n == 0), te_out, 0.0) if conventions.printed else None
    return apply(conventions, tm_out, te_out, cross_terms, zero_terms)


# ---------------------------------------------------------------------------
# the printed paper-literal sums: one trapezoidal rule in ln t
# ---------------------------------------------------------------------------

_PRINTED_STEP, _PRINTED_WIDTH = 0.1, 0.3  # step h = min(0.1, 0.3 / sqrt(k_11 z))
_PRINTED_REACH = 42.0  # Gaussian exponents past this plus k_11 z are dropped: e^{-42} = 6e-19
_PRINTED_BLOCK = 65536  # terms of a 1-D sum per pass
_STRIP = np.arange(1, 64) * (math.pi / 256.0)  # strip half-widths d < pi/4 tried


@functools.lru_cache(maxsize=64)  # every level at a separation shares one evaluation
def _printed_sums(geom, p1, p2, z, mode_cap):
    """The printed TM cross terms (xy, yx) of :func:`_paper_cross` and the
    unit zero-index TE terms (xx, yy), (2/A) K0(alpha z) sin(alpha x2)
    sin(alpha x1) along y and along x, each summed over every mode, and
    bounds on their errors: (cross, zero, cross_bound, zero_bound).

    By e^{-kz}/k = (2/sqrt(pi)) int e^{-k^2 t^2 - z^2/4t^2} dt and
    K0(kz) = int e^{-k^2 t^2 - z^2/4t^2} dt/t, each is a trapezoidal rule
    in u = ln t over Gaussian-damped 1-D sums, from t0 = max(z / 2q, where
    a 1-D sum passes ``mode_cap`` terms) past q / k_min, q^2 = _PRINTED_REACH
    + k_11 z.  README ("How the mode sum is truncated") derives the bound:
    the rule's error on a strip |Im u| <= d (L. N. Trefethen and J. A. C.
    Weideman, SIAM Rev. 56 (2014) 385, Thm 5.1), the 1-D cuts, both ends
    and rounding.
    """
    a, b, area = geom.a, geom.b, geom.area
    k11, lengths = _k11(geom), np.array([a, b])

    def absolute(zs):  # bounds on |cross| and |zero| at the separations zs
        with np.errstate(over="ignore"):  # k z past the largest double: 0
            x = np.multiply.outer(zs, np.pi / lengths)
            return ((np.pi / area) * np.exp(-k11 * zs) * (0.5 * k11 + 1.0 / zs),
                    (2.0 / area) * np.minimum(np.pi / (2.0 * x), np.sqrt(np.pi / (2.0 * x))
                                              * np.exp(-x) / -np.expm1(-x)).max(axis=-1))

    if not np.any(absolute(np.array([z]))):
        return (0.0, 0.0), (0.0, 0.0), 0.0, 0.0
    q = math.sqrt(_PRINTED_REACH + k11 * z)
    t0 = max(z / (2.0 * q), lengths.max() * q / (math.pi * mode_cap))
    h = min(_PRINTED_STEP, _PRINTED_WIDTH / math.sqrt(k11 * z))
    t = t0 * np.exp(h * np.arange(math.ceil(math.log(lengths.max() * q / (math.pi * t0)) / h) + 1))
    # Per axis and node: the 1-D sums of cos sin, sin cos, sin sin and 1.
    sums, terms = np.zeros((2, t.size, 4)), t.size
    for total, length, at2, at1 in zip(sums, lengths.tolist(), (p2.x, p2.y), (p1.x, p1.y)):
        counts = np.ceil(length * q / (np.pi * t)).astype(int).tolist()  # decreasing
        terms += counts[0]
        for lo in range(0, counts[0], _PRINTED_BLOCK):  # bounds the temporaries
            alpha = np.arange(lo + 1, min(lo + _PRINTED_BLOCK, counts[0]) + 1) * (np.pi / length)
            (s2, s1), (c2, c1) = (f(np.outer((at2, at1), alpha)) for f in (np.sin, np.cos))
            rows = np.stack([c2 * s1, s2 * c1, s2 * s1, np.ones_like(alpha)], axis=1)
            live = sum(n > lo for n in counts)  # the nodes whose sums reach this block
            total[:live] += [np.exp(-(alpha[:n - lo] * tj) ** 2) @ rows[:n - lo]
                             for n, tj in zip(counts[:live], t.tolist())]
    (x, y), damp = sums, h * np.exp(-(z / (2.0 * t)) ** 2)
    pc, tdamp = 4.0 * math.pi ** 1.5 / area, t * damp  # pc = (2 pi^2 / A^2) (2 / sqrt(pi)) A
    cross = -pc * np.array([tdamp @ (x[:, 0] * y[:, 1]), tdamp @ (x[:, 1] * y[:, 0])]) / area
    zero = (2.0 / area) * (sums[::-1, :, 2] @ damp)  # xx along y, yy along x
    # The bounds: discretization on the best strip, cuts and rounding, the two ends.
    strip_cross, strip_zero = absolute(z * (width := np.cos(2.0 * _STRIP)))
    rule = 2.0 * np.exp(-2.0 * np.pi * _STRIP / h) / -np.expm1(-2.0 * np.pi * _STRIP / h)
    cut, e = np.outer(lengths, math.erfc(q) / (2.0 * math.sqrt(math.pi) * t)), sums[:, :, 3]
    gamma = (terms + 8) * np.finfo(float).eps
    below = math.erfc(z / (2.0 * t0)) / (area * z)
    peak = h * math.sqrt(2.0 / math.e) / (area * z) if t0 > z / math.sqrt(2.0) else 0.0
    grow = 1.0 + 0.5 / (s := (np.pi * t[-1] / lengths) ** 2)  # past t[-1]: 1-D sums <= e^{-s} grow
    cross_bound = (np.min(strip_cross / np.sqrt(width) * rule)
                   + math.pi * below + math.sqrt(math.pi) * peak
                   + pc * (tdamp @ (cut[0] * (e[1] + cut[1]) + e[0] * (cut[1] + gamma * e[1])))
                   / area + 2.0 * math.pi ** 2 / (area * k11) / area * grow.prod()
                   * math.erfc(k11 * t[-1]))
    zero_bound = (np.min(strip_zero * rule) + lengths.max() * (below + peak / math.sqrt(math.pi))
                  + (2.0 / area) * np.max((cut + gamma * e) @ damp)
                  + np.max(grow * np.exp(-s) / s) / area)
    return tuple(cross.tolist()), tuple(zero.tolist()), float(cross_bound), float(zero_bound)


def __getattr__(name):
    """The one-case calls of :mod:`wgdisp.quadrature` under their earlier
    home, where the benchmark's tracer (``bench/tracer.py``) looks them up;
    the first such lookup imports that module."""
    if name in ("f_quadrature", "f_tm_closed", "f_te_closed"):
        from . import quadrature
        return getattr(quadrature, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
