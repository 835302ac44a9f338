"""Total dispersion energy of a ground-state dipole pair in the guide.

The pair energy is assembled from per-mode couplings as

    U = -(1/(2 pi eps)^2) sum_{e1,e2} sum_{ijlq}
        d2_i d1_j d2_l d1_q / (E_e1 + E_e2) * F^{(e2)}_{ij} F^{(e1)}_{lq}

where F^{(e)} sums every TE and TM mode coupling for transition energy
E_e, index i living at the second dipole's transverse point and j at the
first.  Isotropic orientation averaging replaces the dipole products by
their second moments <d_i d_j> = delta_ij |d|^2 / 3 before contraction.

The module also carries the free-space reference energies (quasistatic
1/r^6 and retarded 1/r^7 forms), the retarded in-guide closed form, the
regime ratio formulas, and the dynamic polarizability at imaginary
frequency.  Natural units hbar = c = 1; energies are in units of
hbar c / length.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
from scipy.special import k0 as _scipy_k0

from .asymptotics import near_field_components
from .conventions import Conventions
from .errors import (InputError, ModeCapError, TightConfinementWarning,
                     ValidityDomainWarning)
from .waveguide import (TE, TM, Geometry, ModeIndex, TransversePoint,
                        mode_arrays, mode_count)
from . import coupling as _coupling

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class DipoleTransition:
    """One ground-to-excited transition: energy and dipole vector."""

    energy: float
    d: tuple[float, float, float]

    def __post_init__(self):
        if not (self.energy > 0.0 and math.isfinite(self.energy)):
            raise InputError(f"transition energy must be positive, got {self.energy!r}")
        vec = np.asarray(self.d, dtype=float)
        if vec.shape != (3,) or not np.all(np.isfinite(vec)):
            raise InputError("dipole vector must be three finite components")
        if not np.any(vec != 0.0):
            raise InputError("dipole vector must be non-zero")

    @property
    def wavelength(self) -> float:
        return TWO_PI / self.energy

    @property
    def d_vec(self) -> np.ndarray:
        return np.asarray(self.d, dtype=float)

    @property
    def d_squared(self) -> float:
        return float(np.dot(self.d_vec, self.d_vec))

    def confinement_ratio(self, geom: Geometry) -> float:
        return min(self.wavelength / geom.a, self.wavelength / geom.b)


@dataclass(frozen=True)
class DipoleSpecies:
    """Ladder of transitions plus the orientation-handling mode."""

    transitions: tuple[DipoleTransition, ...]
    orientation: str = "isotropic-average"

    def __post_init__(self):
        if len(self.transitions) == 0:
            raise InputError("species needs at least one transition")
        if self.orientation not in ("fixed-vector", "isotropic-average"):
            raise InputError(f"orientation must be 'fixed-vector' or "
                             f"'isotropic-average', got {self.orientation!r}")

    def second_moment(self, t: DipoleTransition) -> np.ndarray:
        if self.orientation == "fixed-vector":
            return np.outer(t.d_vec, t.d_vec)
        return np.eye(3) * (t.d_squared / 3.0)

    @classmethod
    def single(cls, energy: float, d, orientation: str = "isotropic-average"):
        return cls((DipoleTransition(energy, tuple(d)),), orientation)


@dataclass(frozen=True)
class PairConfiguration:
    geom: Geometry
    p1: TransversePoint
    p2: TransversePoint
    z: float
    species1: DipoleSpecies
    species2: DipoleSpecies
    epsilon: float = 1.0
    conventions: Conventions = field(default_factory=Conventions)

    def __post_init__(self):
        if not (self.z > 0.0 and math.isfinite(self.z)):
            raise InputError(f"axial separation must be positive, got z={self.z!r}")
        if not (self.epsilon > 0.0 and math.isfinite(self.epsilon)):
            raise InputError(f"permittivity must be positive and finite, "
                             f"got {self.epsilon!r}")
        if not (self.geom.contains(self.p1) and self.geom.contains(self.p2)):
            raise InputError("both dipoles must sit inside the cross-section")

    def swapped(self) -> "PairConfiguration":
        return PairConfiguration(self.geom, self.p2, self.p1, self.z,
                                 self.species2, self.species1,
                                 self.epsilon, self.conventions)


@dataclass
class FTensorResult:
    """Mode-summed coupling tensor for one transition energy.

    ``per_mode`` maps each summed mode to its own 3x3 coupling, or is
    ``None`` when the sum used more than ``detail_cap`` modes, came from
    an explicit mode list, or had a dipole at a corner.  The map is built
    on first read from the factor rows of the :class:`ModeTable` the sum
    came from, so callers that only need the sums never pay for it.
    """

    tensor: np.ndarray
    tm_tensor: np.ndarray
    te_tensor: np.ndarray
    modes_used: int
    tail_bound: float
    max_cutoff: float
    _detail: tuple | None = field(default=None, repr=False, compare=False)

    @cached_property
    def per_mode(self) -> dict[ModeIndex, np.ndarray] | None:
        if self._detail is None:
            return None
        table, counts, z, energy = self._detail
        return table.per_mode(counts, z, energy)


@dataclass
class EnergyBreakdown:
    total: float
    per_level_pair: dict[tuple[int, int], float]
    u_tm_only: float
    u_te_only: float
    tail_estimate: float
    modes_used: int
    warnings: list[str]
    conventions: Conventions
    f_by_level: dict[float, FTensorResult]


# Sign tables S[i][j] with row index i (component at p2) and column j
# (component at p1), axes ordered x, y, z.
_ORACLE_SIGNS = np.array([
    [-1.0, -1.0, -1.0],
    [-1.0, -1.0, -1.0],
    [1.0, 1.0, 1.0],
])

_PAPER_SIGNS = np.array([
    [1.0, 1.0, -1.0],
    [1.0, 1.0, -1.0],
    [-1.0, -1.0, 1.0],
])


def _tm_sign_matrix(conventions: Conventions) -> np.ndarray:
    if conventions.tm_sign == "oracle-consistent":
        return _ORACLE_SIGNS
    return _PAPER_SIGNS


def _axis_trig(geom, m, n, p2, p1):
    """Per-mode sin and cos of (m pi/a) x and (n pi/b) y at p2 and p1.

    Returns arrays sx, cx, sy, cy of shape (2, n_modes), row 0 at p2 and
    row 1 at p1.  The transcendentals are taken once per distinct index on
    per-axis tables and gathered with the integer m and n; each table entry
    is the same float operation as the per-mode one, so the values match
    ``np.sin(m * np.pi / geom.a * p.x)`` and its kin bit for bit.
    """
    tx = np.multiply.outer((p2.x, p1.x), np.arange(m.max(initial=0) + 1) * np.pi / geom.a)
    ty = np.multiply.outer((p2.y, p1.y), np.arange(n.max(initial=0) + 1) * np.pi / geom.b)
    return (np.sin(tx).take(m, axis=1), np.cos(tx).take(m, axis=1),
            np.sin(ty).take(n, axis=1), np.cos(ty).take(n, axis=1))


def _te_factor(conventions: Conventions) -> float:
    return -2.0 if conventions.te_factor == "derivation-consistent" else 1.0


def _paper_cross(geom, k, trig, decay):
    """Printed paper-literal TM xy and yx couplings per mode.

    ``trig`` is the output of :func:`_axis_trig` and ``decay`` the radial
    factor e^{-kz} (1.0 for the z-independent rows of a mode table).
    """
    sx, cx, sy, cy = trig
    pref = -(np.pi ** 2 / (2.0 * geom.area ** 2 * k)) * 4.0 * decay
    return (pref * cx[0] * sy[0] * sx[1] * cy[1],
            pref * sx[0] * cy[0] * cx[1] * sy[1])


def _tm_rows(geom, m, n, k, p1, p2, conventions):
    """z-independent TM factor rows of a mode list, shape (6, N) or (8, N).

    Rows 0-2 hold the x, y and z profile factors at p2 and rows 3-5 those
    at p1, so mode by mode the TM coupling is
    sign_ij (4 pi / A) k e^{-kz} rows[i] rows[3 + j].  Under paper-literal
    signs rows 6 and 7 hold the printed xy and yx couplings without their
    e^{-kz}.  ``m`` and ``n`` are integer index arrays; the trig factors
    come from :func:`_axis_trig`.
    """
    ax = m * np.pi / geom.a
    ay = n * np.pi / geom.b
    trig = _axis_trig(geom, m, n, p2, p1)
    sx, cx, sy, cy = trig
    rows = np.stack([(ax / k) * cx * sy, (ay / k) * sx * cy, sx * sy],
                    axis=1).reshape(6, k.size)
    if conventions.tm_sign == "paper-literal":
        rows = np.vstack([rows, *_paper_cross(geom, k, trig, 1.0)])
    return rows


def _te_rows(geom, m, n, k, p1, p2, conventions):
    """z-independent TE profile rows of a mode list, shape (4, N).

    Rows 0-1 hold the x and y profile components at p2 and rows 2-3 those
    at p1, so mode by mode the TE coupling is
    factor E K0(kz) rows[i] rows[2 + j]; the z components vanish.
    """
    ax = m * np.pi / geom.a
    ay = n * np.pi / geom.b
    nf = np.ones_like(k)
    if conventions.normalization == "unit-normalized":
        nf[(m == 0) | (n == 0)] = 1.0 / math.sqrt(2.0)
    root_a = 2.0 / math.sqrt(geom.area)
    sx, cx, sy, cy = _axis_trig(geom, m, n, p2, p1)
    ex = -root_a * nf * (ay / k) * cx * sy
    ey = root_a * nf * (ax / k) * sx * cy
    return np.stack([ex, ey], axis=1).reshape(4, k.size)


def _tm_mode_tensors(geom, m, n, k, rows, p1, p2, z, conventions):
    """Per-mode 3x3 TM couplings, shape (3, 3, N), from :func:`_tm_rows` rows."""
    decay = np.exp(-k * z)
    base = (4.0 * np.pi / geom.area) * k * decay
    out = _tm_sign_matrix(conventions)[:, :, None] * base[None, None, :]
    out *= rows[0:3, None, :]
    out *= rows[None, 3:6, :]
    if conventions.tm_sign == "paper-literal":
        # The table's cross rows lack e^{-kz}; multiplying it in afterwards
        # would round differently from the printed product order.
        out[0, 1, :], out[1, 0, :] = _paper_cross(
            geom, k, _axis_trig(geom, m, n, p2, p1), decay)
    return out


def _te_mode_tensors(k, rows, z, energy, conventions):
    """Per-mode 3x3 TE couplings, shape (3, 3, N), from :func:`_te_rows` rows."""
    radial = _te_factor(conventions) * energy * _scipy_k0(k * z)
    zero = np.zeros((1, k.size))
    out = np.empty((3, 3, k.size))
    np.multiply(radial[None, None, :], np.vstack([rows[0:2], zero])[:, None, :], out=out)
    out *= np.vstack([rows[2:4], zero])[None, :, :]
    return out


def _tm_tail_bound(K: float, z: float, geom: Geometry) -> float:
    """Continuum-envelope bound on the dropped TM modes beyond cutoff K.

    Per-mode magnitudes are bounded by (4 pi / A) k exp(-k z); the mode
    density per polarization is ~ A k / (2 pi), so the tail is below
    2 * integral_K^inf k^2 exp(-k z) dk, plus an axis-row allowance.
    """
    ez = math.exp(-K * z)
    integral = 2.0 * ez * (K * K / z + 2.0 * K / z ** 2 + 2.0 / z ** 3)
    axis = (geom.a + geom.b) / math.pi * (4.0 * math.pi / geom.area) \
        * ez * (K + 1.0 / z) / z
    return integral + axis


def _te_tail_bound(K: float, z: float, geom: Geometry, energy: float) -> float:
    # |F_TE| <= 2 E (4/A) K0(kz) and K0(x) < sqrt(pi/2x) e^-x.
    ez = math.exp(-K * z)
    pref = 2.0 * energy * (4.0 / geom.area) * (geom.area / TWO_PI)
    integral = pref * math.sqrt(math.pi / (2.0 * z)) * ez * (math.sqrt(K) / z + 1.0 / z ** 2)
    axis = 2.0 * energy * (4.0 / geom.area) * (geom.a + geom.b) / math.pi \
        * math.sqrt(math.pi / (2.0 * K * z)) * ez / z
    return integral + axis


# A mode table keeps its modes in blocks at fixed table positions.  The
# first block holds _FIRST_BLOCK modes and each next one twice as many as
# the one before, up to _TABLE_BLOCK modes (about 0.4 MB per TM block), so
# a small table allocates little.  Blocks are never grown or copied: arrays
# grown at every cutoff step leave holes in the malloc heap that later
# calls reuse or not, and the peak memory of a long-running process then
# changes from run to run.  A block is also the unit of contraction, so
# the order of a sum depends only on how many modes it covers, not on how
# the table was filled.
_FIRST_BLOCK = 1024
_TABLE_BLOCK = 8192
_GROWING_BLOCKS = (_TABLE_BLOCK // _FIRST_BLOCK).bit_length()


def _block_start(j: int) -> int:
    """Table position of the first mode of block j."""
    if j <= _GROWING_BLOCKS:
        return _FIRST_BLOCK << (j - 1) if j else 0
    return _TABLE_BLOCK * (j + 1 - _GROWING_BLOCKS)


def _block_index(position: int) -> int:
    """Index of the block that holds table position ``position``."""
    if position < _TABLE_BLOCK:
        return (position // _FIRST_BLOCK).bit_length()
    return position // _TABLE_BLOCK + _GROWING_BLOCKS - 1


class _Block:
    """Cutoffs, indices and factor rows of one block of a mode table."""

    __slots__ = ("k", "mn", "rows")

    def __init__(self, n_modes: int, n_rows: int):
        self.k = np.empty(n_modes)
        self.mn = np.empty((2, n_modes), dtype=np.int32)
        self.rows = np.empty((n_modes, n_rows))  # one mode per row


class ModeTable:
    """Cutoff-sorted modes of one guide, pair of points and conventions.

    Per polarization the table holds each mode's cutoff k, its indices
    (m, n) and its z-independent transverse factor rows (:func:`_tm_rows`,
    :func:`_te_rows`), listed shell by shell as :meth:`extend` raises the
    cutoff.  Only the radial factors depend on the separation, so one
    table serves every separation and transition level of a sweep:
    :meth:`sums` weights the rows with (4 pi / A) k e^{-kz} (TM) and
    K0(kz) (TE) and contracts them block by block.
    """

    def __init__(self, geom: Geometry, p1: TransversePoint,
                 p2: TransversePoint, conventions: Conventions):
        self.key = (geom, p1, p2, conventions)
        self.cutoff: float | None = None
        self._blocks: dict[str, list[_Block]] = {TM: [], TE: []}
        self._size = {TM: 0, TE: 0}
        # Per separation: sums over whole blocks, sums by mode counts, and
        # the radial factors of the block contracted last.
        self._z = None
        self._cumulative: dict[str, list[np.ndarray]] = {}
        self._memo: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
        self._radial = {pol: [-1, 0, None] for pol in (TM, TE)}

    def extend(self, K: float) -> None:
        """List the modes with k <= K (1 + 1e-12) that the table lacks."""
        if self.cutoff is not None and K <= self.cutoff:
            return
        geom, p1, p2, conv = self.key
        shell = mode_arrays(geom, K, self.cutoff)
        for pol, rows_of in ((TM, _tm_rows), (TE, _te_rows)):
            m, n, k = shell[pol]["m"], shell[pol]["n"], shell[pol]["k"]
            start = 0
            while start < k.size:
                j = _block_index(self._size[pol])
                off = self._size[pol] - _block_start(j)
                stop = min(k.size, start + _block_start(j + 1) - self._size[pol])
                part = slice(start, stop)
                rows = rows_of(geom, m[part], n[part], k[part], p1, p2, conv)
                if off == 0:
                    self._blocks[pol].append(
                        _Block(_block_start(j + 1) - _block_start(j), rows.shape[0]))
                block = self._blocks[pol][j]
                put = slice(off, off + stop - start)
                block.k[put] = k[part]
                block.mn[:, put] = m[part], n[part]
                block.rows[put] = rows.T
                self._size[pol] += stop - start
                start = stop
        self.cutoff = K

    def _filled(self, pol: str, count: int):
        """(block, modes used) pairs covering the first ``count`` modes."""
        for j, block in enumerate(self._blocks[pol]):
            used = min(block.k.size, count - _block_start(j))
            if used <= 0:
                return
            yield block, used

    def counts(self, K: float) -> tuple[int, int]:
        """Numbers of TM and TE modes with k <= K (1 + 1e-12).

        With the table extended to K these are the sizes of
        ``mode_arrays(geom, K)``, whose modes are the table's first ones.
        """
        limit = K * (1.0 + 1e-12)
        out = []
        for pol in (TM, TE):
            n = 0
            for block, used in self._filled(pol, self._size[pol]):
                if block.k[used - 1] > limit:
                    n += int(np.searchsorted(block.k[:used], limit, side="right"))
                    break
                n += used
            out.append(n)
        return tuple(out)

    def sums(self, z: float, counts: tuple[int, int]):
        """TM tensor and unit-weight TE tensor over the first ``counts`` modes.

        The TE tensor still lacks its factor * E.  Each full block is
        contracted once per separation and added in table order; a final
        partial block is added last.  The result is therefore a function
        of z and ``counts`` alone, whatever else the table holds, and the
        levels and growth steps at one z share the full blocks' sums.
        """
        if z != self._z:
            self._z, self._memo = z, {}
            self._cumulative = {pol: [np.zeros((3, 3))] for pol in (TM, TE)}
            for cache in self._radial.values():
                cache[0] = -1
        if counts not in self._memo:
            out = []
            for pol, count in zip((TM, TE), counts):
                full = _block_index(count)
                part = count - _block_start(full)
                cumulative = self._cumulative[pol]
                while len(cumulative) <= full:
                    j = len(cumulative) - 1
                    cumulative.append(cumulative[j] + self._contract(
                        pol, j, self._blocks[pol][j].k.size, z))
                total = cumulative[full]
                if part:
                    total = total + self._contract(pol, full, part, z)
                out.append(total)
            self._memo[counts] = tuple(out)
        return self._memo[counts]

    def _radial_factor(self, pol: str, j: int, used: int, z: float) -> np.ndarray:
        """e^{-kz} (TM) or K0(kz) (TE) over the first ``used`` modes of block j.

        Growth steps and levels contract the last block again with more
        modes; the factors already taken for it are kept, so each mode's
        exp or K0 is evaluated once per separation.
        """
        cache = self._radial[pol]  # [block, modes done, values]
        if cache[0] != j:
            cache[:] = j, 0, np.empty(self._blocks[pol][j].k.size)
        if used > cache[1]:
            kz = self._blocks[pol][j].k[cache[1]:used] * z
            cache[2][cache[1]:used] = np.exp(-kz) if pol == TM else _scipy_k0(kz)
            cache[1] = used
        return cache[2][:used]

    def _contract(self, pol: str, j: int, used: int, z: float) -> np.ndarray:
        """3x3 sum over the first ``used`` modes of block j at separation z."""
        geom, _, _, conv = self.key
        block = self._blocks[pol][j]
        k, rows = block.k[:used], block.rows[:used]
        radial = self._radial_factor(pol, j, used, z)
        out = np.zeros((3, 3))
        if pol == TE:
            out[:2, :2] = (rows[:, 0:2] * radial[:, None]).T @ rows[:, 2:4]
            return out
        out[:] = (rows[:, 0:3] * (radial * k)[:, None]).T @ rows[:, 3:6]
        out *= (4.0 * np.pi / geom.area) * _tm_sign_matrix(conv)
        if conv.tm_sign == "paper-literal":
            out[0, 1], out[1, 0] = radial @ rows[:, 6:8]
        return out

    def per_mode(self, counts: tuple[int, int], z: float,
                 energy: float) -> dict[ModeIndex, np.ndarray]:
        """Each of the first ``counts`` modes mapped to its 3x3 coupling."""
        geom, p1, p2, conv = self.key
        out = {}
        for pol, count in zip((TM, TE), counts):
            if count == 0:
                continue
            parts = [(b.k[:used], b.mn[:, :used], b.rows[:used].T)
                     for b, used in self._filled(pol, count)]
            k, mn, rows = (np.concatenate(p, axis=-1) for p in zip(*parts))
            if pol == TM:
                tensors = _tm_mode_tensors(geom, mn[0], mn[1], k, rows, p1, p2,
                                           z, conv)
            else:
                tensors = _te_mode_tensors(k, rows, z, energy, conv)
            for idx, (m, n) in enumerate(zip(*mn.tolist())):
                out[ModeIndex(pol, m, n)] = tensors[:, :, idx].copy()
        return out


def f_tensor(
    config: PairConfiguration,
    energy: float,
    max_cutoff: float | None = None,
    tail_tol: float | None = None,
    mode_cap: int = 1_000_000,
    detail_cap: int = 20_000,
    table: ModeTable | None = None,
) -> FTensorResult:
    """Mode-summed 3x3 coupling tensor for one transition energy.

    Exactly one of ``max_cutoff`` and ``tail_tol`` selects the truncation:
    a fixed cutoff wavenumber, or growth of the cutoff by factors of 1.3
    until the analytic continuum tail bound drops below ``tail_tol``
    times the accumulated tensor scale.

    The modes come from ``table``, a :class:`ModeTable` of config's guide,
    points and conventions, or from a table of the call's own.  A growth
    step extends the table only past its present cutoff, so each mode is
    listed and its transverse factors built once per table.  The sums are
    those of :meth:`ModeTable.sums` over the modes below the cutoff: they
    depend only on (config, energy, cutoff), so growth and a fixed cutoff
    give bit-identical results, with a shared table or without.

    With either dipole at a corner of the cross-section every mode
    profile vanishes there, so the tensor is exactly zero and no mode is
    listed.
    """
    if (max_cutoff is None) == (tail_tol is None):
        raise InputError("specify exactly one of max_cutoff or tail_tol")
    for name, value in (("max_cutoff", max_cutoff), ("tail_tol", tail_tol)):
        if value is not None and not 0.0 < value < math.inf:
            raise InputError(f"{name} must be positive and finite, got {value!r}")
    geom, z, conv = config.geom, config.z, config.conventions
    p1, p2 = config.p1, config.p2
    if max_cutoff is not None:
        K = max_cutoff
    else:
        K = max(3.0 * math.pi / max(geom.a, geom.b), 8.0 / z)
    if geom.is_corner(p1) or geom.is_corner(p2):
        return FTensorResult(tensor=np.zeros((3, 3)), tm_tensor=np.zeros((3, 3)),
                             te_tensor=np.zeros((3, 3)), modes_used=0,
                             tail_bound=0.0, max_cutoff=K)
    if table is None:
        table = ModeTable(geom, p1, p2, conv)
    elif table.key != (geom, p1, p2, conv):
        raise InputError("the mode table belongs to another guide, pair of "
                         "points or set of conventions")
    te_weight = _te_factor(conv) * energy
    while True:
        if mode_count(geom, K) > mode_cap:
            raise ModeCapError(mode_count(geom, K), mode_cap)
        table.extend(K)
        counts = table.counts(K)
        tm_sum, te_unit = table.sums(z, counts)
        te_sum = te_weight * te_unit
        tail = _tm_tail_bound(K, z, geom) + _te_tail_bound(K, z, geom, energy)
        if max_cutoff is not None:
            break
        scale = max(np.abs(tm_sum).max(), np.abs(te_sum).max(), 1e-300)
        if tail <= tail_tol * scale:
            break
        K *= 1.3
    n_modes = counts[0] + counts[1]
    detail = (table, counts, z, energy) if n_modes <= detail_cap else None
    return FTensorResult(tensor=tm_sum + te_sum, tm_tensor=tm_sum,
                         te_tensor=te_sum, modes_used=n_modes,
                         tail_bound=tail, max_cutoff=K, _detail=detail)


def f_tensor_from_modes(config: PairConfiguration, energy: float,
                        modes: list[ModeIndex]) -> FTensorResult:
    """Coupling tensor restricted to an explicit mode list (closed forms)."""
    tm = np.zeros((3, 3))
    te = np.zeros((3, 3))
    conv = config.conventions
    for mode in modes:
        for i_ax, i in enumerate("xyz"):
            for j_ax, j in enumerate("xyz"):
                if mode.polarization == TM:
                    val = _coupling.f_tm_closed(
                        config.geom, mode, i + j, config.p1, config.p2,
                        config.z, conv.tm_sign).value
                    tm[i_ax, j_ax] += val
                else:
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore", TightConfinementWarning)
                        val = _coupling.f_te_closed(
                            config.geom, mode, i + j, config.p1, config.p2,
                            config.z, energy, conv.te_factor,
                            conv.normalization).value
                    te[i_ax, j_ax] += val
    return FTensorResult(tensor=tm + te, tm_tensor=tm, te_tensor=te,
                         modes_used=len(modes), tail_bound=0.0,
                         max_cutoff=float("nan"))


def quadratic_contraction(P2: np.ndarray, P1: np.ndarray,
                          F2: np.ndarray, F1: np.ndarray) -> float:
    """sum_{ijlq} P2_il P1_jq F2_ij F1_lq."""
    return float(np.einsum("il,jq,ij,lq->", P2, P1, F2, F1))


def _confinement_guard(config: PairConfiguration) -> list[str]:
    notes = []
    for label, sp in (("species1", config.species1), ("species2", config.species2)):
        for t in sp.transitions:
            ratio = t.confinement_ratio(config.geom)
            if ratio < 2.0:
                raise InputError(
                    f"{label} transition E={t.energy:g} has wavelength/confinement "
                    f"ratio {ratio:.2f} < 2; tight-confinement assembly invalid")
            if ratio < 10.0:
                msg = (f"{label} transition E={t.energy:g}: wavelength/confinement "
                       f"ratio {ratio:.2f} < 10; tight-confinement accuracy degrades")
                warnings.warn(msg, TightConfinementWarning, stacklevel=3)
                notes.append(msg)
    return notes


def _assemble(config: PairConfiguration, make_tensor, notes: list[str]) -> EnergyBreakdown:
    """Pair energy from the coupling tensor ``make_tensor(E)`` of each level."""
    for label, p in (("species1", config.p1), ("species2", config.p2)):
        if config.geom.is_corner(p):
            notes.append(f"{label} dipole sits at the corner ({p.x:g}, {p.y:g}) "
                         f"of the cross-section, where every TE and TM mode "
                         f"profile vanishes; the pair energy is zero")
    eps = config.epsilon
    pref = -1.0 / (TWO_PI * eps) ** 2

    f_cache: dict[float, FTensorResult] = {}

    def tensor_for(energy: float) -> FTensorResult:
        if energy not in f_cache:
            f_cache[energy] = make_tensor(energy)
        return f_cache[energy]

    total = 0.0
    tm_only = 0.0
    te_only = 0.0
    tail_total = 0.0
    per_pair: dict[tuple[int, int], float] = {}
    ones = np.ones((3, 3))
    for i1, t1 in enumerate(config.species1.transitions):
        for i2, t2 in enumerate(config.species2.transitions):
            f1 = tensor_for(t1.energy)
            f2 = tensor_for(t2.energy)
            p1m = config.species1.second_moment(t1)
            p2m = config.species2.second_moment(t2)
            w = pref / (t1.energy + t2.energy)
            # Adding 0.0 turns the -0.0 of a zero contraction into 0.0 and
            # leaves every other value as it is.
            u_pair = w * quadratic_contraction(p2m, p1m, f2.tensor, f1.tensor) + 0.0
            per_pair[(i1, i2)] = u_pair
            total += u_pair
            tm_only += w * quadratic_contraction(p2m, p1m, f2.tm_tensor, f1.tm_tensor)
            te_only += w * quadratic_contraction(p2m, p1m, f2.te_tensor, f1.te_tensor)
            t_hi = max(f1.tail_bound, f2.tail_bound)
            # |P| keeps the fixed-vector bound from cancelling between
            # dipole components of opposite sign.
            abs2, abs1 = np.abs(p2m), np.abs(p1m)
            cross = quadratic_contraction(abs2, abs1, np.abs(f2.tensor), ones) \
                + quadratic_contraction(abs2, abs1, ones, np.abs(f1.tensor))
            tail_total += abs(w) * (t_hi * cross + 9.0 * t_hi * t_hi
                                    * p2m.trace() * p1m.trace())
    modes_used = max((f.modes_used for f in f_cache.values()), default=0)
    return EnergyBreakdown(total=total, per_level_pair=per_pair,
                           u_tm_only=tm_only, u_te_only=te_only,
                           tail_estimate=tail_total, modes_used=modes_used,
                           warnings=notes, conventions=config.conventions,
                           f_by_level=f_cache)


_TINY = sys.float_info.min


def _energy_underflows(config: PairConfiguration, u: EnergyBreakdown) -> bool:
    """True when an exact 0.0 energy stands for a non-zero one that underflowed.

    The contraction is repeated on tensors scaled to unit size; a tensor
    that is zero away from the corners has underflowed as a whole.
    """
    for t1 in config.species1.transitions:
        for t2 in config.species2.transitions:
            f1 = u.f_by_level[t1.energy].tensor
            f2 = u.f_by_level[t2.energy].tensor
            s1, s2 = np.abs(f1).max(), np.abs(f2).max()
            if s1 == 0.0 or s2 == 0.0 or quadratic_contraction(
                    config.species2.second_moment(t2),
                    config.species1.second_moment(t1), f2 / s2, f1 / s1) != 0.0:
                return True
    return False


def _sweep(config: PairConfiguration, zs, tail_tol: float, max_cutoff: float | None,
           mode_cap: int, detail_cap: int, notes: list[str]) -> list[EnergyBreakdown]:
    truncation = ({"max_cutoff": max_cutoff} if max_cutoff is not None
                  else {"tail_tol": tail_tol})
    table = ModeTable(config.geom, config.p1, config.p2, config.conventions)
    corner = config.geom.is_corner(config.p1) or config.geom.is_corner(config.p2)
    out = []
    for z in zs:
        point = replace(config, z=z)
        u = _assemble(point, lambda e: f_tensor(point, e, mode_cap=mode_cap,
                                                detail_cap=detail_cap,
                                                table=table, **truncation),
                      list(notes))
        # Below the smallest normal double a value keeps fewer digits, and
        # from the smallest subnormal on it reads 0.
        if not corner:
            if u.tail_estimate < _TINY:
                u.warnings.append(
                    f"tail_estimate underflows at z={z:g}: the truncation error "
                    f"bound {float(u.tail_estimate)!r} is below the smallest normal "
                    f"double")
            if abs(u.total) < _TINY and (u.total != 0.0
                                         or _energy_underflows(point, u)):
                u.warnings.append(
                    f"total underflows at z={z:g}: the pair energy "
                    f"{float(u.total)!r} is below the smallest normal double")
        out.append(u)
    return out


def dispersion_sweep(
    config: PairConfiguration,
    zs,
    tail_tol: float = 1e-6,
    max_cutoff: float | None = None,
    mode_cap: int = 1_000_000,
    detail_cap: int = 20_000,
) -> list[EnergyBreakdown]:
    """Pair energy at each axial separation in ``zs``, in order.

    Each point is ``config`` with its z replaced, truncated by ``tail_tol``
    or ``max_cutoff`` as in :func:`f_tensor`.  Every point and level sums
    from one :class:`ModeTable`, so each mode is listed and its transverse
    factors are built once per sweep; a point costs its radial weights and
    contractions.  Each breakdown equals that of :func:`dispersion_energy`
    at its z bit for bit.
    """
    return _sweep(config, zs, tail_tol, max_cutoff, mode_cap, detail_cap,
                  _confinement_guard(config))


def dispersion_energy(
    config: PairConfiguration,
    tail_tol: float = 1e-6,
    max_cutoff: float | None = None,
    mode_cap: int = 1_000_000,
    detail_cap: int = 20_000,
    mode_list: list[ModeIndex] | None = None,
) -> EnergyBreakdown:
    """Assembled pair dispersion energy with per-part bookkeeping.

    ``mode_list`` restricts the mode sum to an explicit set (used by the
    oracle cross-checks); otherwise the sum is truncated by ``tail_tol``
    or ``max_cutoff`` as in :func:`f_tensor`, and the result is the
    one-point case of :func:`dispersion_sweep`.
    """
    notes = _confinement_guard(config)
    if mode_list is not None:
        return _assemble(config, lambda e: f_tensor_from_modes(config, e, mode_list),
                         notes)
    return _sweep(config, [config.z], tail_tol, max_cutoff, mode_cap,
                  detail_cap, notes)[0]


def polarizability(species: DipoleSpecies, u: float) -> float:
    """Dynamic polarizability at imaginary frequency, alpha(i u).

    alpha(i u) = (2/3) sum_e E_e |d_e|^2 / (E_e^2 + u^2); positive and
    monotone decreasing in u.
    """
    if u < 0.0:
        raise InputError(f"imaginary-frequency magnitude must be >= 0, got {u!r}")
    return float(sum((2.0 / 3.0) * t.energy * t.d_squared / (t.energy ** 2 + u * u)
                     for t in species.transitions))


def u_retarded_closed(config: PairConfiguration) -> float:
    """Printed retarded-regime closed form (two lowest TE modes only).

    Requires a square guide, both dipoles at the same transverse point
    and isotropic orientation averaging.  The overall prefactor follows
    the printed formula verbatim and is convention dependent; rely on
    the functional form exp(-2 pi z / a)/z, not the absolute scale.
    """
    geom = config.geom
    if not math.isclose(geom.a, geom.b, rel_tol=1e-12):
        raise InputError("retarded closed form requires a square guide (a == b)")
    if not (math.isclose(config.p1.x, config.p2.x, rel_tol=0, abs_tol=1e-12 * geom.a)
            and math.isclose(config.p1.y, config.p2.y, rel_tol=0,
                             abs_tol=1e-12 * geom.b)):
        raise InputError("retarded closed form requires p1 == p2")
    for sp in (config.species1, config.species2):
        if sp.orientation != "isotropic-average":
            raise InputError("retarded closed form assumes isotropic orientation")
    if config.z < 2.0 * geom.a:
        warnings.warn("retarded closed form derived for z >= 2a",
                      ValidityDomainWarning, stacklevel=2)
    a = geom.a
    # sin^4 transverse factor, averaged over the two lowest TE modes when
    # the x and y coordinates differ (they coincide in the printed form).
    s4 = 0.5 * (math.sin(math.pi * config.p1.x / a) ** 4
                + math.sin(math.pi * config.p1.y / a) ** 4)
    acc = 0.0
    for t1 in config.species1.transitions:
        for t2 in config.species2.transitions:
            acc += (t1.d_squared * t2.d_squared / (t1.energy + t2.energy)
                    / (t1.wavelength * t2.wavelength))
    return (-(8.0 * math.pi ** 2 / 9.0) * s4 / config.epsilon ** 2
            * acc / a ** 3 * math.exp(-TWO_PI * config.z / a) / config.z)


def u_retarded_polarizability_form(config: PairConfiguration) -> float:
    """Retarded closed form rewritten through alpha(i u); report use only.

    Implemented for single-transition species, integrating the product of
    the two polarizabilities over the whole imaginary-frequency axis, which
    reproduces the printed discrete-sum form exactly.
    """
    if (len(config.species1.transitions) != 1
            or len(config.species2.transitions) != 1):
        raise InputError("polarizability form implemented for single-transition "
                         "species only")
    from scipy.integrate import quad as _quad

    t1 = config.species1.transitions[0]
    t2 = config.species2.transitions[0]
    geom = config.geom
    if not math.isclose(geom.a, geom.b, rel_tol=1e-12):
        raise InputError("retarded closed form requires a square guide (a == b)")
    a = geom.a
    s4 = 0.5 * (math.sin(math.pi * config.p1.x / a) ** 4
                + math.sin(math.pi * config.p1.y / a) ** 4)
    integral, _ = _quad(lambda u: polarizability(config.species1, u)
                        * polarizability(config.species2, u),
                        0.0, np.inf, limit=200)
    integral *= 2.0  # even integrand, full axis
    return (-TWO_PI * s4 / config.epsilon ** 2 * integral
            / (t1.wavelength * t2.wavelength * a ** 3)
            * math.exp(-TWO_PI * config.z / a) / config.z)


_NEAR_FIELD_M = np.diag([1.0, 1.0, -2.0])


def u_freespace_vdw(species1: DipoleSpecies, species2: DipoleSpecies, r: float,
                    form: str = "isotropic", epsilon: float = 1.0) -> float:
    """Free-space quasistatic (1/r^6) reference energy.

    ``isotropic`` evaluates the orientation-averaged closed form;
    ``tensor`` contracts the full near-field tensor (axis along z) with
    the species' dipole second moments, which reproduces the isotropic
    form under averaging and handles fixed vectors exactly.
    """
    if not (r > 0.0):
        raise InputError(f"separation must be positive, got {r!r}")
    if form == "isotropic":
        acc = sum(t1.d_squared * t2.d_squared / (t1.energy + t2.energy)
                  for t1 in species1.transitions for t2 in species2.transitions)
        return -acc / (24.0 * math.pi ** 2 * epsilon ** 2 * r ** 6)
    if form != "tensor":
        raise InputError(f"form must be 'isotropic' or 'tensor', got {form!r}")
    pref = -1.0 / (TWO_PI * epsilon) ** 2 / r ** 6
    total = 0.0
    for t1 in species1.transitions:
        for t2 in species2.transitions:
            p1m = species1.second_moment(t1)
            p2m = species2.second_moment(t2)
            total += pref / (t1.energy + t2.energy) * 0.25 \
                * quadratic_contraction(p2m, p1m, _NEAR_FIELD_M, _NEAR_FIELD_M)
    return total


def u_near_field_assembled(species1: DipoleSpecies, species2: DipoleSpecies,
                           z: float, epsilon: float = 1.0) -> float:
    """Pair energy assembled from the small-z mode-sum component table.

    Independent route to the same quantity as the tensor free-space form:
    the center-guide near-field components (zz -> 1/z^3, xx = yy ->
    -1/(2 z^3)) are contracted through the generic quadratic form.
    """
    comps = near_field_components(z)
    f = np.diag([comps["xx"], comps["yy"], comps["zz"]])
    pref = -1.0 / (TWO_PI * epsilon) ** 2
    total = 0.0
    for t1 in species1.transitions:
        for t2 in species2.transitions:
            p1m = species1.second_moment(t1)
            p2m = species2.second_moment(t2)
            total += pref / (t1.energy + t2.energy) \
                * quadratic_contraction(p2m, p1m, f, f)
    return total


def u_freespace_cp(species1: DipoleSpecies, species2: DipoleSpecies, r: float,
                   epsilon: float = 1.0) -> float:
    """Free-space retarded (1/r^7) reference; printed overall sign kept."""
    if not (r > 0.0):
        raise InputError(f"separation must be positive, got {r!r}")
    lam_max = max(t.wavelength for sp in (species1, species2)
                  for t in sp.transitions)
    if r < lam_max:
        warnings.warn("retarded free-space form assumes r >> every transition "
                      "wavelength", ValidityDomainWarning, stacklevel=2)
    acc = sum(t1.d_squared * t2.d_squared / (t1.energy * t2.energy)
              for t1 in species1.transitions for t2 in species2.transitions)
    return 23.0 / (144.0 * math.pi ** 3) * acc / (epsilon ** 2 * r ** 7)


def ratio_to_freespace(z: float, lambda_e: float, a: float,
                       regime: str = "vdw-reference") -> float:
    """In-guide to free-space energy ratio for a single centered transition.

    ``vdw-reference`` compares against the quasistatic 1/r^6 form:
        (64 pi^4 / 3) z^5 / (lambda^2 a^3) exp(-2 pi z / a)
    ``cp-reference`` against the retarded 1/r^7 form:
        (128 pi^6 / 23) z^6 / (lambda^3 a^3) exp(-2 pi z / a)
    """
    if not (z > 0.0 and lambda_e > 0.0 and a > 0.0):
        raise InputError("z, lambda_e and a must all be positive")
    damp = math.exp(-TWO_PI * z / a)
    if regime == "vdw-reference":
        return (64.0 * math.pi ** 4 / 3.0) * z ** 5 / (lambda_e ** 2 * a ** 3) * damp
    if regime == "cp-reference":
        return (128.0 * math.pi ** 6 / 23.0) * z ** 6 / (lambda_e ** 3 * a ** 3) * damp
    raise InputError(f"regime must be 'vdw-reference' or 'cp-reference', "
                     f"got {regime!r}")
