"""Total dispersion energy of a ground-state dipole pair in the guide.

The pair energy is assembled from per-mode couplings as

    U = -(1/(2 pi eps)^2) sum_{e1,e2} sum_{ijlq}
        d2_i d1_j d2_l d1_q / (E_e1 + E_e2) * F^{(e2)}_{ij} F^{(e1)}_{lq}

where F^{(e)} sums every TE and TM mode coupling for transition energy
E_e, index i living at the second dipole's transverse point and j at the
first.  Under a tail tolerance its TM part is taken from an Ewald split
and its TE part from a heat-kernel split (:mod:`wgdisp.coupling`), each
over a few dozen modes at any separation, and at a fixed cutoff both from
one reference mode sum; the paper-literal additions are 1-D sums under a
rule in ln t.  Isotropic orientation averaging replaces the
dipole products by their second moments <d_i d_j> = delta_ij |d|^2 / 3
before contraction.

That level-pair sum lives in one place, ``_assemble``, which contracts
every level pair at every separation of a sweep in one einsum; the
mode-set reference energies of :mod:`wgdisp.fourth_order` are its
one-point case.  The free-space reference energies (quasistatic 1/r^6,
whose tensor form is the one contraction of the free-space near-field
tensor, and retarded 1/r^7) are one function, ``_freespace``, that
``_assemble`` calls once per sweep at the pair's true separation, so each
breakdown carries them.  The module also carries the retarded in-guide closed form, the
regime ratio formulas, and the dynamic polarizability at imaginary
frequency.  Natural units hbar = c = 1; energies are in units of
hbar c / length.
"""

from __future__ import annotations

import bisect
import itertools
import math
import sys
import warnings
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
from ._special import k0 as _k0

from .conventions import KERNEL_TE_FACTOR, KERNEL_TM_SIGNS, Conventions, apply
from .errors import (InputError, TightConfinementWarning, ValidityDomainWarning,
                     _require_positive)
from .waveguide import (MODE_CAP, TE, TM, Geometry, ModeIndex, TransversePoint,
                        _check_cap, mode_arrays, mode_count)
from . import coupling as _coupling
from .coupling import _power

TWO_PI = 2.0 * math.pi
_Z_FLOOR = 1e-60  # the splits' z^-5 image terms pass the largest double below ~6e-62


@dataclass(frozen=True)
class DipoleTransition:
    """One ground-to-excited transition: energy and dipole vector."""

    energy: float
    d: tuple[float, float, float]

    def __post_init__(self):
        _require_positive("transition energy", self.energy)
        try:
            vec = [float(c) for c in self.d]
        except TypeError:  # not a sequence of numbers
            vec = []
        if isinstance(self.d, str) or len(vec) != 3 or not all(map(math.isfinite, vec)):
            raise InputError("dipole vector must be three finite components")
        if not any(vec):
            raise InputError("dipole vector must be non-zero")
        if not math.isfinite(self.d_squared):
            raise InputError("dipole vector must be short enough that |d|^2 is finite")

    @property
    def wavelength(self) -> float:
        return TWO_PI / self.energy

    @property
    def d_vec(self) -> np.ndarray:
        return np.asarray(self.d, dtype=float)

    @cached_property
    def d_squared(self) -> float:
        with np.errstate(over="ignore"):  # inf: refused by __post_init__
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

    @cached_property
    def second_moments(self) -> np.ndarray:
        """<d_i d_j> of every transition, stacked (L, 3, 3), read-only: d d^T
        for fixed vectors, delta_ij |d|^2 / 3 for the isotropic average."""
        if self.orientation == "fixed-vector":
            out = np.array([np.outer(t.d_vec, t.d_vec) for t in self.transitions])
        else:
            out = np.array([np.eye(3) * (t.d_squared / 3.0) for t in self.transitions])
        out.flags.writeable = False
        return out

    @cached_property
    def _abs_moments(self) -> tuple[np.ndarray, list[float]]:
        """|second_moments| and the trace of each moment, for tail bounds."""
        out = np.abs(self.second_moments)
        out.flags.writeable = False
        return out, [float(p.trace()) for p in self.second_moments]

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
        _require_positive("axial separation", self.z, "z=")
        if self.z < _Z_FLOOR:
            raise InputError(f"axial separation z={self.z!r} is below {_Z_FLOOR:g}; the "
                             f"splits' z^-5 near-field terms overflow from about 6e-62")
        _require_positive("permittivity", self.epsilon)
        if not sys.float_info.min <= _power(TWO_PI * self.epsilon, 2) < math.inf:
            raise InputError(f"permittivity {self.epsilon!r} is out of range: the energies' "
                             f"prefactor needs (2 pi epsilon)^2 to be a normal double")
        a, b = self.geom.a, self.geom.b
        if _FAR * (a + b) < _Z_FLOOR:
            raise InputError(f"guide a={a!r}, b={b!r} is too small for the splits: they need "
                             f"{_FAR:g} (a + b), the largest z they take, at least "
                             f"{_Z_FLOOR:g}")
        if _power(_FAR * (a + b), 3) == math.inf:
            raise InputError(f"guide a={a!r}, b={b!r} is too large for the splits: the cube "
                             f"of {_FAR:g} (a + b), the largest z they take, is not a double")
        if not (self.geom.contains(self.p1) and self.geom.contains(self.p2)):
            raise InputError("both dipoles must sit inside the cross-section")


@dataclass
class FTensorResult:
    """Coupling tensor for one transition energy.

    Under ``tail_tol`` the tensors are the splits, and ``tm_cutoff`` and the
    counts are their screened modes'.  Under ``max_cutoff`` they are the
    mode sum (:func:`_mode_sum`) of the ``tm_modes`` TM and ``te_modes`` TE
    modes with k <= ``tm_cutoff``, that cutoff, also at a corner.  The
    paper-literal printed sums list no mode.  ``tail_bound`` bounds what
    the truncations and the mode sum's rounding take from any tensor entry.
    The private fields are what :meth:`top_modes` and ``max_cutoff`` read;
    ``_budget`` is None under ``max_cutoff``.
    """

    tensor: np.ndarray
    tm_tensor: np.ndarray
    te_tensor: np.ndarray
    tail_bound: float
    tm_cutoff: float
    tm_modes: int
    te_modes: int
    _table: ModeTable | None = field(default=None, repr=False, compare=False)
    _config: PairConfiguration | None = field(default=None, repr=False, compare=False)
    _energy: float = field(default=0.0, repr=False, compare=False)
    _budget: float | None = field(default=None, repr=False, compare=False)
    _tm_tail: float = field(default=0.0, repr=False, compare=False)

    @cached_property
    def max_cutoff(self) -> float:
        """``tm_cutoff``, or under ``tail_tol`` the larger of it and the cutoff
        a plain TE mode sum would need: the least max(3 pi / max(a, b), 8 / z)
        times a power of 1.3 at which the TE lattice tail plus the TM split's
        bound fits the budget.  Each step's listing meets the mode cap."""
        if self._budget is None:
            return self.tm_cutoff
        geom, z = self._config.geom, self._config.z
        te_bound = self._config.conventions.te_bound(self._energy)
        K = max(3.0 * math.pi / max(geom.a, geom.b), 8.0 / z)
        while self._tm_tail + te_bound * _lattice_tail(self._table, TE, K, z) > self._budget:
            K *= 1.3
        return max(self.tm_cutoff, K)

    @property
    def modes_used(self) -> int:
        return self.tm_modes + self.te_modes

    def top_modes(self, n: int) -> list[tuple[ModeIndex, float, np.ndarray]]:
        """Up to ``n`` of the tensor's listed modes with the largest max |F|,
        as (mode, max |F|, 3x3 coupling), ranked by (-max |F|, polarization,
        m, n).

        The listed modes are the first ``tm_modes`` TM and ``te_modes`` TE
        modes of the tensor's table, whose factor rows it already holds.
        Only those whose max |F| lies strictly above :func:`_envelope` at
        ``tm_cutoff`` are kept: that bounds every TM mode the split takes
        past them and, under ``tail_tol``, every such TE mode.  So the list
        is the head of a ranking of every mode the tensor takes; it is short
        or empty where few or no listed modes clear that bound, and empty at
        a corner.  The couplings are built _TOP_BLOCK modes per polarization
        at a time, in cutoff order, until the envelope at each polarization's
        next cutoff lies at or below that bound or strictly below the n-th
        largest max |F| built, so no mode left unbuilt could enter the list.
        """
        if n <= 0 or self._table is None:
            return []
        table, conv, z, energy = self._table, self._config.conventions, self._config.z, self._energy
        geom, p1, p2 = table.key
        te_bound = conv.te_bound(energy)
        floor = max(_envelope(pol, self.tm_cutoff, z, geom, te_bound)
                    for pol in ((TM,) if self._budget is None else (TM, TE)))
        counts = (self.tm_modes, self.te_modes)
        stacks, peaks, mns, best, start = [], [], [], np.empty(0), 0  # per block and polarization
        while True:
            parts = [slice(start, min(start + _TOP_BLOCK, count)) for count in counts]
            lists = [(*table._mn[pol][:, part], table._k[pol][part], table._rows[pol][part].T)
                     for pol, part in zip((TM, TE), parts)]
            stacks += _coupling._mode_tensors(conv, geom, *lists, p1, p2, z, energy)
            peaks += [np.abs(stack).max(axis=(0, 1)) for stack in stacks[-2:]]
            mns += [table._mn[pol][:, part] for pol, part in zip((TM, TE), parts)]
            start += _TOP_BLOCK
            if start >= max(counts):
                break
            best = np.sort(np.concatenate((best, *peaks[-2:])))[-n:]
            nth = best[0] if best.size == n else -math.inf
            nexts = [_envelope(pol, table._k[pol][start], z, geom, te_bound)
                     for pol, count in zip((TM, TE), counts) if start < count]
            if not any(bound > floor and bound >= nth for bound in nexts):
                break
        sizes = [stack.shape[2] for stack in stacks]
        peaks, (ms, ns) = np.concatenate(peaks), np.concatenate(mns, axis=1)
        # Polarization codes in label order: TE (0) ranks before TM (1).
        codes = np.repeat((1, 0) * (len(stacks) // 2), sizes)
        kept = min(n, int(np.count_nonzero(peaks > floor)))
        top = np.lexsort((ns, ms, codes, -peaks))[:kept]
        offsets = list(itertools.accumulate(sizes, initial=0))
        out = []
        for i, code, *mn, peak in zip(top.tolist(), codes[top].tolist(), ms[top].tolist(),
                                      ns[top].tolist(), peaks[top].tolist()):
            s = bisect.bisect_right(offsets, i) - 1
            out.append((ModeIndex(TM if code else TE, *mn), peak,
                        stacks[s][:, :, i - offsets[s]].copy()))
        return out


@dataclass
class EnergyBreakdown:
    total: float
    per_level_pair: dict[tuple[int, int], float]
    u_tm_only: float
    u_te_only: float
    tail_estimate: float
    modes_used: int
    warnings: list[str]
    f_by_level: dict[float, FTensorResult]
    # The free-space references at the pair's separation (see _freespace).
    freespace_vdw: float
    freespace_cp: float


_CHUNK = 8192  # modes per block of factor rows built and per mode-sum contraction
_TOP_BLOCK = 16384  # modes per polarization per coupling build of FTensorResult.top_modes
# Separations per pass of the splits' kernels: the TE short-time rule's
# temporaries hold _SPLIT_CHUNK x (about 70 modes) x 80 nodes doubles.
_SPLIT_CHUNK = 32
# From z = _FAR (a + b) on, every term of both splits and of their bounds
# is below the smallest double (z / eta and k z both pass 3e6), so the
# kernels and bounds take such z there, where no power of z overflows.
_FAR = 1e6


class ModeTable:
    """Cutoff-sorted modes of one guide and pair of points.

    Per polarization the table holds flat arrays of each mode's cutoff k and
    indices (m, n), and the z-independent factor rows (``_tm_rows``,
    ``_te_rows``, one mode per row) of its first modes.  Its listing is the
    one way to them, and holds the mode cap: :meth:`extend` lists the table
    to a cutoff within ``mode_cap`` modes, in one pass for both
    polarizations, and builds the rows of the modes it has not built, and
    :meth:`counts` says how many of the first modes of ``_k``, ``_mn`` and
    ``_rows`` lie below a cutoff.  Only the radial factors depend on the
    separation, so one table serves every separation and transition level of
    a sweep: :func:`_mode_sum` weights and contracts the rows, and the
    splits those of the first, screened modes up to the splits' cutoff,
    adding the image sums over image offsets, signs and rho^2 that the table
    takes once, all oracle-consistent.  Both splits' kernels take rows and
    return tensors with their bounds, so one loop (:meth:`compute_splits`)
    evaluates either at a whole sweep's separations, a chunk of them per
    kernel call, and one accessor (:meth:`split`) reads them.
    """

    def __init__(self, geom: Geometry, p1: TransversePoint, p2: TransversePoint,
                 mode_cap: int = MODE_CAP):
        self.key = (geom, p1, p2)
        self._mode_cap = mode_cap
        self._split_cutoff = _coupling._split_cutoff(geom)
        self.cutoff: float | None = None
        self._k = {pol: np.empty(0) for pol in (TM, TE)}
        self._mn = {pol: np.empty((2, 0), dtype=np.int32) for pol in (TM, TE)}
        # Factor rows of the modes built so far (see _tm_rows and _te_rows).
        self._rows = {TM: np.empty((0, 6)), TE: np.empty((0, 4))}
        # Per polarization: the splits of the last batch, keyed by z, as
        # (tensor, bound); and the levels' shared :func:`_mode_sum` results,
        # keyed by (z, K), which no convention changes.
        self._splits: dict[str, dict[float, tuple]] = {TM: {}, TE: {}}
        self._sums: dict[tuple, tuple] = {}

    def _list(self, K: float) -> None:
        """List the modes with k <= K (1 + 1e-12) unless the table holds them, in
        one ``mode_arrays`` call whose head is the old listing, bit for bit,
        after refusing a K whose :func:`mode_count` passes the mode cap.  The
        refusal names a lower cutoff only where one fits: a listing other than
        the splits' reaches past the lowest cutoff k11."""
        geom = self.key[0]
        if self.cutoff is None or K > self.cutoff:
            remedy = ("the splits list them at any separation, so use a/b nearer 1"
                      if K == self._split_cutoff else "use a lower cutoff"
                      if mode_count(geom, _coupling._k11(geom)) <= self._mode_cap
                      else "no cutoff fits the cap, so use a/b nearer 1")
            _check_cap(geom, K, self._mode_cap, f"{remedy} or, at very small separations, "
                       "the free-space quasistatic form wgdisp.u_freespace_vdw")
            listing = mode_arrays(geom, K)
            for pol in (TM, TE):
                self._k[pol] = listing[pol]["k"]
                self._mn[pol] = np.array((listing[pol]["m"], listing[pol]["n"]), dtype=np.int32)
            self.cutoff = K

    def extend(self, K: float) -> tuple[int, int]:
        """List the modes up to K (:meth:`_list`), give every mode up to K
        factor rows, each mode's built once, and return :meth:`counts` at K."""
        self._list(K)
        geom, p1, p2 = self.key
        counts = self.counts(K)
        for pol, count in zip((TM, TE), counts):
            built = len(self._rows[pol])
            if count <= built:
                continue
            rows_of = _coupling._tm_rows if pol == TM else _coupling._te_rows
            rows = np.empty((count, self._rows[pol].shape[1]))
            rows[:built] = self._rows[pol]
            for start in range(built, count, _CHUNK):  # bounds rows_of's temporaries
                part = slice(start, min(start + _CHUNK, count))
                rows[part] = rows_of(geom, *self._mn[pol][:, part], self._k[pol][part],
                                     p1, p2).T
            self._rows[pol] = rows
        return counts

    def counts(self, K: float) -> tuple[int, int]:
        """Numbers of TM and of TE modes with k <= K (1 + 1e-12), the
        table's first ones once it is listed to K."""
        return tuple(int(self._k[pol].searchsorted(K * (1.0 + 1e-12), side="right"))
                     for pol in (TM, TE))

    def compute_splits(self, zs, pols=(TM, TE)) -> None:
        """Evaluate the splits of the polarizations ``pols`` at every
        separation of ``zs`` and keep them, keyed by z, in place of the last
        batch's splits and mode sums.

        The kernels take the cutoffs and rows of the modes up to the splits'
        cutoff, which :meth:`extend` lists for both polarizations on the
        first call, and :func:`wgdisp.coupling._live` of those rows.  The
        separations go through the kernels of :mod:`wgdisp.coupling`
        (``_tm_split``, ``_te_split``) _SPLIT_CHUNK at a time; a split does
        not depend on which separations share its chunk.  Each bound is
        taken with its tensor, at the z the kernel took.
        """
        geom = self.key[0]
        z = np.array(list(dict.fromkeys(zs)), dtype=float)
        near = np.minimum(z, _FAR * (geom.a + geom.b))
        self._sums = {}
        counts = dict(zip((TM, TE), self.extend(self._split_cutoff)))
        for pol in pols:
            k, rows = self._k[pol][:counts[pol]], self._rows[pol][:counts[pol]]
            live = _coupling._live(rows)
            kernel = _coupling._tm_split if pol == TM else _coupling._te_split
            n = len(live)
            store = {}
            for start in range(0, z.size, _SPLIT_CHUNK):
                part = slice(start, start + _SPLIT_CHUNK)
                out, bounds = kernel(geom, k, rows, self._images, near[part])
                out[:, :n, :n] = np.where(live, out[:, :n, :n], 0.0)
                store.update(zip(z[part].tolist(), zip(out, bounds.tolist())))
            self._splits[pol] = store

    def split(self, pol: str, z: float) -> tuple[np.ndarray, float]:
        """The ``pol`` split at separation z and its truncation bound: the
        oracle-consistent TM tensor of :func:`wgdisp.coupling._tm_split` or the
        unit TE tensor (the TE mode sum without its factor * E) of
        :func:`wgdisp.coupling._te_split`, over the table's first modes up to
        :func:`wgdisp.coupling._split_cutoff`.  Neither depends on the
        transition energy, so the levels at one separation share it.  Read
        from the batch of :meth:`compute_splits`; a z outside it is computed
        as a batch of its own.
        """
        if z not in self._splits[pol]:
            self.compute_splits([z], (pol,))
        return self._splits[pol][z]

    @cached_property
    def _images(self):
        """The split's image offsets, signs and rho^2, built once."""
        return _coupling._split_images(*self.key)


_ENVELOPE_SLACK = 1.0 + 1e-12  # covers the rounding of the envelopes and couplings


def _envelope(pol: str, k: float, z: float, geom: Geometry, te_weight: float) -> float:
    """Bound on max |F| of every mode of polarization ``pol`` with cutoff at
    least k; ``te_weight`` is |factor| E.

    The bound decreases in k.  For TM it is (4 pi / A) k' e^{-k' z} with
    k' = max(k, 1/z), as the rows are at most 1; the paper-literal cross
    terms, 2 pi^2 e^{-kz} / (A^2 k), are at most 1/(4 pi) of it, as
    k^2 >= 2 pi^2 / A.  For TE it is |factor| E (4/A) sqrt(pi / 2kz)
    e^{-kz} > |factor| E (4/A) K0(kz), as the rows are at most 2 / sqrt(A)
    under either normalization.
    """
    if pol == TM:
        k = max(k, 1.0 / z)
        return _ENVELOPE_SLACK * (4.0 * math.pi / geom.area) * k * math.exp(-k * z)
    return _ENVELOPE_SLACK * te_weight * (4.0 / geom.area) \
        * math.sqrt(math.pi / (2.0 * k * z)) * math.exp(-k * z)


def _lattice_tail(table: ModeTable, pol: str, K: float, z: float) -> float:
    """Bound on the envelope of every entry of a mode's TM coupling,
    (4 pi / A) k e^{-kz}, or unit TE coupling under either normalization,
    (4/A) K0(kz), summed over the ``pol`` modes past K.

    The shell (K, K + k_11] is summed mode by mode.  Past it every lattice
    cell, of area pi^2 / A, lies within k_11 below its mode, and so does an
    interval of pi / a or pi / b on the axis of a zero-index TE mode: with
    g >= the envelope non-increasing, the rest is at most (A / 2 pi)
    int_K^inf k g dk + ((a + b) / pi) int_K^inf g dk, for g = (4 pi / A)
    (k + 1/z) e^{-kz} (TM) and (4/A) sqrt(pi / 2kz) e^{-kz} (TE).
    """
    geom, x = table.key[0], K * z
    k11 = _coupling._k11(geom)
    table._list(K + k11)
    k = table._k[pol][table.counts(K)[pol == TE]:table.counts(K + k11)[pol == TE]]
    with np.errstate(over="ignore"):  # k z past the largest double: 0
        shell = float((k * np.exp(-(k * z)) if pol == TM else _k0(k * z)).sum())
    if pol == TM:
        unit, decay = 4.0 * math.pi / geom.area, math.exp(-x)
        plane, line = (decay * (K * K / z + 3.0 * K / _power(z, 2) + 3.0 / _power(z, 3)),
                       decay * (K / z + 2.0 / _power(z, 2))) if decay else (0.0, 0.0)
    else:
        unit, line = 4.0 / geom.area, math.pi / math.sqrt(2.0) / z * math.erfc(math.sqrt(x))
        plane = (math.sqrt(0.5 * math.pi * x) * math.exp(-x) / z + 0.5 * line) / z
    return _ENVELOPE_SLACK * unit * (shell + geom.area / (2.0 * math.pi) * plane
                                     + (geom.a + geom.b) / math.pi * line)


def _blocks(rows: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Sum over the modes of rows[:, :h] weights rows[:, h:], h half the
    row width: one contraction per _CHUNK modes, added in table order."""
    half = rows.shape[1] // 2
    total = np.zeros((half, half))
    for start in range(0, len(rows), _CHUNK):
        part = slice(start, start + _CHUNK)
        total = total + (rows[part, :half] * weights[part, None]).T @ rows[part, half:]
    return total


def _mode_sum(table: ModeTable, z: float, K: float) -> tuple:
    """The reference mode sum over the modes with k <= K (1 + 1e-12): the
    TM tensor and the unit TE tensor (without its factor * E), read-only,
    whose bits depend on z, K, the guide and the points alone; then per
    channel a bound on what truncation (:func:`_lattice_tail`) and rounding
    take from any entry.  Each entry adds N terms r2 w r1 of at most 32
    rounded factors (K0 within 10 units of roundoff) and a rounded kz, so it
    rounds by at most gamma_n sum |r2| |w| |r1|, n = N + 32 + kz per mode
    (N. J. Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    sec. 3.1).
    """
    geom = table.key[0]
    table._list(K + _coupling._k11(geom))  # with the first shell of the tails
    sums, tails = [], []
    for pol, count in zip((TM, TE), table.extend(K)):
        k, rows = table._k[pol][:count], table._rows[pol][:count]
        with np.errstate(over="ignore"):  # k z past the largest double: w = 0
            kz = k * z
            w = (4.0 * math.pi / geom.area) * k * np.exp(-kz) if pol == TM else _k0(kz)
        n = (count + 32.0) + np.minimum(kz, 1e3)  # w is 0 from k z of about 745
        size = _blocks(np.abs(rows), w * n).max(initial=0.0)
        tails.append(_lattice_tail(table, pol, K, z)
                     + 2.0 ** -53 / (1.0 - 2.0 ** -53 * (count + 1032.0)) * float(size))
        sums.append(_blocks(rows, w))
    out = (sums[0] * KERNEL_TM_SIGNS, np.pad(sums[1], (0, 1)))
    for t in out:  # the levels at a separation share them
        t.flags.writeable = False
    return *out, *tails


def f_tensor(
    config: PairConfiguration,
    energy: float,
    max_cutoff: float | None = None,
    tail_tol: float | None = None,
    table: ModeTable | None = None,
) -> FTensorResult:
    """Coupling tensor for one transition energy.

    With ``tail_tol`` the tensors are the TM and TE splits of
    :meth:`ModeTable.split`, with ``max_cutoff`` the mode sum of
    :func:`_mode_sum` below it; :func:`wgdisp.conventions.apply` maps them
    to config's conventions with the printed sums of
    :func:`wgdisp.coupling._printed_sums` under either truncation, whose
    bounds join ``tail_bound``.  A budget, ``tail_tol`` times the largest
    entry, below ``tail_bound`` raises :class:`InputError`; the result's
    ``max_cutoff`` is then the cutoff a plain mode sum would need to fit
    it.  The modes come from ``table``, a :class:`ModeTable` of config's
    guide and points (or the call's own, capped at ``MODE_CAP``), whose
    splits and mode sums the levels share; its cap holds every listing and
    1-D sum.  At a corner the tensor is zero.
    """
    if (max_cutoff is None) == (tail_tol is None):
        raise InputError("specify exactly one of max_cutoff or tail_tol")
    for name, value in (("max_cutoff", max_cutoff), ("tail_tol", tail_tol)):
        if value is not None:
            _require_positive(name, value)
    geom, z, conv, p1, p2 = config.geom, config.z, config.conventions, config.p1, config.p2
    if geom.is_corner(p1) or geom.is_corner(p2):
        return FTensorResult(tensor=np.zeros((3, 3)), tm_tensor=np.zeros((3, 3)),
                             te_tensor=np.zeros((3, 3)), tail_bound=0.0,
                             tm_cutoff=max_cutoff or _coupling._split_cutoff(geom),
                             tm_modes=0, te_modes=0)
    if table is None:
        table = ModeTable(geom, p1, p2)
    elif table.key != (geom, p1, p2):
        raise InputError("the mode table belongs to another guide or pair of points")
    te_weight, te_bound = KERNEL_TE_FACTOR * energy, conv.te_bound(energy)
    if max_cutoff is None:
        (tm_sum, tm_tail), (te_unit, te_tail) = table.split(TM, z), table.split(TE, z)
    else:
        if (z, max_cutoff) not in table._sums:
            table._sums[z, max_cutoff] = _mode_sum(table, z, max_cutoff)
        tm_sum, te_unit, tm_tail, te_tail = table._sums[z, max_cutoff]
    cross, zero, cross_tail, axis_part = None, None, 0.0, 0.0
    if conv.printed:
        cross, (xx, yy), cross_tail, axis_tail = _coupling._printed_sums(
            geom, p1, p2, z, table._mode_cap)
        zero, axis_part = te_weight * np.diag([xx, yy, 0.0]), te_bound * axis_tail
    tail = tm_tail + cross_tail + te_bound * te_tail + axis_part
    tm_sum, te_sum = apply(conv, tm_sum.copy(), te_weight * te_unit, cross, zero)
    budget = None
    if tail_tol is not None:
        scale = float(max(np.abs(tm_sum).max(), np.abs(te_sum).max(), 1e-300))
        budget = tail_tol * scale
        if tail > budget:
            raise InputError(f"tail_tol={tail_tol!r} is below the truncation bound of the screened "
                             f"TM sum and the TE split{' plus the printed sums' * conv.printed}, "
                             f"{tail / scale:.2g} of the tensor scale")
    tm_modes, te_modes = table.counts(max_cutoff or table._split_cutoff)
    return FTensorResult(tensor=tm_sum + te_sum, tm_tensor=tm_sum, te_tensor=te_sum,
                         tail_bound=tail, tm_cutoff=max_cutoff or table._split_cutoff,
                         tm_modes=tm_modes, te_modes=te_modes, _table=table,
                         _config=config, _energy=energy, _budget=budget, _tm_tail=tm_tail)


def quadratic_contraction(P2: np.ndarray, P1: np.ndarray,
                          F2: np.ndarray, F1: np.ndarray) -> float:
    """sum_{ijlq} P2_il P1_jq F2_ij F1_lq."""
    return float(np.einsum("il,jq,ij,lq->", P2, P1, F2, F1))


def _level_pairs(P2: np.ndarray, P1: np.ndarray, F2: np.ndarray,
                 F1: np.ndarray) -> np.ndarray:
    """:func:`quadratic_contraction` of every level pair at every separation.

    P1 and P2 stack the second moments of species1's L1 and species2's L2
    levels, each (L, 3, 3), F1 and F2 the levels' tensors at nz separations,
    (nz, L, 3, 3); a 3x3 F2 or F1 serves every level and separation.  Entry
    [z, a, b] is quadratic_contraction(P2[b], P1[a], F2[z, b], F1[z, a]),
    bit for bit: without ``optimize`` einsum sums each entry over the same
    indices in the same order as the one-pair call.  With several tensors
    per level, (nz, L, parts, 3, 3), entry [z, p, a, b] contracts part p;
    two 3x3 tensors give (L1, L2).
    """
    f2 = {2: "ij", 4: "zbij", 5: "zbpij"}[F2.ndim]
    f1 = {2: "lq", 4: "zalq", 5: "zaplq"}[F1.ndim]
    out = {2: "ab", 4: "zab", 5: "zpab"}[max(F2.ndim, F1.ndim)]
    return np.einsum(f"bil,ajq,{f2},{f1}->{out}", P2, P1, F2, F1)


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


def _assemble(points: list[PairConfiguration], make_tensor,
              notes: list[str]) -> list[EnergyBreakdown]:
    """Pair energy at each of ``points``, configurations that differ in z
    alone, from the coupling tensor ``make_tensor(point, E)`` of each level.

    One einsum per quantity contracts every level pair at every point; each
    point's level pairs are then added up in Python floats, in pair order.
    """
    config = points[0]
    notes = notes + [f"{label} dipole sits at the corner ({p.x:g}, {p.y:g}) of the "
                     f"cross-section, where every TE and TM mode profile vanishes; "
                     f"the pair energy is zero"
                     for label, p in (("species1", config.p1), ("species2", config.p2))
                     if config.geom.is_corner(p)]
    pref = -1.0 / (TWO_PI * config.epsilon) ** 2
    sp1, sp2 = config.species1, config.species2
    # Each point's tensors, made in the order the level pairs first need them.
    energies = list(dict.fromkeys(t.energy for t1 in sp1.transitions
                                  for t in (t1, *sp2.transitions)))
    f_caches = [{e: make_tensor(point, e) for e in energies} for point in points]
    f1s = [[cache[t.energy] for t in sp1.transitions] for cache in f_caches]
    f2s = f1s if sp2 is sp1 else [[cache[t.energy] for t in sp2.transitions]
                                  for cache in f_caches]
    # Per point and level, the total, TM and TE tensors.
    F1 = np.array([[(f.tensor, f.tm_tensor, f.te_tensor) for f in fs] for fs in f1s])
    F2 = F1 if sp2 is sp1 else np.array([[(f.tensor, f.tm_tensor, f.te_tensor) for f in fs]
                                         for fs in f2s])
    sums = _level_pairs(sp2.second_moments, sp1.second_moments, F2, F1).tolist()
    # |P| keeps the fixed-vector bound from cancelling between dipole
    # components of opposite sign.
    (abs1, traces1), (abs2, traces2) = sp1._abs_moments, sp2._abs_moments
    abs_f1 = np.abs(F1[:, :, 0])
    abs_f2 = abs_f1 if sp2 is sp1 else np.abs(F2[:, :, 0])
    ones = np.ones((3, 3))
    crosses = (_level_pairs(abs2, abs1, abs_f2, ones)
               + _level_pairs(abs2, abs1, ones, abs_f1)).tolist()
    dx, dy = config.p2.x - config.p1.x, config.p2.y - config.p1.y
    freespace = _freespace(sp1, sp2, [(dx, dy, point.z) for point in points], config.epsilon)
    out = []
    for f_cache, fs1, fs2, (u_sums, tm_sums, te_sums), cross, (vdw, cp) in zip(
            f_caches, f1s, f2s, sums, crosses, freespace):
        total = tm_only = te_only = tail_total = 0.0
        per_pair: dict[tuple[int, int], float] = {}
        for i1, (t1, f1) in enumerate(zip(sp1.transitions, fs1)):
            for i2, (t2, f2) in enumerate(zip(sp2.transitions, fs2)):
                w = pref / (t1.energy + t2.energy)
                # Adding 0.0 turns the -0.0 of a zero contraction into 0.0 and
                # leaves every other value as it is.
                u_pair = per_pair[i1, i2] = w * u_sums[i1][i2] + 0.0
                total += u_pair
                tm_only += w * tm_sums[i1][i2]
                te_only += w * te_sums[i1][i2]
                t_hi = max(f1.tail_bound, f2.tail_bound)
                tail_total += abs(w) * (t_hi * cross[i1][i2] + 9.0 * t_hi * t_hi
                                        * traces2[i2] * traces1[i1])
        out.append(EnergyBreakdown(
            total=total, per_level_pair=per_pair, u_tm_only=tm_only, u_te_only=te_only,
            tail_estimate=tail_total, modes_used=max(f.modes_used for f in f_cache.values()),
            warnings=list(notes), f_by_level=f_cache, freespace_vdw=vdw, freespace_cp=cp))
    return out


_TINY = sys.float_info.min


def _energy_underflows(config: PairConfiguration, u: EnergyBreakdown) -> bool:
    """True when an exact 0.0 energy stands for a non-zero one that underflowed.

    The contraction is repeated on tensors scaled to unit size; a tensor
    that summed modes and is zero away from the corners has underflowed.
    """
    if not (u.modes_used or config.conventions.printed):  # printed sums take modes
        return False  # a cutoff below every mode's: the energy is exactly 0
    F1, F2 = (np.array([[u.f_by_level[t.energy].tensor for t in sp.transitions]])
              for sp in (config.species1, config.species2))
    s1, s2 = (np.abs(F).max(axis=(2, 3), keepdims=True) for F in (F1, F2))
    return not (s1.all() and s2.all()) or bool(_level_pairs(
        config.species2.second_moments, config.species1.second_moments, F2 / s2, F1 / s1).any())


def _not_finite(z: float, **values: float) -> list[str]:
    """A note for each of ``values``, named as the energy report names it, that is not finite."""
    return [f"{name} is not finite at z={z:g}: {float(value)!r}, its terms pass the "
            f"largest double" for name, value in values.items() if not math.isfinite(value)]


def _sweep(config: PairConfiguration, zs, tail_tol: float, max_cutoff: float | None,
           mode_cap: int, notes: list[str]) -> list[EnergyBreakdown]:
    if max_cutoff is not None:
        tail_tol = None
    points = [replace(config, z=z) for z in zs]
    table = ModeTable(config.geom, config.p1, config.p2, mode_cap)
    corner = config.geom.is_corner(config.p1) or config.geom.is_corner(config.p2)
    if not corner and max_cutoff is None:
        table.compute_splits([point.z for point in points])
    # The levels at each z share the table's splits and mode sums.
    out = _assemble(points, lambda point, e: f_tensor(point, e, max_cutoff, tail_tol, table),
                    notes)
    for point, u in zip(points, out):
        z = point.z
        # Below the smallest normal double a value keeps fewer digits, and
        # from the smallest subnormal on it reads 0.
        if not corner:
            if u.tail_estimate < _TINY:
                u.warnings.append(
                    f"tail_estimate underflows at z={z:g}: the truncation error "
                    f"bound {float(u.tail_estimate)!r} is below the smallest normal "
                    f"double")
            # An exact zero (a sum of no modes, or crossed dipoles) has no digit to certify.
            if max_cutoff is not None and 0.0 < abs(u.total) <= u.tail_estimate:
                u.warnings.append(
                    f"total is uncertified at z={z:g}: the truncation error bound "
                    f"{float(u.tail_estimate)!r} at max_cutoff={max_cutoff:g} is "
                    f"{u.tail_estimate / abs(u.total):.2g} times |total|")
            u.warnings += _not_finite(z, total=u.total, tail_estimate=u.tail_estimate)
            if abs(u.total) < _TINY and (u.total != 0.0
                                         or _energy_underflows(point, u)):
                u.warnings.append(
                    f"total underflows at z={z:g}: the pair energy "
                    f"{float(u.total)!r} is below the smallest normal double")
        u.warnings += _not_finite(z, freespace_vdw_tensor=u.freespace_vdw,
                                  freespace_cp=u.freespace_cp)
    return out


def dispersion_sweep(
    config: PairConfiguration,
    zs,
    tail_tol: float = 1e-6,
    max_cutoff: float | None = None,
    mode_cap: int = MODE_CAP,
) -> list[EnergyBreakdown]:
    """Pair energy at each axial separation in ``zs``, in order.

    Each point is ``config`` with its z replaced, truncated by ``tail_tol``
    or ``max_cutoff`` as in :func:`f_tensor`.  Every point and level sums
    from one :class:`ModeTable`, so each mode's transverse factors are built
    once per sweep.  The splits :func:`f_tensor` reads
    are evaluated for every z of the sweep up front, by
    :meth:`ModeTable.compute_splits`; after one :func:`f_tensor` call per z
    and distinct level, every level pair at every z is contracted in one
    batch (:func:`_assemble`).  Each breakdown equals that of
    :func:`dispersion_energy` at its z bit for bit.
    """
    return _sweep(config, zs, tail_tol, max_cutoff, mode_cap, _confinement_guard(config))


def dispersion_energy(
    config: PairConfiguration,
    tail_tol: float = 1e-6,
    max_cutoff: float | None = None,
    mode_cap: int = MODE_CAP,
) -> EnergyBreakdown:
    """Assembled pair dispersion energy with per-part bookkeeping.

    The sum is truncated by ``tail_tol`` or ``max_cutoff`` as in
    :func:`f_tensor`, and the result is the one-point case of
    :func:`dispersion_sweep`.
    """
    return _sweep(config, [config.z], tail_tol, max_cutoff, mode_cap,
                  _confinement_guard(config))[0]


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


def _over_power(x: float, c: float, r: float, n: int) -> float:
    """x / (c r^n), also where c r^n passes the largest double or falls below
    the smallest normal one: then through the binary exponent of r, r = m 2^e,
    as x / (c m^n) 2^{-ne}, and +-inf where that passes the largest double."""
    den = c * _power(r, n)
    if sys.float_info.min <= den < math.inf:
        return x / den
    m, e = math.frexp(r)
    try:
        return math.ldexp(x / (c * m ** n), -n * e)
    except OverflowError:
        return math.copysign(math.inf, x)


def u_freespace_vdw(species1: DipoleSpecies, species2: DipoleSpecies, r: float,
                    epsilon: float = 1.0) -> float:
    """Free-space quasistatic (1/r^6) reference energy: the full near-field
    tensor (axis along z) contracted with the species' dipole second
    moments, which reproduces the orientation-averaged closed form
    -sum |d1|^2 |d2|^2 / (E1 + E2) / (24 pi^2 epsilon^2 r^6) under averaging
    and handles fixed vectors exactly.
    """
    _require_positive("separation", r)
    return _freespace(species1, species2, [(0.0, 0.0, r)], epsilon)[0][0]


def u_freespace_cp(species1: DipoleSpecies, species2: DipoleSpecies, r: float,
                   epsilon: float = 1.0) -> float:
    """Free-space retarded (1/r^7) reference; printed overall sign kept."""
    _require_positive("separation", r)
    lam_max = max(t.wavelength for sp in (species1, species2)
                  for t in sp.transitions)
    if r < lam_max:
        warnings.warn("retarded free-space form assumes r >> every transition "
                      "wavelength", ValidityDomainWarning, stacklevel=2)
    return _freespace(species1, species2, [(0.0, 0.0, r)], epsilon)[0][1]


def _freespace(species1: DipoleSpecies, species2: DipoleSpecies, separations,
               epsilon: float) -> list[tuple[float, float]]:
    """(:func:`u_freespace_vdw`, :func:`u_freespace_cp`) at each separation
    vector (dx, dy, z) of ``separations``, at r = hypot(dx, dy, z) and with
    the near-field tensor I - 3 r^ r^T of its direction r^, without their
    checks or the Casimir-Polder validity warning.  On the axis, (0, 0, z),
    r is z and the tensor diag(1, 1, -2), bit for bit.  The level-pair sums
    are taken once, and the near-field contraction once per direction."""
    energies = [t1.energy + t2.energy for t1 in species1.transitions
                for t2 in species2.transitions]
    # E1 E2 underflows to 0.0 for energies below about 1e-162: the term is then +inf.
    acc = sum(d4 / e if e > 0.0 else math.inf
              for d4, e in ((t1.d_squared * t2.d_squared, t1.energy * t2.energy)
                            for t1 in species1.transitions for t2 in species2.transitions))
    cp = 23.0 / (144.0 * math.pi ** 3) * acc
    contractions: dict[tuple[float, float, float], list[float]] = {}
    out = []
    for dx, dy, z in separations:
        r = math.hypot(dx, dy, z)
        unit = (dx / r, dy / r, z / r)
        if unit not in contractions:
            near = np.eye(3) - 3.0 * np.outer(unit, unit)
            contractions[unit] = _level_pairs(species2.second_moments, species1.second_moments,
                                              near, near).ravel().tolist()
        pref, vdw = _over_power(-1.0 / (TWO_PI * epsilon) ** 2, 1.0, r, 6), 0.0
        for e, value in zip(energies, contractions[unit]):
            vdw += pref / e * 0.25 * value
        out.append((vdw, _over_power(cp, epsilon ** 2, r, 7)))
    return out


# Per regime of ratio_to_freespace: its prefactor c and the power p of lambda_e.
_RATIO_FORMS = {"vdw-reference": (64.0 * math.pi ** 4 / 3.0, 2),
                "cp-reference": (128.0 * math.pi ** 6 / 23.0, 3)}
# Bounds on the logarithm of a normal double, 1e-6 inside for its rounding.
_LOG_MIN, _LOG_MAX = math.log(sys.float_info.min) + 1e-6, math.log(sys.float_info.max) - 1e-6


def ratio_to_freespace(z: float, lambda_e: float, a: float,
                       regime: str = "vdw-reference") -> float:
    """In-guide to free-space energy ratio for a single centered transition.

    ``vdw-reference`` compares against the quasistatic 1/r^6 form:
        (64 pi^4 / 3) z^5 / (lambda^2 a^3) exp(-2 pi z / a)
    ``cp-reference`` against the retarded 1/r^7 form:
        (128 pi^6 / 23) z^6 / (lambda^3 a^3) exp(-2 pi z / a)

    Where a power, product, quotient or the damping of that formula leaves
    the normal doubles, the ratio is the exponential of its logarithm
    instead (to about 1e-12): 0.0 below the smallest double, and refused
    past the largest.
    """
    for name, value in (("z", z), ("lambda_e", lambda_e), ("a", a)):
        _require_positive(name, value)
    if regime not in _RATIO_FORMS:
        raise InputError(f"regime must be 'vdw-reference' or 'cp-reference', "
                         f"got {regime!r}")
    c, p = _RATIO_FORMS[regime]
    x = TWO_PI * z / a  # inf past the largest double: the ratio is 0.0
    # The logarithms of z^(p+3), lambda_e^p and a^3, of the numerator and the
    # denominator, and of the ratio; -x is that of the damping.
    powers = ((p + 3) * math.log(z), p * math.log(lambda_e), 3.0 * math.log(a))
    num, den = math.log(c) + powers[0], powers[1] + powers[2]
    log_ratio = num - den - x
    if all(_LOG_MIN < v < _LOG_MAX for v in (*powers, num, den, num - den, -x, log_ratio)):
        return c * z ** (p + 3) / (lambda_e ** p * a ** 3) * math.exp(-x)
    try:
        return math.exp(log_ratio)
    except OverflowError:
        raise InputError(f"the {regime} ratio at z={z!r}, lambda_e={lambda_e!r}, a={a!r} "
                         f"passes the largest double") from None
