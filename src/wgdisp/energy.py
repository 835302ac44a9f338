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
import warnings
from dataclasses import dataclass, field
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
        if not (self.epsilon > 0.0):
            raise InputError(f"permittivity must be positive, got {self.epsilon!r}")
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
    on first read from the mode shells and per-mode arrays that
    :func:`f_tensor` keeps, so callers that only need the sums never pay
    for it.
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
        shells, tensors = self._detail
        per_mode = {}
        for pol in (TM, TE):
            m = np.concatenate([table["m"] for table in shells[pol]]).tolist()
            n = np.concatenate([table["n"] for table in shells[pol]]).tolist()
            for idx, mn in enumerate(zip(m, n)):
                per_mode[ModeIndex(pol, *mn)] = tensors[pol][:, :, idx].copy()
        return per_mode


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


def _tm_mode_tensors(geom, m, n, k, p1, p2, z, conventions, out=None):
    """Per-mode 3x3 TM coupling arrays, vectorized over the mode list.

    ``m`` and ``n`` are integer index arrays; the trig factors come from
    :func:`_axis_trig`.  The (3, 3, N) result is written into ``out``
    when given (one of :func:`f_tensor`'s column blocks), with the
    products in the same order as a fresh array would get them.
    """
    signs = _tm_sign_matrix(conventions)
    ax = m * np.pi / geom.a
    ay = n * np.pi / geom.b
    decay = np.exp(-k * z)
    base = (4.0 * np.pi / geom.area) * k * decay
    sx, cx, sy, cy = _axis_trig(geom, m, n, p2, p1)
    # Row 0 (index i) at p2, row 1 (index j) at p1.
    f = np.stack([(ax / k) * cx * sy, (ay / k) * sx * cy, sx * sy], axis=1)
    paper = conventions.tm_sign == "paper-literal"
    if paper:
        # Printed transverse-cross prefactor replaces the structural one.
        pref = -(np.pi ** 2 / (2.0 * geom.area ** 2 * k)) * 4.0 * decay
        cross = (pref * cx[0] * sy[0] * sx[1] * cy[1],
                 pref * sx[0] * cy[0] * cx[1] * sy[1])
    del sx, cx, sy, cy  # free the gathers before the (3, 3, N) product
    if out is None:
        out = np.empty((3, 3, k.size))
    np.multiply(signs[:, :, None], base[None, None, :], out=out)
    out *= f[0][:, None, :]
    out *= f[1][None, :, :]
    if paper:
        out[0, 1, :], out[1, 0, :] = cross
    return out


def _te_mode_tensors(geom, m, n, k, p1, p2, z, energy, conventions, out=None):
    """Per-mode 3x3 TE coupling arrays; ``m``, ``n`` and ``out`` as in the TM kernel."""
    ax = m * np.pi / geom.a
    ay = n * np.pi / geom.b
    nf = np.ones_like(k)
    if conventions.normalization == "unit-normalized":
        nf[(m == 0) | (n == 0)] = 1.0 / math.sqrt(2.0)
    factor = -2.0 if conventions.te_factor == "derivation-consistent" else 1.0
    root_a = 2.0 / math.sqrt(geom.area)
    sx, cx, sy, cy = _axis_trig(geom, m, n, p2, p1)
    ex = -root_a * nf * (ay / k) * cx * sy
    ey = root_a * nf * (ax / k) * sx * cy
    e = np.stack([ex, ey, np.zeros_like(ex)], axis=1)
    del sx, cx, sy, cy, ex, ey  # free before the (3, 3, N) product
    radial = factor * energy * _scipy_k0(k * z)
    if out is None:
        out = np.empty((3, 3, k.size))
    np.multiply(radial[None, None, :], e[0][:, None, :], out=out)
    out *= e[1][None, :, :]
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


# f_tensor keeps per-mode kernel columns in blocks of at most this many
# modes (2.4 MB per (3, 3, n) block) that are never grown or copied.  An
# array grown at every cutoff step leaves holes in the malloc heap that
# later calls reuse or not, depending on earlier ones, and the peak memory
# of a long-running process then changes from run to run (by up to 10 MB
# over the benchmark's oracle workload).
_BLOCK = 1 << 15


def _column_sum(blocks: list[np.ndarray], n: int) -> np.ndarray:
    """Sum over the mode axis of (3, 3, n_b) blocks holding n columns in all.

    Bit for bit ``np.concatenate(blocks, axis=2).sum(axis=2)``: each
    component's columns are gathered into one contiguous row, so numpy's
    pairwise summation sees the same sequence, and only one row is held
    at a time.
    """
    if len(blocks) <= 1:
        return blocks[0].sum(axis=2) if blocks else np.zeros((3, 3))
    row = np.empty(n)
    out = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            np.concatenate([b[i, j] for b in blocks], out=row)
            out[i, j] = row.sum()
    return out


def f_tensor(
    config: PairConfiguration,
    energy: float,
    max_cutoff: float | None = None,
    tail_tol: float | None = None,
    mode_cap: int = 1_000_000,
    detail_cap: int = 20_000,
) -> FTensorResult:
    """Mode-summed 3x3 coupling tensor for one transition energy.

    Exactly one of ``max_cutoff`` and ``tail_tol`` selects the truncation:
    a fixed cutoff wavenumber, or growth of the cutoff by factors of 1.3
    until the analytic continuum tail bound drops below ``tail_tol``
    times the accumulated tensor scale.

    Each growth step lists only the new shell of modes between the
    previous cutoff and the current one (``mode_arrays`` with a lower
    edge) and has the coupling kernels write its columns into new blocks
    of at most ``_BLOCK`` modes; blocks are never grown or copied, except
    that a polarization's blocks are merged while they hold no more than
    one block's worth.  Shells come sorted by cutoff with a stable tie
    order and :func:`_column_sum` sums the blocks as one array, so the
    sums are exactly those of one fixed-cutoff sum at the final cutoff
    and the two truncations give bit-identical results.

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
    kernels = {
        TM: lambda t, out: _tm_mode_tensors(geom, t["m"], t["n"], t["k"],
                                            p1, p2, z, conv, out),
        TE: lambda t, out: _te_mode_tensors(geom, t["m"], t["n"], t["k"],
                                            p1, p2, z, energy, conv, out),
    }
    shells = {TM: [], TE: []}
    blocks = {TM: [], TE: []}
    n_cols = {TM: 0, TE: 0}
    K_prev = None
    while True:
        if mode_count(geom, K) > mode_cap:
            raise ModeCapError(mode_count(geom, K), mode_cap)
        shell = mode_arrays(geom, K, K_prev)
        for pol, table in shell.items():
            for c0 in range(0, table["k"].size, _BLOCK):
                chunk = {key: v[c0:c0 + _BLOCK] for key, v in table.items()}
                blocks[pol].append(
                    kernels[pol](chunk, np.empty((3, 3, chunk["k"].size))))
            n_cols[pol] += table["k"].size
            if len(blocks[pol]) > 1 and n_cols[pol] <= _BLOCK:
                blocks[pol] = [np.concatenate(blocks[pol], axis=2)]
        n_modes = n_cols[TM] + n_cols[TE]
        if n_modes <= detail_cap:  # past the cap no detail is kept
            for pol, table in shell.items():
                shells[pol].append(table)
        tm_sum = _column_sum(blocks[TM], n_cols[TM])
        te_sum = _column_sum(blocks[TE], n_cols[TE])
        tail = _tm_tail_bound(K, z, geom) + _te_tail_bound(K, z, geom, energy)
        if max_cutoff is not None:
            break
        scale = max(np.abs(tm_sum).max(), np.abs(te_sum).max(), 1e-300)
        if tail <= tail_tol * scale:
            break
        K_prev = K
        K *= 1.3
    detail = None
    if n_modes <= detail_cap:
        detail = (shells, {pol: np.concatenate(b, axis=2) if b else np.zeros((3, 3, 0))
                           for pol, b in blocks.items()})
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
    or ``max_cutoff`` as in :func:`f_tensor`.
    """
    notes = _confinement_guard(config)
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
            if mode_list is not None:
                f_cache[energy] = f_tensor_from_modes(config, energy, mode_list)
            elif max_cutoff is not None:
                f_cache[energy] = f_tensor(config, energy, max_cutoff=max_cutoff,
                                           mode_cap=mode_cap, detail_cap=detail_cap)
            else:
                f_cache[energy] = f_tensor(config, energy, tail_tol=tail_tol,
                                           mode_cap=mode_cap, detail_cap=detail_cap)
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
            u_pair = w * quadratic_contraction(p2m, p1m, f2.tensor, f1.tensor)
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
