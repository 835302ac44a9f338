"""Brute-force fourth-order perturbation-theory oracle.

The pair energy is the fourth-order ground-state shift

    U = - sum over intermediate chains  N / (D1 D2 D3)

summed over the distinct time orderings of the four dipole-field
vertices (two per atom, each photon emitted at one atom and absorbed at
the other).  The orderings are generated programmatically: choose the
interleaving of the two atoms' vertices (6 ways) and the pairing of
atom-1 vertices with atom-2 vertices into photons (2 ways); within each
photon the earlier vertex is the emission.  That yields the full set of
12 diagrams with their energy denominators, four of which share the
dominant denominator

    D_a = (w_P + E_a)(E_1 + E_2)(w_Q + E_b).

Every diagram has the same numerator, a product over the two photons of

    V_X = (w_X / 2 eps) (d_ab . E_X(p_ab)) (d_em . E_X(p_em))* e^{i k (z_ab - z_em)}

integrated over the axial wavenumber of each photon.  Wavenumber
integrals are evaluated on the rotated contour around the dispersion
branch cut (k = i kappa, kappa = k_mn cosh psi), where the integrand is
real, decaying and free of oscillatory-regularization ambiguities.
Denominators mixing the two photon frequencies are decoupled with a
Schwinger parameter, 1/M = integral dtau exp(-M tau), leaving smooth
per-photon integrals on a Gauss-Laguerre tau grid.

Each photon's integrals for a whole tau grid form one table
(:class:`_PhotonTable`): a graded head of Gauss-Legendre panels in psi near
the branch point, shared by every tau, then a tail in w = k_mn sinh psi on
panels of a whole period of e^{i w tau} (or an equal fraction of one), so
that the phases at the tail nodes repeat the first panel's.

Natural units hbar = c = 1.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .coupling import (QuadratureSpec, _closed_forms, _one_mode, _quadratures, _te_rows,
                       _tm_rows)
from .energy import (FTensorResult, PairConfiguration, _assemble,
                     _confinement_guard, quadratic_contraction)
from .errors import InputError, QuadratureError
from .waveguide import TE, ModeIndex

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Diagram:
    """One time ordering: atom sequence, photon pairing, denominators.

    Denominators are coefficient tuples (c_wP, c_wQ, c_E1, c_E2); the
    first and third are always a single photon frequency plus a single
    transition energy.
    """

    atom_sequence: tuple[int, int, int, int]
    pairing: str
    denominators: tuple[tuple[int, int, int, int], ...]
    photon_atoms: dict  # photon -> (emitter_atom, absorber_atom)

    @property
    def middle(self) -> tuple[int, int, int, int]:
        return self.denominators[1]

    @property
    def is_dominant(self) -> bool:
        return self.middle == (0, 0, 1, 1)


def enumerate_diagrams() -> list[Diagram]:
    """All 12 fourth-order time orderings with their denominators."""
    diagrams = []
    patterns = sorted(set(itertools.permutations((1, 1, 2, 2))))
    for pattern in patterns:
        a1 = [i for i, atom in enumerate(pattern) if atom == 1]
        a2 = [i for i, atom in enumerate(pattern) if atom == 2]
        for pairing, pairs in (("first-first", ((a1[0], a2[0]), (a1[1], a2[1]))),
                               ("first-second", ((a1[0], a2[1]), (a1[1], a2[0])))):
            photon_of_vertex = {}
            photon_atoms = {}
            for name, pair in zip("PQ", pairs):
                emit_v, absorb_v = min(pair), max(pair)
                photon_of_vertex[emit_v] = (name, "emit")
                photon_of_vertex[absorb_v] = (name, "absorb")
                photon_atoms[name] = (pattern[emit_v], pattern[absorb_v])
            excited = {1: 0, 2: 0}
            photons = {"P": 0, "Q": 0}
            denoms = []
            for v in range(4):
                atom = pattern[v]
                excited[atom] ^= 1
                name, role = photon_of_vertex[v]
                photons[name] += 1 if role == "emit" else -1
                if v < 3:
                    denoms.append((photons["P"], photons["Q"],
                                   excited[1], excited[2]))
            diagrams.append(Diagram(pattern, pairing, tuple(denoms),
                                    photon_atoms))
    assert len(diagrams) == 12
    assert sum(d.is_dominant for d in diagrams) == 4
    return diagrams


# ---------------------------------------------------------------------------
# rotated-contour photon integrals
# ---------------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
# Where the nodes sit in a panel, as fractions of its width.
_GL_FRACTIONS = 0.5 * (1.0 + _GL_NODES)
# Head panels start at 1/8 of the narrowest feature and grow by this factor.
_HEAD_GROWTH = 1.7
# Nodes evaluated per numpy pass, about one tau's mesh: a table of a whole
# tau grid never holds all its nodes at once.
_BLOCK_NODES = 2048
# Largest decay of e^{-z w}, in e-folds, over one tail panel.
_TAIL_DECAY = 8.0


def _cutoff(geom, mode: ModeIndex) -> float:
    """k_mn of ``mode`` as the factor rows and mode sums take it."""
    return float(_one_mode(geom, mode)[2][0])


def _lorentzian(w, kappa, measure, z, Ws):
    """``measure`` e^{-z kappa} times the real and the imaginary part of
    1 / prod_r (W_r - i w), in real arithmetic."""
    re, im, den = 1.0, 0.0, 1.0
    for W in Ws:
        re, im = re * W - im * w, re * w + im * W
        den = den * (W * W + w * w)
    base = measure * np.exp(-z * kappa) / den
    return base * re, base * im


def _columns(w, kappa, te):
    """The factor of each table entry, one row each: -w^2 for TE, and
    kappa^0, kappa^1, kappa^2 for TM."""
    return np.stack((-w * w,) if te else (np.ones_like(w), kappa, kappa * kappa))


def _photon_integrals(kmn: float, z: float, Ws: tuple[float, ...],
                      taus: np.ndarray, te: bool) -> np.ndarray:
    """The entries of :class:`_PhotonTable`, one row per tau and one column
    per entry (TE: rh; TM: r0, r1, r2)."""
    psi_max = math.acosh(1.0 + 46.0 / (kmn * z))
    w_max = kmn * math.sinh(psi_max)

    # Head: panels in psi growing geometrically to psi_max, the same for
    # every tau; each tau takes those before its first panel wider than half
    # a period of e^{i w tau} at the panel's start.
    scale = min([w / kmn for w in Ws] + [1.0])
    width = max(scale / 8.0, psi_max * 1e-13)
    n_head = max(1, math.ceil(math.log1p((_HEAD_GROWTH - 1.0) * psi_max / width)
                              / math.log(_HEAD_GROWTH)))
    widths = width * _HEAD_GROWTH ** np.arange(n_head)
    edges = np.minimum(np.concatenate(([0.0], np.cumsum(widths))), psi_max)
    edges[-1] = psi_max
    binds = np.outer(taus, widths * kmn * np.cosh(edges[:-1])) > math.pi
    first = np.where(binds.any(axis=1), binds.argmax(axis=1), n_head)
    half = 0.5 * np.diff(edges)
    psi = (edges[:-1, None] + 2.0 * half[:, None] * _GL_FRACTIONS).ravel()
    w, kappa = kmn * np.sinh(psi), kmn * np.cosh(psi)
    re, im = _lorentzian(w, kappa, (half[:, None] * _GL_WEIGHTS).ravel(), z, Ws)
    # One contiguous row per entry, so the sums over nodes are pairwise.
    cols = _columns(w, kappa, te)
    re, im = re * cols, im * cols
    panel = np.repeat(np.arange(n_head), _GL_NODES.size)
    sums = np.zeros((taus.size, cols.shape[0]))
    rows = max(1, _BLOCK_NODES // psi.size)
    for lo in range(0, taus.size, rows):
        block = slice(lo, lo + rows)
        used = _GL_NODES.size * int(first[block].max())
        phase = np.outer(taus[block], w[:used])
        live = panel[:used] < first[block, None]
        cos, sin = np.where(live, np.cos(phase), 0.0), np.where(live, np.sin(phase), 0.0)
        for c in range(cols.shape[0]):
            sums[block, c] = (cos * re[c, :used] - sin * im[c, :used]).sum(axis=-1)

    # Tail: from there on, panels in w of 1/m of a period 2 pi / tau, m the
    # fewest that keep the decay of e^{-z w} over a panel within
    # _TAIL_DECAY e-folds, up to the first panel ending past w_max.
    # e^{i w tau} takes one of m sets of 16 values on every panel: one table
    # row each, rows offsets[t] to offsets[t] + m[t] - 1 for tau t.
    tail = first < n_head
    period = 2.0 * math.pi / np.where(tail, taus, 1.0)
    m = np.maximum(np.ceil(z * period / _TAIL_DECAY), 1).astype(int)
    sub = period / m
    w_start = kmn * np.sinh(edges[first])
    counts = np.where(tail, np.ceil((w_max - w_start) / sub), 0).astype(int)
    offsets = np.cumsum(m) - m
    row_tau = np.repeat(np.arange(taus.size), m)
    r = np.arange(row_tau.size) - offsets[row_tau]
    phase = ((w_start * taus)[row_tau, None]
             + 2.0 * math.pi * (r[:, None] + _GL_FRACTIONS) / m[row_tau, None])
    cos_tab, sin_tab = np.cos(phase), np.sin(phase)
    # The panels of a tau are consecutive; their sums, one row per entry,
    # are added per tau by reduceat: the first panel plus a pairwise sum of
    # the rest, not a running sum in panel order.
    ends = np.cumsum(counts)
    panels = np.empty((sums.shape[1], int(ends[-1])))
    per_block = _BLOCK_NODES // _GL_NODES.size
    for lo in range(0, int(ends[-1]), per_block):
        index = np.arange(lo, min(lo + per_block, int(ends[-1])))
        t = np.searchsorted(ends, index, side="right")
        j = index - ends[t] + counts[t]
        w = w_start[t, None] + sub[t, None] * (j[:, None] + _GL_FRACTIONS)
        kappa = np.sqrt(kmn * kmn + w * w)
        re, im = _lorentzian(w, kappa, 0.5 * sub[t, None] * _GL_WEIGHTS / kappa, z, Ws)
        row = offsets[t] + j % m[t]
        values = cos_tab[row] * re - sin_tab[row] * im
        panels[:, index] = np.einsum("pk,cpk->pc", values, _columns(w, kappa, te)).T
    if tail.any():
        sums[tail] += np.add.reduceat(panels, (ends - counts)[tail], axis=1).T
    return 2.0 * sums


class _PhotonTable:
    """Rotated-contour photon integrals for one mode and denominator set.

    On the contour k = i kappa, kappa = k_mn cosh psi, w = k_mn sinh psi,
    for every tau of ``taus`` (TM, then TE):

        r0, r1, r2 = 2 int_0^psi_max dpsi kappa^(0, 1, 2) e^{-z kappa} D
        rh = -2 int_0^psi_max dpsi w^2 e^{-z kappa} D

    with D = Re[e^{i w tau} / prod_r (W_r - i w)] and psi_max where the
    damping has fallen by a further e^{-46}.  All panels carry 16
    Gauss-Legendre nodes.  The factors 1/(W - i w) peak at the branch point
    with width W/k_mn in psi, so the mesh begins with a head of panels in
    psi, the first 1/8 of the narrowest feature wide and each 1.7 times the
    last, the same for every tau.  From the first head panel wider than
    half a period of e^{i w tau} at its start (one comparison over the
    tau-by-panel array), the rest is integrated in w, dpsi = dw / kappa, on
    panels of exactly one period 2 pi / tau, or of 1/m of one where
    e^{-z w} would fall by more than e^{-8} over a period.  e^{i w tau} at
    the nodes of every tail panel thus repeats one of m sets of 16 values,
    and 1/prod_r (W_r - i w) is taken in real arithmetic.  The last panel
    may end past psi_max, where the integrand has fallen by e^{-46}.  At
    tau = 0 the head covers the whole range.  The meshes of all taus are
    built in one pass and evaluated in blocks of about 2k nodes.
    """

    def __init__(self, geom, mode: ModeIndex, z: float,
                 Ws: tuple[float, ...], taus: np.ndarray):
        self.kmn = _cutoff(geom, mode)
        self.is_te = mode.polarization == TE
        taus = np.asarray(taus, dtype=float)
        sums = _photon_integrals(self.kmn, z, tuple(Ws), taus, self.is_te)
        self.r0 = self.r1 = self.r2 = self.rh = np.zeros(taus.size)
        if self.is_te:
            self.rh = sums[:, 0]
        else:
            self.r0, self.r1, self.r2 = sums.T


# Which tau integral of :class:`_PhotonTable` (0: r0, 1: r1, 2: r2) each TM
# component takes, row i at p2 and column j at p1.
_TM_RADIAL = np.array([[2, 2, 1], [2, 2, 1], [1, 1, 0]])


def _w_tensors(geom, mode, p1, p2, epsilon, table: _PhotonTable,
               conventions) -> np.ndarray:
    """Per-tau 3x3 photon-exchange tensors (index i at p2, j at p1)."""
    m, n, k = _one_mode(geom, mode)
    if table.is_te:
        ex2, ey2, ex1, ey1 = _te_rows(geom, m, n, k, p1, p2, conventions)[:, 0]
        prof = np.outer((ex2, ey2, 0.0), (ex1, ey1, 0.0))
        return table.rh[:, None, None] * prof[None, :, :] / (2.0 * epsilon)
    kmn = table.kmn
    pref = 2.0 / (epsilon * geom.area)
    coef = np.array([[-pref, -pref, -pref * kmn],
                     [-pref, -pref, -pref * kmn],
                     [pref * kmn, pref * kmn, pref * kmn ** 2]])
    rows = _tm_rows(geom, m, n, k, p1, p2, conventions)[:, 0]
    radial = np.stack((table.r0, table.r1, table.r2), axis=-1)[:, _TM_RADIAL]
    return coef * np.outer(rows[0:3], rows[3:6]) * radial


@functools.cache
def _laguerre_rule(n_tau: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n_tau-point Gauss-Laguerre rule, read-only
    arrays shared by every call."""
    nodes, weights = np.polynomial.laguerre.laggauss(n_tau)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def fourth_order_oracle(
    config: PairConfiguration,
    modes: list[ModeIndex],
    diagrams: str = "all",
    n_tau: int = 48,
    mode_cap: int = 8,
) -> float:
    """Full fourth-order energy restricted to an explicit mode set.

    ``diagrams="dominant"`` keeps only the four orderings with the small
    denominator; ``"all"`` sums every ordering.  The double mode sum is
    quadratic in ``len(modes)``, capped at ``mode_cap``.
    """
    if len(modes) == 0:
        raise InputError("oracle needs at least one mode")
    if len(modes) > mode_cap:
        raise InputError(f"oracle restricted to at most {mode_cap} modes, "
                         f"got {len(modes)}")
    if diagrams not in ("all", "dominant"):
        raise InputError(f"diagrams must be 'all' or 'dominant', got {diagrams!r}")
    if not (4 <= n_tau <= 170):
        # Gauss-Laguerre weights underflow past ~180 points.
        raise InputError(f"n_tau must lie in [4, 170], got {n_tau}")
    geom, eps = config.geom, config.epsilon
    diags = enumerate_diagrams()
    if diagrams == "dominant":
        diags = [d for d in diags if d.is_dominant]

    lag_x, lag_w = _laguerre_rule(n_tau)
    kmn = {mode: _cutoff(geom, mode) for mode in modes}

    total = 0.0
    for t1 in config.species1.transitions:
        for t2 in config.species2.transitions:
            E = {1: t1.energy, 2: t2.energy}
            p1m = config.species1.second_moment(t1)
            p2m = config.species2.second_moment(t2)
            photons: dict = {}

            def photon(mode, Ws, lam):
                """Per-tau exchange tensors of one photon, on the single
                tau = 0 point (``lam`` None) or the Laguerre grid scaled by
                1/lam.  Each (mode, energies, grid) is built once, with the
                energies in the order of the first diagram that asks."""
                key = (mode, tuple(sorted(Ws)), lam)
                if key not in photons:
                    taus = np.array([0.0]) if lam is None else lag_x / lam
                    table = _PhotonTable(geom, mode, config.z, tuple(Ws), taus)
                    photons[key] = _w_tensors(geom, mode, config.p1, config.p2,
                                              eps, table, config.conventions)
                return photons[key]

            for diag in diags:
                d1, mid, d3 = diag.denominators
                # Which photon each outer denominator rides on, and the
                # transition energy it carries.
                ws_by_photon = {"P": [], "Q": []}
                for den in (d1, d3):
                    photon_name = "P" if den[0] == 1 else "Q"
                    ws_by_photon[photon_name].append(E[1] if den[2] == 1 else E[2])
                e_mid = mid[2] * E[1] + mid[3] * E[2]
                mixes = mid[0] == 1  # middle contains both photon frequencies

                for mp in modes:
                    for mq in modes:
                        lam = kmn[mp] + kmn[mq] + e_mid if mixes else None
                        wp = photon(mp, ws_by_photon["P"], lam)
                        wq = photon(mq, ws_by_photon["Q"], lam)
                        if not mixes:
                            val = quadratic_contraction(p2m, p1m, wp[0], wq[0]) / e_mid
                        else:
                            n_tau_vals = np.einsum("il,jq,tij,tlq->t",
                                                   p2m, p1m, wp, wq)
                            val = float(np.sum(
                                lag_w * np.exp(lag_x) * n_tau_vals
                                * np.exp(-e_mid * (lag_x / lam))) / lam)
                        total += val
    return -total / TWO_PI ** 2


def _mode_set_energy(config: PairConfiguration, modes: list[ModeIndex],
                     mode_tensor) -> float:
    """Pair energy with each level's couplings summed over ``modes`` only.

    ``mode_tensor(mode, energy)`` is one mode's 3x3 coupling; the TM and
    TE ones are added up in list order and assembled by
    :func:`wgdisp.energy._assemble`.
    """
    n_te = sum(mode.polarization == TE for mode in modes)

    def tensor_for(energy: float) -> FTensorResult:
        tm, te = np.zeros((3, 3)), np.zeros((3, 3))
        for mode in modes:
            if mode.polarization == TE:
                te += mode_tensor(mode, energy)
            else:
                tm += mode_tensor(mode, energy)
        return FTensorResult(tensor=tm + te, tm_tensor=tm, te_tensor=te,
                             tail_bound=0.0, tm_cutoff=math.nan, te_cutoff=math.nan,
                             tm_modes=len(modes) - n_te, te_modes=n_te)

    return _assemble(config, tensor_for, _confinement_guard(config)).total


def _orientation_cases(config: PairConfiguration, mode: ModeIndex):
    """The nine (orient, mode, p1, p2, z) cases of one mode's 3x3 tensor."""
    return [(i + j, mode, config.p1, config.p2, config.z) for i in "xyz" for j in "xyz"]


def weighted_reference_energy(config: PairConfiguration,
                              modes: list[ModeIndex]) -> float:
    """Pair energy from the frequency-weighted coupling integrals.

    Assembles the dominant-denominator energy formula using the
    quadrature couplings that keep the omega/(omega + E) weight, for
    comparison against the dominant-diagram restriction of the oracle.
    Each mode's tensor is one batch of integrals; an uncertified one raises
    its QuadratureError.
    """
    spec = QuadratureSpec(rel_tol=1e-9)

    def quadrature(mode: ModeIndex, energy: float) -> np.ndarray:
        values = _quadratures(config.geom, _orientation_cases(config, mode), [energy] * 9,
                              spec, config.conventions.normalization)
        for value in values:
            if isinstance(value, QuadratureError):
                raise value
        return np.array(values).reshape(3, 3)

    return _mode_set_energy(config, modes, quadrature)


def closed_form_reference_energy(config: PairConfiguration,
                                 modes: list[ModeIndex]) -> float:
    """Closed-form pair energy restricted to the same mode set.

    Each mode's coupling is its closed-form tensor, one batch of nine
    closed forms from the factor rows that every mode sum is built from.
    """
    def closed(mode: ModeIndex, energy: float) -> np.ndarray:
        return _closed_forms(config.geom, _orientation_cases(config, mode), energy,
                             config.conventions).reshape(3, 3)

    return _mode_set_energy(config, modes, closed)
