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

The photon tables (:func:`_photon_integrals`) of one mode and tau grid, one
per set of transition energies, share a graded head of Gauss-Legendre panels
in psi near the branch point; past it each tau's tail leaves the real axis of
w = k_mn sinh psi along a ray on which e^{i w tau - z kappa} decays without
oscillating, taken by the exp-sinh rule of the wavenumber oracle.

Natural units hbar = c = 1.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .conventions import KERNEL_TM_SIGNS, apply
from .coupling import ORIENTATIONS, _TM_CLASS, _gauss_legendre, _te_rows, _tm_rows
from .energy import (FTensorResult, PairConfiguration, _assemble,
                     _confinement_guard, quadratic_contraction)
from .errors import InputError
from .quadrature import _certified, _closed_forms, _mode_cases, _quadratures, _ray_rule
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


# The diagrams every oracle call reads, built once.
_DIAGRAMS = tuple(enumerate_diagrams())


# ---------------------------------------------------------------------------
# rotated-contour photon integrals
# ---------------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = _gauss_legendre(16)
# Where the nodes sit in a panel, as fractions of its width.
_GL_FRACTIONS = 0.5 * (1.0 + _GL_NODES)
# Head panels start at 1/8 of the narrowest feature and grow by this factor.
_HEAD_GROWTH = 1.7
# Head nodes per numpy pass, about one tau's head: never a whole grid's at once.
_BLOCK_NODES = 2048
# Exp-sinh rule of the tails: step 1/12, s up to ln 42 + 0.1 (x ~ 45, where
# e^{-x} ~ 2e-20), 101 nodes.
_TAIL_STEP = 1.0 / 12.0
_TAIL_END = math.log(42.0) + 0.1
# Closest approach of a ray to the branch point i k_mn, in k_mn: the rule's error
# from it is then about e^{-2 pi 0.3 / step} = e^{-22} of the integrand there.
_BRANCH_GAP = 0.3


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
    """Each table entry's factor, one row each: -w^2 (TE); 1, kappa, kappa^2 (TM)."""
    return np.stack((-w * w,) if te else (np.ones_like(w), kappa, kappa * kappa))


def _photon_integrals(kmn: float, z: float, energy_sets: list[tuple[float, ...]],
                      taus: np.ndarray, te: bool) -> np.ndarray:
    """Rotated-contour photon integrals of one mode (cutoff ``kmn``) for
    each set of energies in ``energy_sets``: one table per set, one row per
    tau of ``taus`` and one column per entry (TE: rh; TM: r0, r1, r2).

    On the contour k = i kappa, kappa = k_mn cosh psi, w = k_mn sinh psi:

        r0, r1, r2 = 2 Re int_0^inf dpsi kappa^(0, 1, 2) e^{-z kappa} D
        rh = -2 Re int_0^inf dpsi w^2 e^{-z kappa} D

    with D = e^{i w tau} / prod_r (W_r - i w) over a set's energies W_r.
    The factors 1/(W - i w) peak at the branch point with width W/k_mn in
    psi, so every set and tau shares one head of 16-point Gauss-Legendre
    panels in psi, the first 1/8 of the narrowest feature wide and each 1.7
    times the last, up to psi_max where the damping has fallen by a further
    e^{-46}.  A tau whose half period of e^{i w tau} is narrower than some
    panel stops at the first such panel, at w_s, where :func:`_ray_tail`
    takes over; at tau = 0 the head covers the whole range.
    """
    psi_max = math.acosh(1.0 + 46.0 / (kmn * z))

    # Head: panels in psi growing geometrically to psi_max, from the narrowest
    # energy of every set; each tau takes those before its first panel wider
    # than half a period of e^{i w tau} at the panel's start.
    scale = min([W / kmn for Ws in energy_sets for W in Ws] + [1.0])
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
    # One contiguous row per set and entry, so the sums over nodes are pairwise.
    cols = _columns(w, kappa, te)
    re, im = (np.array(part)[:, None] * cols for part in zip(*(
        _lorentzian(w, kappa, (half[:, None] * _GL_WEIGHTS).ravel(), z, Ws)
        for Ws in energy_sets)))
    panel = np.repeat(np.arange(n_head), _GL_NODES.size)
    sums = np.zeros((len(energy_sets), taus.size, cols.shape[0]))
    rows = max(1, _BLOCK_NODES // psi.size)
    for lo in range(0, taus.size, rows):
        block = slice(lo, lo + rows)
        used = _GL_NODES.size * int(first[block].max())
        phase = np.outer(taus[block], w[:used])
        live = panel[:used] < first[block, None]
        cos, sin = np.where(live, np.cos(phase), 0.0), np.where(live, np.sin(phase), 0.0)
        sums[:, block] = (cos * re[:, :, None, :used] - sin * im[:, :, None, :used]
                          ).sum(axis=-1).transpose(0, 2, 1)

    tail = first < n_head
    if tail.any():
        sums[:, tail] += _ray_tail(kmn, z, energy_sets, taus[tail],
                                   kmn * np.sinh(edges[first[tail]]), te)
    return 2.0 * sums


def _ray_tail(kmn: float, z: float, energy_sets: list[tuple[float, ...]],
              taus: np.ndarray, w_start: np.ndarray, te: bool) -> np.ndarray:
    """Re of the integrals of :func:`_photon_integrals` from w_start on, per
    set, tau and entry, along the rays w = w_s + r e^{i theta}.

    In w, dpsi = dw / kappa; with poles at w = -i W_r and branch cuts on the
    imaginary axis from +-i k_mn, the integrand is analytic in the open first
    quadrant, and the arc at infinity vanishes.  At tan theta = tau / z,
    e^{i w tau - z kappa} falls far out as e^{-r sqrt(z^2 + tau^2)} without
    oscillating; theta is turned down where that ray would pass i k_mn
    closer than _BRANCH_GAP k_mn.  The exp-sinh rule (:func:`_ray_rule`)
    takes r = x / q, q = tau sin theta + z cos theta w_s / kappa_s the decay
    rate at w_s, slower than far out where |w| < k_mn and k_mn z is large.
    """
    u = w_start / kmn
    theta = np.minimum(np.arctan2(taus, z),
                       np.arctan(u) + np.arccos(_BRANCH_GAP / np.hypot(1.0, u)))
    rate = taus * np.sin(theta) + z * np.cos(theta) * w_start / np.hypot(kmn, w_start)
    step = (np.exp(1j * theta) / rate)[:, None]  # dw / dx
    x, weights = _ray_rule(_TAIL_STEP, _TAIL_END)
    w = w_start[:, None] + step * x
    kappa = np.sqrt(kmn * kmn + w * w)
    base = step * weights * np.exp(1j * taus[:, None] * w - z * kappa) / kappa
    sets = np.stack([base / np.prod([W - 1j * w for W in Ws], axis=0) for Ws in energy_sets])
    return np.einsum("ctx,stx->stc", _columns(w, kappa, te), sets).real


# Which tau integral of :func:`_photon_integrals` (0: r0, 1: r1, 2: r2) each TM
# component takes, row i at p2 and column j at p1.
_TM_RADIAL = 2 - _TM_CLASS


def _photon_factors(config: PairConfiguration, modes: list[ModeIndex]):
    """Cutoffs k_mn of ``modes`` and maps from the entries of each one's
    photon table to its per-tau 3x3 photon-exchange tensors (index i at p2,
    j at p1): two dicts keyed by mode, read from one batch, a case per mode."""
    geom, eps = config.geom, config.epsilon
    _, m, n, k, p1, p2 = _mode_cases(geom, modes, config.p1, config.p2, config.z, ["zz"])[:6]
    kmn, factors = dict(zip(modes, k.tolist())), {}
    for mode, (ex2, ey2, ex1, ey1), tm in zip(modes, *(
            rows(geom, m, n, k, p1, p2).T.tolist() for rows in (_te_rows, _tm_rows))):
        if mode.polarization == TE:
            prof = np.outer((ex2, ey2, 0.0), (ex1, ey1, 0.0))[None, :, :]
            prof = apply(config.conventions, None, prof, zero=prof * (mode.m * mode.n == 0),
                         oracle=True)[1]  # printed zero-index profiles: the product twice
            factors[mode] = lambda entries, prof=prof: \
                entries[:, 0, None, None] * prof / (2.0 * eps)
        else:  # the powers 1, k, k^2 of the entries' classes
            tensor = KERNEL_TM_SIGNS * (2.0 / (eps * geom.area)) * np.array(
                [1.0, kmn[mode], kmn[mode] ** 2])[_TM_CLASS] * np.outer(tm[0:3], tm[3:6])
            factors[mode] = lambda entries, tensor=tensor: tensor * entries[:, _TM_RADIAL]
    return kmn, factors


# Most modes one oracle call takes: its cost grows as their number squared.
_MODE_CAP = 8
# Points of the Gauss-Laguerre rule over the photons' imaginary times.
_N_TAU = 48


@functools.cache
def _laguerre_rule(count: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the ``count``-point Gauss-Laguerre rule, read-only
    arrays shared by every call."""
    nodes, weights = np.polynomial.laguerre.laggauss(count)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def fourth_order_oracle(
    config: PairConfiguration,
    modes: list[ModeIndex],
    diagrams: str = "all",
) -> float:
    """Full fourth-order energy restricted to an explicit mode set.

    ``diagrams="dominant"`` keeps only the four orderings with the small
    denominator; ``"all"`` sums every ordering.  The double mode sum is
    quadratic in ``len(modes)``, capped at ``_MODE_CAP``.  The Schwinger
    times take the ``_N_TAU``-point Gauss-Laguerre rule.  The diagrams are
    built once per process, and every mode's cutoff and photon factor come
    from one batch per call (:func:`_photon_factors`).
    """
    if len(modes) == 0:
        raise InputError("oracle needs at least one mode")
    if len(modes) > _MODE_CAP:
        raise InputError(f"oracle restricted to at most {_MODE_CAP} modes, "
                         f"got {len(modes)}")
    if diagrams not in ("all", "dominant"):
        raise InputError(f"diagrams must be 'all' or 'dominant', got {diagrams!r}")
    diags = _DIAGRAMS
    if diagrams == "dominant":
        diags = [d for d in diags if d.is_dominant]

    lag_x, lag_w = _laguerre_rule(_N_TAU)
    kmn, factors = _photon_factors(config, modes)

    total = 0.0
    for t1, p1m in zip(config.species1.transitions, config.species1.second_moments):
        for t2, p2m in zip(config.species2.transitions, config.species2.second_moments):
            E = {1: t1.energy, 2: t2.energy}
            # Every photon key (mode, energies, grid: tau = 0 if lam is None, else
            # the Laguerre grid over lam), grouped by mode and grid, with the
            # energies in the order of the first diagram that asks.
            groups: dict = {}
            terms = []
            for diag in diags:
                d1, mid, d3 = diag.denominators
                # Which photon each outer denominator rides on, and the
                # transition energy it carries.
                ws_by_photon = {"P": [], "Q": []}
                for den in (d1, d3):
                    ws_by_photon["P" if den[0] == 1 else "Q"].append(E[1] if den[2] == 1 else E[2])
                e_mid = mid[2] * E[1] + mid[3] * E[2]
                mixes = mid[0] == 1  # middle contains both photon frequencies
                for mp, mq in itertools.product(modes, modes):
                    lam = kmn[mp] + kmn[mq] + e_mid if mixes else None
                    pair = ((mp, ws_by_photon["P"]), (mq, ws_by_photon["Q"]))
                    keys = [(mode, tuple(sorted(Ws)), lam) for mode, Ws in pair]
                    for key, (mode, Ws) in zip(keys, pair):
                        groups.setdefault((mode, lam), {}).setdefault(key, tuple(Ws))
                    terms.append((e_mid, lam, *keys))
            # One table call per mode and grid, for all its sets of energies.
            photons = {}
            for (mode, lam), sets in groups.items():
                taus = np.array([0.0]) if lam is None else lag_x / lam
                tables = _photon_integrals(kmn[mode], config.z, list(sets.values()), taus,
                                           mode.polarization == TE)
                photons.update(zip(sets, map(factors[mode], tables)))

            for e_mid, lam, key_p, key_q in terms:
                wp, wq = photons[key_p], photons[key_q]
                if lam is None:
                    val = quadratic_contraction(p2m, p1m, wp[0], wq[0]) / e_mid
                else:
                    n_tau_vals = np.einsum("il,jq,tij,tlq->t", p2m, p1m, wp, wq)
                    val = float(np.sum(lag_w * np.exp(lag_x) * n_tau_vals
                                       * np.exp(-e_mid * (lag_x / lam))) / lam)
                total += val
    return -total / TWO_PI ** 2


def _mode_set_energy(config: PairConfiguration, modes: list[ModeIndex],
                     couplings) -> float:
    """Pair energy with each level's couplings summed over ``modes`` only.

    One batch holds the nine orientations of every mode, in list order, and
    ``couplings(cases, energy)`` evaluates it at one level; the TM and TE
    tensors are added up in list order and assembled by
    :func:`wgdisp.energy._assemble`.
    """
    cases = _mode_cases(config.geom, modes, config.p1, config.p2, config.z, ORIENTATIONS)
    n_te = sum(mode.polarization == TE for mode in modes)

    def tensor_for(_, energy: float) -> FTensorResult:
        tm, te = np.zeros((3, 3)), np.zeros((3, 3))
        for mode, tensor in zip(modes, couplings(cases, energy).reshape(-1, 3, 3)):
            if mode.polarization == TE:
                te += tensor
            else:
                tm += tensor
        return FTensorResult(tensor=tm + te, tm_tensor=tm, te_tensor=te,
                             tail_bound=0.0, tm_cutoff=math.nan,
                             tm_modes=len(modes) - n_te, te_modes=n_te)

    return _assemble([config], tensor_for, _confinement_guard(config))[0].total


def weighted_reference_energy(config: PairConfiguration,
                              modes: list[ModeIndex]) -> float:
    """Pair energy from the frequency-weighted coupling integrals.

    Assembles the dominant-denominator energy formula using the
    quadrature couplings that keep the omega/(omega + E) weight, for
    comparison against the dominant-diagram restriction of the oracle.
    Each level's tensors are one batch of integrals; an uncertified one
    raises its QuadratureError.
    """
    return _mode_set_energy(config, modes, lambda cases, energy: _certified(*_quadratures(
        config.geom, cases, [energy] * cases.k.size, ["branch-cut-rotated"], config.conventions)))


def closed_form_reference_energy(config: PairConfiguration,
                                 modes: list[ModeIndex]) -> float:
    """Closed-form pair energy restricted to the same mode set.

    Each level's couplings are one batch of closed forms, nine per mode,
    from the factor rows that every mode sum is built from.
    """
    return _mode_set_energy(config, modes, lambda cases, energy: _closed_forms(
        config.geom, cases, energy, config.conventions))
