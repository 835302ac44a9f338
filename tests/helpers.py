"""Reference computations shared by several test modules."""

import math

import numpy as np

from wgdisp.conventions import Conventions
from wgdisp import coupling
from wgdisp.coupling import _split_cutoff, _te_rows, _tm_rows
from wgdisp.energy import ModeTable, quadratic_contraction
from wgdisp.errors import InputError
from wgdisp.waveguide import TM, ModeIndex, TransversePoint, _cutoffs


def mode_profile(geom, mode, k, p, conventions=Conventions()):
    """Cartesian components [E_x, E_y, E_z] of the transverse profile.

    The profiles printed in :mod:`wgdisp.waveguide`, with the TE
    normalization of the bundle ``conventions``, built from the coupling
    factor rows.
    TM components along x and y are imaginary (proportional to i*k); TE
    profiles are real and independent of k.  The TE components are the
    ``_te_rows`` entries at ``p``, times sqrt(2) for a zero-index mode where
    :func:`wgdisp.conventions.apply` takes its coupling twice; the TM ones
    scale the ``_tm_rows`` factors by (2/sqrt(A)) (i k, i k, k_mn)/kappa.
    """
    if not geom.contains(p):
        raise InputError(f"point ({p.x}, {p.y}) lies outside the cross-section")
    m, n = np.array([mode.m]), np.array([mode.n])
    kmn = _cutoffs(geom, m, n)
    out = np.zeros(3, dtype=complex)
    if mode.polarization == TM:
        rows = _tm_rows(geom, m, n, kmn, p, p)[0:3, 0]
        kappa = math.hypot(kmn[0], k)
        out[:] = (2.0 / math.sqrt(geom.area)) * np.array(
            [1j * k, 1j * k, kmn[0]]) / kappa * rows
    else:
        twice = conventions.printed and mode.m * mode.n == 0
        out[0:2] = _te_rows(geom, m, n, kmn, p, p)[0:2, 0] * (math.sqrt(2.0) if twice else 1.0)
    return out


def profile_norm(geom, mode, k, convention="unit-normalized"):
    """Cross-section integral of |E|^2 on an 8 x 8 midpoint grid, under the
    normalization ``convention``: "unit-normalized", the oracle-consistent
    bundle's, or "paper-literal", the printed bundle's.

    The midpoint rule over N points sums cos(2 pi j (i + 1/2) / N) to zero
    for 0 < j < N, so it integrates every squared profile exactly (up to
    rounding) while both mode indices stay below N = 8.
    """
    bundle = {"unit-normalized": "oracle-consistent", "paper-literal": "paper-literal"}
    conventions = Conventions(bundle[convention])
    points = 8
    xs = (np.arange(points) + 0.5) * geom.a / points
    ys = (np.arange(points) + 0.5) * geom.b / points
    total = sum(np.sum(np.abs(mode_profile(geom, mode, k, TransversePoint(x, y),
                                           conventions)) ** 2)
                for x in xs for y in ys)
    return float(total) * geom.area / points ** 2


def k0_small_argument(x):
    """Leading small-argument expansion -ln(x/2) - gamma of K0, to O(x^2 ln x)."""
    return -(np.log(0.5 * np.asarray(x, dtype=float)) + np.euler_gamma)


def near_field_energy(species1, species2, z, epsilon=1.0, offset=None):
    """Pair energy contracted from the near-field component table.

    At short separations the mode sums collapse to the free-space
    quasistatic dipole tensor diag(-1/2, -1/2, 1) / z^3.  With the
    transverse ``offset`` (dx, dy) of the pair, the tensor is that of the
    separation r = (dx, dy, z): (3 r r^T / r^2 - I) / (2 |r|^3).
    """
    if offset is None:
        f = np.diag([-0.5, -0.5, 1.0]) / z ** 3
    else:
        r = np.array([*offset, z])
        size = np.sqrt(r @ r)
        f = (3.0 * np.outer(r, r) / size ** 2 - np.eye(3)) / (2.0 * size ** 3)
    pref = -1.0 / (2.0 * math.pi * epsilon) ** 2
    return sum(pref / (t1.energy + t2.energy) * quadratic_contraction(p2, p1, f, f)
               for t1, p1 in zip(species1.transitions, species1.second_moments)
               for t2, p2 in zip(species2.transitions, species2.second_moments))


def mode_tensors(table, counts, z, energy, conventions=Conventions()):
    """Polarizations, indices m and n, and (3, 3, N) couplings under
    ``conventions`` of the first ``counts[0]`` TM modes, then the first
    ``counts[1]`` TE modes of a ``ModeTable``, each in table order."""
    pols = np.repeat(("TM", "TE"), counts)
    m, n = np.concatenate([table._mn[pol][:, :count]
                           for pol, count in zip(("TM", "TE"), counts)], axis=1)
    geom, p1, p2 = table.key
    tm, te = ((*table._mn[pol][:, :count], table._k[pol][:count], table._rows[pol][:count].T)
              for pol, count in zip(("TM", "TE"), counts))
    return pols, m, n, np.concatenate(
        coupling._mode_tensors(conventions, geom, tm, te, p1, p2, z, energy), axis=2)


def ranked_modes(modes, n):
    """The ``n`` largest couplings of :func:`mode_tensors` arrays
    (polarizations, m, n and (3, 3, N) couplings), as (mode, max |F|, 3x3
    coupling), sorted in Python on (-max |F|, polarization, m, n)."""
    pol, ms, ns, tensors = modes
    peaks = np.abs(tensors).max(axis=(0, 1)).tolist()
    keys = list(zip(pol.tolist(), ms.tolist(), ns.tolist()))
    ranked = sorted(range(len(keys)), key=lambda i: (-peaks[i], *keys[i]))
    return [(ModeIndex(*keys[i]), peaks[i], tensors[:, :, i].copy())
            for i in ranked[:max(n, 0)]]


def full_ranking(config, energy, max_cutoff=None):
    """:func:`mode_tensors` of every mode up to ``max_cutoff`` when it is
    given (a ``max_cutoff`` truncation), else up to max(3 K_split, 6/z),
    K_split the splits' cutoff, on a fresh table."""
    K = max_cutoff or max(3.0 * _split_cutoff(config.geom), 6.0 / config.z)
    table = ModeTable(config.geom, config.p1, config.p2)
    return mode_tensors(table, table.extend(K), config.z, energy, config.conventions)
