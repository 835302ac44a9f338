"""Reference computations shared by several test modules."""

import math

import numpy as np

from wgdisp.coupling import transverse_profile
from wgdisp.energy import quadratic_contraction
from wgdisp.waveguide import TransversePoint


def profile_norm(geom, mode, k, convention="unit-normalized"):
    """Cross-section integral of |E|^2 on an 8 x 8 midpoint grid.

    The midpoint rule over N points sums cos(2 pi j (i + 1/2) / N) to zero
    for 0 < j < N, so it integrates every squared profile exactly (up to
    rounding) while both mode indices stay below N = 8.
    """
    points = 8
    xs = (np.arange(points) + 0.5) * geom.a / points
    ys = (np.arange(points) + 0.5) * geom.b / points
    total = sum(np.sum(np.abs(transverse_profile(
        geom, mode, k, TransversePoint(x, y), convention)) ** 2)
        for x in xs for y in ys)
    return float(total) * geom.area / points ** 2


def k0_small_argument(x):
    """Leading small-argument expansion -ln(x/2) - gamma of K0, to O(x^2 ln x)."""
    return -(np.log(0.5 * np.asarray(x, dtype=float)) + np.euler_gamma)


def near_field_energy(species1, species2, z, epsilon=1.0):
    """Pair energy contracted from the near-field component table.

    At short separations the mode sums collapse to the free-space
    quasistatic dipole tensor diag(-1/2, -1/2, 1) / z^3.
    """
    f = np.diag([-0.5, -0.5, 1.0]) / z ** 3
    pref = -1.0 / (2.0 * math.pi * epsilon) ** 2
    return sum(pref / (t1.energy + t2.energy) * quadratic_contraction(
        species2.second_moment(t2), species1.second_moment(t1), f, f)
        for t1 in species1.transitions for t2 in species2.transitions)


def ranked_modes(per_mode, n):
    """The ``n`` largest per-mode couplings of a ``per_mode`` map, as
    (mode, max |F|, 3x3 coupling), sorted in Python on
    (-max |F|, polarization, m, n): the ranking ``energy`` printed as
    ``top_modes`` before it ranked stacked arrays."""
    if not per_mode or n <= 0:
        return []
    modes, tensors = list(per_mode), list(per_mode.values())
    peaks = np.abs(np.array(tensors)).max(axis=(1, 2)).tolist()
    ranked = sorted(range(len(modes)), key=lambda i: (
        -peaks[i], modes[i].polarization, modes[i].m, modes[i].n))
    return [(modes[i], peaks[i], tensors[i]) for i in ranked[:n]]
