"""The reduced axial-axial mode sum of Fig. 4 and its continuum limit.

At the center of a square guide the axial-axial TM mode sum reduces (odd
indices only) to

    S(z/a) = sum_{m,n odd} sqrt(m^2+n^2) exp(-sqrt(m^2+n^2) pi z / a)

whose continuum approximation is 1 / (4 pi^2 (z/a)^3), the free-space
quasistatic 1/z^3.  S is a^3 F_TM,zz / (4 pi^2), read off the TM Ewald
splits of :meth:`wgdisp.energy.ModeTable.compute_splits`, without their
bounds.
"""

from __future__ import annotations

import math

import numpy as np

from .energy import ModeTable
from .errors import _require_positive
from .waveguide import TM, Geometry


# One table serves every call: its screened modes are listed and built once.
# Each call takes its separations' splits afresh, as one batch.
_CENTER = Geometry(1.0, 1.0).center()
_TABLE = ModeTable(Geometry(1.0, 1.0), _CENTER, _CENTER)


def reduced_zz_sum_direct(z_over_a: float | np.ndarray) -> float | np.ndarray:
    """The reduced axial-axial mode sum S(z/a) itself.

    "Direct" means the mode sum, as opposed to its continuum
    approximation :func:`reduced_zz_sum_integral`.  It is evaluated as the
    TM Ewald split of a unit square guide with both dipoles at the
    center, whose truncation bound is far below 1e-10 of S.  A 1-D array
    takes one :meth:`ModeTable.compute_splits` call, and each of its sums
    is bit for bit that of its float.
    """
    zs = np.ravel(z_over_a).tolist()
    for z in zs if np.ndim(z_over_a) else [z_over_a]:
        _require_positive("z_over_a", z)
    _TABLE.compute_splits(zs, (TM,))
    sums = np.array([_TABLE.split(TM, z)[0][2, 2] for z in zs]) / (4.0 * math.pi ** 2)
    return sums if np.ndim(z_over_a) else float(sums[0])


def reduced_zz_sum_integral(z_over_a: float) -> float:
    """Continuum approximation of the reduced axial-axial sum."""
    _require_positive("z_over_a", z_over_a)
    return 1.0 / (4.0 * math.pi ** 2 * z_over_a ** 3)
