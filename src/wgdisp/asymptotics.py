"""Short-separation machinery for the mode-summed couplings.

At separations far below the transverse confinement the axial-axial TM
mode sum at the center of a square guide reduces (odd indices only) to

    S(z/a) = sum_{m,n odd} sqrt(m^2+n^2) exp(-sqrt(m^2+n^2) pi z / a)

whose continuum approximation is 1 / (4 pi^2 (z/a)^3).  Contracting the
full component table gives the near-field tensor {zz: 1/z^3,
xx = yy: -1/(2 z^3), off-diagonals: 0}, i.e. the free-space quasistatic
dipole tensor.  TE modes only grow logarithmically per mode in the same
limit, so their aggregate stays subdominant there, as the separate TM
and TE tensors of :func:`wgdisp.energy.f_tensor` show.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, InputError

_PARITIES = ("odd", "even", "all")


@dataclass(frozen=True)
class SumSpec:
    """Controls for the direct double-index mode sum."""

    z_over_a: float
    parity_m: str = "odd"
    parity_n: str = "odd"
    max_index: int = 200_001
    tol: float = 1e-12

    def __post_init__(self):
        if not (self.z_over_a > 0.0 and math.isfinite(self.z_over_a)):
            raise InputError(f"z_over_a must be positive, got {self.z_over_a!r}")
        if self.max_index < 1:
            raise InputError("max_index must be at least 1")
        if not (0.0 < self.tol < 1.0):
            raise InputError(f"tol must lie in (0, 1), got {self.tol!r}")
        if self.parity_m not in _PARITIES or self.parity_n not in _PARITIES:
            raise InputError(f"parity must be one of {_PARITIES}")


def _indices(parity: str, upto: int) -> np.ndarray:
    if parity == "odd":
        return np.arange(1, upto + 1, 2, dtype=float)
    if parity == "even":
        return np.arange(2, upto + 1, 2, dtype=float)
    return np.arange(1, upto + 1, dtype=float)


def _lattice_tail_bound(radius: float, c: float) -> float:
    """Bound on sum of rho*exp(-c rho) over odd lattice points with rho > radius.

    Each odd-odd lattice point owns a 2x2 cell whose points lie within
    sqrt(2) of it, so the sum is below the first-quadrant integral of the
    monotone envelope over rho > radius - sqrt(2), divided by the cell
    area 4.
    """
    r = max(radius - math.sqrt(2.0), 0.0)
    return (math.pi / 8.0) * math.exp(-c * r) \
        * (r * r / c + 2.0 * r / c ** 2 + 2.0 / c ** 3)


def _chunked_block_sum(m: np.ndarray, n: np.ndarray, c: float,
                       chunk: int = 1024) -> float:
    total = 0.0
    for start in range(0, m.size, chunk):
        mm, nn = np.meshgrid(m[start:start + chunk], n, indexing="ij")
        r = np.hypot(mm, nn)
        total += float(np.sum(r * np.exp(-c * r)))
    return total


def reduced_zz_sum_direct(spec: SumSpec) -> float:
    """Direct evaluation of the reduced axial-axial mode sum.

    Terms are accumulated over growing square index blocks until the
    certified lattice tail bound falls below ``tol`` times the partial
    sum.
    """
    c = math.pi * spec.z_over_a
    upto = max(9, int(4.0 / c))
    prev = 0
    total = 0.0
    while True:
        upto = min(upto, spec.max_index)
        m = _indices(spec.parity_m, upto)
        n = _indices(spec.parity_n, upto)
        # New L-shaped shell: (new m, all n) plus (old m, new n).
        total += _chunked_block_sum(m[m > prev], n, c)
        n_new = n[n > prev]
        m_old = m[m <= prev]
        if m_old.size and n_new.size:
            total += _chunked_block_sum(m_old, n_new, c)
        bound = _lattice_tail_bound(float(upto), c)
        if bound <= spec.tol * total:
            return total
        if upto >= spec.max_index:
            raise ConvergenceError(
                f"direct mode sum not converged by index {spec.max_index}",
                partial_sum=total, tail_bound=bound)
        prev = upto
        upto = 2 * upto + 1


def reduced_zz_sum_integral(z_over_a: float) -> float:
    """Continuum approximation of the reduced axial-axial sum."""
    if not (z_over_a > 0.0):
        raise InputError(f"z_over_a must be positive, got {z_over_a!r}")
    return 1.0 / (4.0 * math.pi ** 2 * z_over_a ** 3)


def near_field_components(z: float) -> dict[str, float]:
    """Short-separation coupling table for centered dipoles, square guide.

    The mode sums collapse to the free-space quasistatic dipole tensor:
    zz -> 1/z^3, xx = yy -> -1/(2 z^3), all off-diagonal pairs -> 0.
    """
    if not (z > 0.0):
        raise InputError(f"z must be positive, got {z!r}")
    inv = 1.0 / z ** 3
    return {"zz": inv, "xx": -0.5 * inv, "yy": -0.5 * inv,
            "xy": 0.0, "xz": 0.0, "yz": 0.0}
