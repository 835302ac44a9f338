"""The two convention bundles, and the one map that applies them.

``oracle-consistent`` (the default) gives the transverse-transverse TM
couplings the sign of the regularized Fourier integral (negative), the TE
coupling the factor -2 of the contour evaluation, and every transverse
profile unit norm (zero-index TE modes rescaled by 1/sqrt(2)); only it
reproduces the free-space near-field tensor and the wavenumber oracle.
``paper-literal`` keeps the printed positive TM prefactor with the printed
xy and yx cross terms, the printed TE factor +1, and the printed profiles,
whose zero-index TE modes integrate to 2.  Every kernel, factor row and
mode table computes the default bundle; :func:`apply` maps their couplings
to the printed one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError

# Sign S[i][j] of each TM coupling relative to the common positive magnitude
# (4 pi / A) k_mn P_i(p2) P_j(p1) exp(-k_mn z), row i the component at p2 and
# column j the one at p1, axes ordered x, y, z: what the kernels take.
KERNEL_TM_SIGNS = np.array([[-1.0, -1.0, -1.0], [-1.0, -1.0, -1.0], [1.0, 1.0, 1.0]])
# Overall factor of the TE coupling that the kernels take.
KERNEL_TE_FACTOR = -2.0
# The printed bundle relative to the kernels: printed prefactors keep the
# transverse-transverse couplings positive and the mixed ones symmetric, so
# xx, yy, zx and zy change sign; the printed TE factor is +1.
_PRINTED_TM_SIGNS = np.array([[-1.0, -1.0, 1.0], [-1.0, -1.0, 1.0], [-1.0, -1.0, 1.0]])
_PRINTED_TE_SCALE = 1.0 / KERNEL_TE_FACTOR
# Each bundle's TM sign, TE factor and normalization, as the energy report names them.
_CHOICES = {"oracle-consistent": ("oracle-consistent", "derivation-consistent", "unit-normalized"),
            "paper-literal": ("paper-literal",) * 3}


@dataclass(frozen=True)
class Conventions:
    bundle: str = "oracle-consistent"

    def __post_init__(self):
        if self.bundle not in _CHOICES:
            raise InputError(f"unknown convention bundle {self.bundle!r}")

    @property
    def printed(self) -> bool:
        """Whether :func:`apply` takes printed cross and zero-index terms, built only then."""
        return self.bundle == "paper-literal"

    @property
    def choices(self) -> dict[str, str]:
        return dict(zip(("tm_sign", "te_factor", "normalization"), _CHOICES[self.bundle]))

    def te_bound(self, energy: float) -> float:
        """|factor| E, the size of the TE weight :func:`apply` leaves at transition
        energy ``energy``, exactly: the factor of every TE bound."""
        return abs((_PRINTED_TE_SCALE if self.printed else 1.0) * (KERNEL_TE_FACTOR * energy))


def apply(conventions: Conventions, tm, te, cross=None, zero=None, oracle: bool = False):
    """Oracle-consistent TM and TE couplings ``tm`` and ``te`` (component
    axes first, or None) under ``conventions``, as (tm, te).

    The printed bundle puts -1 on xx, yy, zx and zy and makes xy and yx the
    printed cross terms ``cross``, adds ``zero``, the zero-index TE terms
    shaped like ``te``, once more, and multiplies TE by -1/2, exactly but
    for the zero-index terms, which move by ulps from the printed profile's;
    with ``oracle`` (the wavenumber and photon oracles) only the zero-index
    terms.  Changed parts are new arrays, -0.0 turned into 0.0.
    """
    if not conventions.printed:
        return tm, te
    if not oracle and tm is not None:
        tm = _PRINTED_TM_SIGNS.reshape((3, 3) + (1,) * (np.ndim(tm) - 2)) * tm
        tm[0, 1], tm[1, 0] = cross
        tm += 0.0
    if te is not None:
        te = (te + zero) * (1.0 if oracle else _PRINTED_TE_SCALE) + 0.0
    return tm, te
