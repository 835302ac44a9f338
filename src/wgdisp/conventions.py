"""Sign, prefactor and normalization conventions, and the one map that
applies them.

Three independent switches cover every place where the printed closed
forms and the regularized integrals they descend from can disagree:

``tm_sign``
    Sign of the transverse-transverse (xx, yy, xy) mode couplings.
    ``oracle-consistent`` uses the sign delivered by the regularized
    Fourier integral (negative); ``paper-literal`` keeps the printed
    positive prefactor and the printed xy and yx cross terms.  Only
    ``oracle-consistent`` reproduces the free-space near-field tensor.

``te_factor``
    Overall factor of the TE coupling. ``derivation-consistent`` carries
    the factor -2 implied by the contour evaluation of the mode integral;
    ``paper-literal`` uses +1 as printed.

``normalization``
    ``unit-normalized`` rescales TE modes with a zero index by 1/sqrt(2)
    so every transverse profile integrates to exactly 1;
    ``paper-literal`` evaluates the printed profiles verbatim (zero-index
    TE modes then integrate to 2).

Every kernel, factor row and mode table computes the defaults, the
oracle-consistent bundle; :func:`apply` maps their couplings to any other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError

TM_SIGNS = ("oracle-consistent", "paper-literal")
TE_FACTORS = ("derivation-consistent", "paper-literal")
NORMALIZATIONS = ("unit-normalized", "paper-literal")

# Sign S[i][j] of each TM coupling relative to the common positive magnitude
# (4 pi / A) k_mn P_i(p2) P_j(p1) exp(-k_mn z), row i the component at p2 and
# column j the one at p1, axes ordered x, y, z.  Printed prefactors keep the
# transverse-transverse couplings positive and the mixed ones symmetric.
_TM_SIGNS = {"oracle-consistent": np.array([[-1.0, -1.0, -1.0], [-1.0, -1.0, -1.0],
                                            [1.0, 1.0, 1.0]]),
             "paper-literal": np.array([[1.0, 1.0, -1.0], [1.0, 1.0, -1.0],
                                        [-1.0, -1.0, 1.0]])}
# Overall factor of the TE coupling, by ``Conventions.te_factor``.
_TE_FACTORS = {"derivation-consistent": -2.0, "paper-literal": 1.0}
# What the kernels take.
KERNEL_TM_SIGNS = _TM_SIGNS["oracle-consistent"]
KERNEL_TE_FACTOR = _TE_FACTORS["derivation-consistent"]


@dataclass(frozen=True)
class Conventions:
    tm_sign: str = "oracle-consistent"
    te_factor: str = "derivation-consistent"
    normalization: str = "unit-normalized"

    def __post_init__(self):
        for name, allowed in (("tm_sign", TM_SIGNS), ("te_factor", TE_FACTORS),
                              ("normalization", NORMALIZATIONS)):
            if getattr(self, name) not in allowed:
                raise InputError(f"{name} must be one of {allowed}, got {getattr(self, name)!r}")

    @classmethod
    def paper_literal(cls) -> "Conventions":
        return cls(tm_sign="paper-literal", te_factor="paper-literal",
                   normalization="paper-literal")

    @classmethod
    def from_name(cls, name: str) -> "Conventions":
        if name == "oracle-consistent":
            return cls()
        if name == "paper-literal":
            return cls.paper_literal()
        raise InputError(f"unknown convention bundle {name!r}")

    @property
    def printed(self) -> tuple[bool, bool]:
        """Whether :func:`apply` takes the printed TM cross terms and the
        zero-index TE terms; callers build those parts only then."""
        return self.tm_sign == "paper-literal", self.normalization == "paper-literal"

    @property
    def te_scale(self) -> float:
        """The factor :func:`apply` puts on the TE part, 1 or -1/2; its size
        scales TE bounds and envelopes."""
        return _TE_FACTORS[self.te_factor] / KERNEL_TE_FACTOR


def apply(conventions: Conventions, tm, te, cross=None, zero=None, oracle: bool = False):
    """Oracle-consistent TM and TE couplings ``tm`` and ``te`` (component
    axes first, or None) under ``conventions``, as (tm, te).

    Printed signs put -1 on xx, yy, zx and zy and make xy and yx the
    printed cross terms ``cross``; printed normalization adds ``zero``, the
    zero-index TE terms shaped like ``te``, once more; the printed factor
    multiplies TE by -1/2.  Signs and factor are exact; a zero-index term
    taken twice moves by ulps from one built with the printed profile.
    With ``oracle`` (the wavenumber and photon oracles) only normalization
    applies.  Changed parts are new arrays, -0.0 turned into 0.0.
    """
    flip, twice = conventions.printed
    if flip and not oracle and tm is not None:
        signs = _TM_SIGNS["paper-literal"] * KERNEL_TM_SIGNS
        tm = signs.reshape(signs.shape + (1,) * (np.ndim(tm) - 2)) * tm
        tm[0, 1], tm[1, 0] = cross
        tm += 0.0
    scale = 1.0 if oracle else conventions.te_scale
    if te is not None and (twice or scale != 1.0):
        te = (te + zero if twice else te) * scale + 0.0
    return tm, te
