"""Modified Bessel function K0 of the second kind, order zero.

``bessel_k0`` checks its argument and evaluates ``scipy.special.k0``, the
K0 that every mode sum uses.  ``k0_small_argument`` is the leading
logarithmic expansion the near-field diagnostics compare against.
"""

from __future__ import annotations

import numpy as np
from scipy.special import k0

from .errors import InputError

_EULER_GAMMA = 0.5772156649015328606


def bessel_k0(x):
    """K0(x) for scalar or array ``x`` with finite x > 0."""
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise InputError("bessel_k0 requires finite x > 0 "
                         "(logarithmic singularity at 0)")
    out = k0(arr)
    return float(out) if arr.ndim == 0 else out


def k0_small_argument(x):
    """Leading small-argument expansion -ln(x/2) - gamma.

    Accurate to O(x^2 ln x); used by the near-field diagnostics to expose
    the logarithmic growth of the TE couplings at short separations.
    """
    arr = np.asarray(x, dtype=float)
    if np.any(arr <= 0.0):
        raise InputError("k0_small_argument requires x > 0")
    return -(np.log(0.5 * arr) + _EULER_GAMMA)
