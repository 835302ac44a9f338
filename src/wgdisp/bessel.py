"""Modified Bessel function K0 of the second kind, order zero.

``bessel_k0`` checks its argument and evaluates :func:`wgdisp._special.k0`,
the K0 that every mode sum and the TE split use.
"""

from __future__ import annotations

import numpy as np
from ._special import k0

from .errors import InputError


def bessel_k0(x):
    """K0(x) for scalar or array ``x`` with finite x > 0."""
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise InputError("bessel_k0 requires finite x > 0 "
                         "(logarithmic singularity at 0)")
    out = k0(arr)
    return float(out) if arr.ndim == 0 else out
