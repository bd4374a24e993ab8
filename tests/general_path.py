"""J_nu(x) without the half-integer closed forms.

The package's series, Miller-recurrence and Hankel regimes at
``bessel_j_array``'s thresholds, so that the elementary trigonometric
forms of half-integer orders can cross-check that machinery independently.
"""

import numpy as np

from sphrestrict.special_fns import _hankel_array, _miller_array, _series_array


def bessel_j_general_path(nu: float, x: float) -> float:
    """``bessel_j(nu, x)`` for x >= 0, never taking the half-integer path."""
    if x == 0.0:
        return 1.0 if nu == 0.0 else 0.0
    if x <= 2.0:
        regime = _series_array
    elif x >= max(30.0, nu * (nu + 1.0)):
        regime = _hankel_array
    else:
        regime = _miller_array
    return float(regime(nu, np.array([x]))[0])
