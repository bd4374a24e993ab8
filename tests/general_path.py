"""J_nu(x) without the half-integer closed forms.

The package's series, Miller-recurrence and Hankel regimes at
``bessel_j``'s thresholds, so that the elementary trigonometric forms of
half-integer orders can cross-check that machinery independently.
"""

from sphrestrict.special_fns import (
    _bessel_hankel,
    _bessel_miller,
    _bessel_series,
    _hankel_threshold,
)


def bessel_j_general_path(nu: float, x: float) -> float:
    """``bessel_j(nu, x)`` for x >= 0, never taking the half-integer path."""
    if x == 0.0:
        return 1.0 if nu == 0.0 else 0.0
    if x <= 2.0:
        return _bessel_series(nu, x)
    if x >= _hankel_threshold(nu):
        return _bessel_hankel(nu, x)
    return _bessel_miller(nu, x)
