"""Independent oracles shared by the tests.

Nothing here imports the production evaluation paths: the Bessel series
oracle uses ``math.lgamma`` directly, the half-integer forms are written
out explicitly, and the reference integrator is mpmath.  Expected values
frozen in the tests were produced by these oracles (or by 30-digit mpmath
runs of the same recipes); the generating code stays here so any frozen
number can be recomputed.
"""

from __future__ import annotations

import math
from fractions import Fraction


def bessel_series_oracle(nu: float, x: float, max_terms: int = 400) -> tuple[float, float]:
    """(value, remainder_bound) of the defining power series of J_nu.

    Terms are computed independently via lgamma; once they decrease in
    magnitude the alternating-series remainder is bounded by the first
    omitted term.
    """
    if x == 0.0:
        return (1.0 if nu == 0.0 else 0.0), 0.0
    log_half_x = math.log(0.5 * x)
    total = 0.0
    prev_mag = math.inf
    decreasing = False
    for k in range(max_terms):
        log_mag = (nu + 2 * k) * log_half_x - math.lgamma(k + 1) - math.lgamma(nu + k + 1)
        mag = math.exp(log_mag)
        total += mag if k % 2 == 0 else -mag
        if mag < prev_mag:
            decreasing = True
        if decreasing and mag < 1e-17:
            # Next term bounds the remainder once magnitudes decrease.
            return total, mag
        prev_mag = mag
    return total, prev_mag


def bessel_half_oracle(m: int, x: float) -> float:
    """J_{m + 1/2}(x) by the explicit elementary forms, m in {0, 1, 2}."""
    env = math.sqrt(2.0 / (math.pi * x))
    s, c = math.sin(x), math.cos(x)
    if m == 0:
        return env * s
    if m == 1:
        return env * (s / x - c)
    if m == 2:
        return env * ((3.0 / (x * x) - 1.0) * s - 3.0 * c / x)
    raise ValueError(m)


def bisect_sign_change(f, lo: float, hi: float, iters: int = 200) -> float:
    flo = f(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if (flo < 0.0) != (fmid < 0.0):
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


def gaussian_lp_norm_closed_form(d: int, sigma: float, p: float) -> float:
    """||h_sigma||_{L_p(R^d)} = (2 pi)^(-(d/2)(1-1/p)) sigma^(-d(1-1/p)) p^(-d/(2p))."""
    a = d * (1.0 - 1.0 / p)
    return (2.0 * math.pi) ** (-0.5 * a) * sigma ** (-a) * p ** (-d / (2.0 * p))


def sphere_area_closed_form(d: int) -> float:
    return 2.0 * math.pi ** (0.5 * d) / math.gamma(0.5 * d)


# Kernel integrals I(d, p) = int_0^inf r^beta |J_nu(r)|^(p') dr, frozen from
# 30-digit mpmath arch summation with algebraic tail extrapolation
# (recipe: partition at besseljzero, mp.quad per arch, least-squares tail
# model X^(1-gamma) * poly(1/X); self-consistency across model depths and
# windows quoted as `unc`).  I(3, 6/5) has the closed form 1/pi^2,
# confirmed independently through the elementary reduction
# (8/pi^3) * int sin^6(r)/r^4 dr = (8/pi^3) * (pi/8).
KERNEL_INTEGRALS = {
    # (d, p): (value, unc)
    (2, 1.1): (0.1738307079121128, 2e-15),
    (2, 1.2): (0.3368279617664489, 1e-12),
    (2, 1.25): (0.4976810691730618, 2e-11),
    (3, 1.2): (1.0 / math.pi**2, 1e-16),
    (3, 1.4): (0.5619466956546591, 8e-9),
    (4, 1.3): (0.0683097580654046, 2e-12),
}


def sine_power_coefficient(m: int) -> Fraction:
    """c_m, exact, with int_0^inf sin^(2m)(r) / r^(2m-2) dr = pi * c_m, m >= 2.

    At d = 3, J_(1/2)(r) = sqrt(2/(pi r)) sin r, so the kernel integral at
    p' = 2m (p = 2m/(2m-1), beta = 2 - m) is (2/pi)^m * pi * c_m.  The sum
    is the classical closed form of int_0^inf sin^n(x) / x^k dx for even n
    (Gradshteyn & Ryzhik 3.82x): c_2 = 1/4 gives I(3, 4/3) = 1/pi and c_3 =
    1/8 gives I(3, 6/5) = 1/pi^2.
    """
    if m < 2:
        raise ValueError(f"the integral diverges for m < 2, got {m}")
    n = 2 * m
    total = sum(
        (-1) ** k * math.comb(n, k) * (n - 2 * k) ** (n - 3) for k in range(m + 1)
    )
    return Fraction(-total, 2**n * math.factorial(n - 3))
