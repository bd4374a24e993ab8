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

import numpy as np


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


def at_point(ufunc, *args: float) -> float:
    """The numpy ufunc at one point, on one-element arrays.  The library
    applies numpy's elementwise pow, exp and log to whole node arrays, and
    such a ufunc gives a point the same double whatever array holds it, so
    a node-by-node reference built on this equals the array path with
    ``==``."""
    with np.errstate(all="ignore"):
        return float(ufunc(*(np.array([x], dtype=float) for x in args))[0])


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


def sphere_convolution_kernel_2(d: int, dps: int = 30):
    """The kernel integral at p = 4/3 (p' = 4) in dimension d >= 3, exact,
    as an mpmath number:

        I_2(d) = (2 pi)^(-d) A(d-1)^2 2^(d-3) B(nu, 2 nu),  nu = (d - 2)/2,

    A(n) = 2 pi^(n/2) / Gamma(n/2) the area of the unit sphere in R^n.  By
    Plancherel, int |sigma_hat|^4 is the squared L_2 norm of sigma * sigma,
    whose density is elementary (Foschi 2015); it gives 1/pi at d = 3 and
    1/pi^2 at d = 4.
    """
    import mpmath as mp

    with mp.workdps(dps):
        nu = mp.mpf(d - 2) / 2
        area = 2 * mp.pi ** (mp.mpf(d - 1) / 2) / mp.gamma(mp.mpf(d - 1) / 2)
        return (2 * mp.pi) ** (-d) * area**2 * mp.mpf(2) ** (d - 3) * mp.beta(nu, 2 * nu)


def sphere_convolution_kernel_3(d: int, dps: int = 20):
    """The kernel integral at p = 6/5 (p' = 6) in dimension d >= 2, as an
    mpmath number, by two nested quadratures:

        I_3(d) = (2 pi)^(-2d) int_0^3 s3(r)^2 r^(d-1) dr,

    where s3 is the density of sigma * sigma * sigma, sigma the surface
    measure of S^(d-1), at radius r.  By Plancherel int |sigma_hat|^6 is
    (2 pi)^d ||s3||_2^2, and int |sigma_hat|^6 = (2 pi)^(3d) A(d) I_3(d).
    With the sigma * sigma density G(R) = A(d-1) (1 - R^2/4)^e / R on
    0 < R < 2 (Foschi 2015), e = (d - 3)/2 and t = (r^2 + 1 - R^2)/(2r),

        s3(r) = (A(d-1) / r) int G(R) (1 - t^2)^e R dR,  |r - 1| < R < min(r + 1, 2),

    and (1 - R^2/4)(1 - t^2) is a product of six linear factors in R.  Two
    of them vanish at each end of the R range, as s (s + c) in the distance
    s from that end, c = 2|r - 1| or |r - 1|: each half of the range is
    integrated in w, s = c sinh(w)^2, which takes (s (s + c))^e ds to the
    smooth 2 c^(2e+1) (sinh w cosh w)^(2e+1) dw even as r -> 1, where s3
    has a log singularity at d = 2.  At d = 3, e = 0 and the recipe gives
    1/pi^2.
    """
    import mpmath as mp

    with mp.workdps(dps):
        e = mp.mpf(d - 3) / 2
        area = 2 * mp.pi ** (mp.mpf(d - 1) / 2) / mp.gamma(mp.mpf(d - 1) / 2)

        def s3(r):
            a, b = abs(r - 1), min(r + 1, mp.mpf(2))
            half = (b - a) / 2

            def from_end(c, rest):
                def h(w):
                    sh, ch = mp.sinh(w), mp.cosh(w)
                    return 2 * c * sh * ch * (c * sh * ch) ** (2 * e) * rest(c * sh * sh) ** e

                return mp.quad(h, [0, mp.asinh(mp.sqrt(half / c))])

            def near_a(s):  # R = a + s: (R - a)(R + a) = s (s + 2a)
                big = a + s
                return (2 - big) * (2 + big) * (r + 1 - big) * (r + 1 + big) / (16 * r * r)

            def near_b(s):  # R = b - s: (2 - R)(r + 1 - R) = s (s + a)
                big = b - s
                return (2 + big) * (r + 1 + big) * (big - a) * (big + a) / (16 * r * r)

            return area**2 / r * (from_end(2 * a, near_a) + from_end(a, near_b))

        return (2 * mp.pi) ** (-2 * d) * mp.quad(lambda r: s3(r) ** 2 * r ** (d - 1), [0, 1, 3])


def kernel_log_moments_3(d: int, arches: int = 40, dps: int = 15):
    """Upper bounds on int w |log r| dr and int w (-log |J_nu|) dr, w = r^beta
    |J_nu(r)|^6 the integrand of I_3(d), beta = 5 - 2d: the derivatives of
    the kernel integral in beta and in p' are at most these in magnitude
    (|J_nu| <= 1).  mpmath sums the first ``arches`` arches; past their end
    X, |J_nu(r)|^2 <= 2 * 2/(pi r) (twice the leading term of DLMF 10.18.17,
    for nu <= 3 and X > 100) and |J|^6 (-log |J|) <= |J|^5 / e bound the
    tails in closed form."""
    import mpmath as mp

    with mp.workdps(dps):
        nu = mp.mpf(d - 2) / 2

        def w(r):
            return r ** (5 - 2 * d) * mp.besselj(nu, r) ** 6

        edges = [mp.mpf(0)] + [mp.besseljzero(nu, k) for k in range(1, arches + 1)]
        log_r = log_j = mp.mpf(0)
        for a, b in zip(edges, edges[1:]):
            log_r += mp.quad(lambda r: w(r) * abs(mp.log(r)), [a, 1, b] if a < 1 < b else [a, b])
            log_j -= mp.quad(lambda r: w(r) * mp.log(abs(mp.besselj(nu, r))), [a, b])
        x, s = edges[-1], 2 * d - 3
        log_r += 8 * (2 / mp.pi) ** 3 * x ** (-s) * (mp.log(x) / s + mp.mpf(1) / s**2)
        log_j += (4 / mp.pi) ** 2.5 / mp.e * x ** (3.5 - 2 * d) / (2 * d - 3.5)
        return log_r, log_j


# d: (I_3(d), int w |log r|, int w (-log |J_nu|)) at p' = 6, beta = 5 - 2d.
# I_3 = float(sphere_convolution_kernel_3(d, 30)), which agrees with the
# 20-digit run to 3e-21 relative; d = 3 is 1/pi^2 and d = 2 agrees with
# KERNEL_INTEGRALS[(2, 1.2)].  The two moments are kernel_log_moments_3(d)
# rounded up to three digits.  Recompute with 5-25 s a point.
SPHERE_CONVOLUTION_3 = {
    2: (0.3368279617664489, 0.343, 0.205),
    3: (0.10132118364233778, 0.0370, 0.0490),
    4: (0.011722710384379281, 0.00477, 0.00837),
    5: (0.0006810978889310662, 0.000385, 0.000616),
    6: (2.358001692625945e-05, 1.75e-05, 2.53e-05),
    7: (5.401251996332958e-07, 4.86e-07, 6.59e-07),
    8: (8.778378094216389e-09, 9.14e-09, 1.20e-08),
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


def hurwitz_kernel_integral(beta: float, p_prime: float, dps: int = 30, split: int = 2):
    """The d = 3 kernel integral at any (beta, p'), as an mpmath number.

    J_(1/2)(r) = sqrt(2/(pi r)) sin r, so with a = p' the integrand is
    (2/pi)^(a/2) r^(-s) |sin r|^a, s = a/2 - beta.  Folding every arch
    [k pi, (k+1) pi] onto [0, pi] with r = u + k pi sums r^(-s) into the
    Hurwitz zeta function:

        I = (2/pi)^(a/2) pi^(-s) int_0^pi sin^a(u) zeta(s, u/pi) du,

    one finite integral, with no arch summation and no tail model.  It
    converges for s > 1 (inside the window) and a - s > -1.  ``split``
    panels of equal width; the value at (40 digits, 4 panels) against
    (30, 2) is the uncertainty quoted with ``D3_HURWITZ``.
    """
    import mpmath as mp

    with mp.workdps(dps):
        a = mp.mpf(p_prime)
        s = a / 2 - mp.mpf(beta)
        panels = [mp.pi * k / split for k in range(split + 1)]
        folded = mp.quad(lambda u: mp.sin(u) ** a * mp.zeta(s, u / mp.pi), panels)
        return (2 / mp.pi) ** (a / 2) * mp.pi ** (-s) * folded


# p: (beta, p', I) at d = 3, I = float(hurwitz_kernel_integral(beta, p')) at
# the doubles beta and p' that ``RestrictionParams(3, p, q)`` forms: near
# the window edge I ~ 1/(p' - 3), and rounding p' alone would move I by
# ~1e-9.  Each value agrees with the (40 digits, 4 panels) run to 5e-30
# relative; p = 1.2 gives 1/pi^2 and 4/3 gives 1/pi to the shift of their
# doubles.  Recompute with [(p, *v[:2], float(hurwitz_kernel_integral(*v[:2])))
# for p, v in D3_HURWITZ.items()], 0.5-2 s a point.
D3_HURWITZ = {
    1.02: (-23.49999999999998, 50.99999999999996, 1.7576267920731397e-07),
    1.05: (-8.49999999999999, 20.999999999999982, 0.0005695743247293998),
    1.1: (-3.4999999999999956, 10.999999999999991, 0.013901569857849298),
    1.2: (-1.000000000000001, 6.000000000000001, 0.10132118364233773),
    1.3: (-0.16666666666666605, 4.333333333333333, 0.2478799774687696),
    1.4: (0.24999999999999972, 3.5000000000000004, 0.5619466956544139),
    1.45: (0.3888888888888888, 3.2222222222222223, 1.1178068269953865),
    1.49: (0.47959183673469385, 3.0408163265306123, 5.440729605731254),
    1.4999: (0.49979995999199844, 3.000400080016003, 539.0044741741326),
    1.499999: (0.49999799999600014, 3.0000040000079995, 53895.125857439954),
}
