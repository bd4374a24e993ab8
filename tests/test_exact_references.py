"""Kernel integrals at d = 3 against exact values, for every even p'.

At d = 3 the kernel integral at p' = 2m (p = 2m/(2m-1), beta = 2 - m) is
I_m = (2/pi)^m * pi * c_m with c_m rational (``oracles.sine_power_coefficient``).
All 59 exponents m = 2..60 run as one block of ``evaluate_grid``, the
widest block in the suite, and each must meet

    |value - I_m| <= error_estimate + shift_m,

or end in ``ConvergenceError`` with its sum stopped at the first
checkpoint.  ``shift_m`` bounds how far the exact integral moves between
(2 - m, 2m) and the (beta, p') that production forms from the double p:
both are off by up to ~3e-13, which at m = 14 and 16 is more than the
error estimate.  It is derived below from the integrand itself; nothing
else is loosened.  The points m = 34..60 at ``tol = 1e-9``, and m = 15 and
22..60 at ``tol = 1e-12``, end in ``ConvergenceError``: their values lie
far below 1, and the absolute 1e-16 floor of each arch keeps the arches'
own error above the tolerance from the first checkpoint on, which ends
the sum there.

For any p, not only p' = 2m, the integral is one Hurwitz zeta integral
(``oracles.hurwitz_kernel_integral``), frozen in ``oracles.D3_HURWITZ`` at
production's own (beta, p'), so it needs no shift; each converged point
must meet |value - I| <= error_estimate.

At p = 4/3 (p' = 4) the integral has a closed form in every dimension,
``oracles.sphere_convolution_kernel_2``; production's value must lie within
its error estimate of it for d = 3..11.  Its p' and beta are off by a few
ulps there too, which moves the value far less than the estimate.

At p = 6/5 (p' = 6) it is the squared L_2 norm of sigma * sigma * sigma,
two nested mpmath quadratures (``oracles.sphere_convolution_kernel_3``),
frozen for d = 2..8 in ``oracles.SPHERE_CONVOLUTION_3``.  The double 1.2
gives p' = 6.000000000000001 and a beta a few ulps off 5 - 2d, so
production's value must lie within its error estimate plus a shift that
bounds that move.
"""

import math
from fractions import Fraction
from functools import lru_cache

import mpmath as mp
import pytest

from sphrestrict import quadrature, restriction
from sphrestrict.errors import ConvergenceError
from sphrestrict.quadrature import (
    OscillatoryIntegrand,
    integrate_oscillatory_bessel,
    integrate_oscillatory_bessel_block,
)
from sphrestrict.restriction import RestrictionParams, SharpConstantResult, evaluate_grid
from sphrestrict.special_fns import BesselOrder

from oracles import (
    D3_HURWITZ,
    KERNEL_INTEGRALS,
    SPHERE_CONVOLUTION_3,
    hurwitz_kernel_integral,
    sine_power_coefficient,
    sphere_convolution_kernel_2,
    sphere_convolution_kernel_3,
)

M = range(2, 61)
LOG_HALF_PI = math.log(0.5 * math.pi)


def exact_integral(m):
    """I_m = 2^m c_m pi^(1 - m), within 4e-15 relative: one rounding of
    the rational 2^m c_m, and pi^(1 - m) in doubles."""
    return float(2**m * sine_power_coefficient(m)) * math.pi ** (1 - m)


def shift_bound(m, params):
    """|I(beta, p') - I_m| / I_m for production's (beta, p'), to first order.

    With g = |sin r| / r, the integrand at (2 - p'/2, p') is
    (2/pi)^(p'/2) g^(p') r^2, and w ~ g^(2m) r^2 is the weight of the
    exact point, Z = int w = pi c_m.  Two directions:

    * along beta = 2 - p'/2, d log I / d p' = log(2/pi)/2 + E_w[log g].
      On r <= pi/2, -log g <= log(pi/2); past it g^(2m) r^2 <= r^(2-2m),
      and |sin|^(2m) (-log|sin|) <= 1/(2 m e).  So with L = pi/2 and
      a = 2m - 3, |d log I / d p'| <= S =
      (3/2) log L + L^(-a) (log L / a + 1/a^2 + 1/(2 m e a)) / Z;
    * in beta at fixed p', d log I / d beta = E_w[log r], and
      int_0^1 r^2 |log r| = 1/9, int_1^inf r^(2-2m) log r = 1/a^2, so
      |d log I / d beta| <= B = (1/9 + 1/a^2) / Z.

    Production's point is p' = 2m + dp, beta = 2 - p'/2 + off, both exact
    as rationals of the doubles.  Over a segment that short the weight,
    and with it both derivatives, moves by a relative ~1e-12; the factor
    2 covers that, and 4e-15 covers the rounding of ``exact_integral``.
    """
    a = 2 * m - 3
    z = math.pi * float(sine_power_coefficient(m))
    tail = (0.5 * math.pi) ** (-a) * (LOG_HALF_PI / a + 1 / a**2 + 1 / (2 * m * math.e * a))
    s = 1.5 * LOG_HALF_PI + tail / z
    b = (1 / 9 + 1 / a**2) / z
    p_prime = Fraction(params.p_prime)
    dp = abs(float(p_prime - 2 * m))
    off = abs(float(Fraction(params.beta) - (2 - p_prime / 2)))
    return 2.0 * (s * dp + b * off) + 4e-15


def test_coefficients_match_the_known_closed_forms():
    assert sine_power_coefficient(2) == Fraction(1, 4)  # I(3, 4/3) = 1/pi
    assert sine_power_coefficient(3) == Fraction(1, 8)  # I(3, 6/5) = 1/pi^2
    assert exact_integral(3) == pytest.approx(1 / math.pi**2, rel=1e-15)


# The m whose integral cannot reach each tol (see the module docstring),
# and the most evaluations m = 2 and m = 5 may take at 1e-12.
FLOORED = {1e-9: set(range(34, 61)), 1e-12: {15, *range(22, 61)}}
WORK_AT_1E_12 = {2: 10_000, 5: 2_000}
FIRST_CHECKPOINT = quadrature._POSITIVE[0]


def recorded_sums(monkeypatch):
    """The list that every ``_CellSum`` made from now on joins."""
    sums = []

    class Recorded(quadrature._CellSum):
        def __init__(self, *args):
            super().__init__(*args)
            sums.append(self)

    monkeypatch.setattr(quadrature, "_CellSum", Recorded)
    return sums


@pytest.mark.parametrize("tol", [1e-9, 1e-12])
def test_every_even_power_in_one_block(monkeypatch, tol):
    grid = [RestrictionParams(3, 2 * m / (2 * m - 1), 2.0) for m in M]
    monkeypatch.setattr(restriction, "_KERNEL_INTEGRALS", {})
    sums = recorded_sums(monkeypatch)
    points = evaluate_grid(grid, tol)
    assert len(sums) == len(M)
    failed = set()
    for m, point, cell_sum in zip(M, points, sums):
        if isinstance(point.sharp, ConvergenceError):
            assert len(cell_sum.partial) <= FIRST_CHECKPOINT, m
            failed.add(m)
            continue
        assert isinstance(point.sharp, SharpConstantResult), (m, point.errors)
        quad = point.sharp.kernel_integral
        exact = exact_integral(m)
        assert quad.converged
        shift = shift_bound(m, point.params) * exact
        assert abs(quad.value - exact) <= quad.error_estimate + shift, m
        if tol == 1e-12 and m in WORK_AT_1E_12:
            assert quad.evaluations <= WORK_AT_1E_12[m], m
    assert failed <= FLOORED[tol]


def test_hurwitz_recipe_reproduces_the_closed_forms():
    assert hurwitz_kernel_integral(0.0, 4.0) == pytest.approx(1 / mp.pi, rel=1e-25)
    assert hurwitz_kernel_integral(-1.0, 6.0) == pytest.approx(1 / mp.pi**2, rel=1e-25)
    beta, p_prime, value = D3_HURWITZ[1.4]
    assert float(hurwitz_kernel_integral(beta, p_prime)) == value


@lru_cache(maxsize=None)
def hurwitz_block(tol):
    """Production's kernel integral at every ``D3_HURWITZ`` point, one block."""
    specs = []
    for p, (beta, p_prime, _) in D3_HURWITZ.items():
        params = RestrictionParams(3, p, 2.0)
        assert (params.beta, params.p_prime) == (beta, p_prime), p
        specs.append(OscillatoryIntegrand(BesselOrder(0.5), beta, p_prime))
    return dict(zip(D3_HURWITZ, integrate_oscillatory_bessel_block(specs, tol)))


# At tol = 1e-12, p = 1.02 (I ~ 1.8e-7) meets the absolute arch floor and
# does not converge.  At p = 1.05 the estimate misses by 0.6%: the value
# is 82 ulps below I, all of it from the integrand, whose J_(1/2) is ~3 ulps
# low below r = 2 (the series regime divides by Gamma(3/2), 3.4 ulps high),
# raised to the power p' = 21; no term of the estimate accounts for it.
HURWITZ_CASES = [
    pytest.param(
        p, tol,
        marks=pytest.mark.xfail(
            strict=True, reason="Bessel error amplified by p' = 21 exceeds the estimate"
        ),
    ) if (p, tol) == (1.05, 1e-12) else (p, tol)
    for tol in (1e-9, 1e-12)
    for p in D3_HURWITZ
    if (p, tol) != (1.02, 1e-12)
]


@pytest.mark.parametrize("p, tol", HURWITZ_CASES)
def test_error_estimate_covers_the_hurwitz_value(p, tol):
    quad = hurwitz_block(tol)[p]
    exact = D3_HURWITZ[p][2]
    assert quad.converged
    assert abs(quad.value - exact) <= quad.error_estimate


def test_small_integral_does_not_converge_at_1e_12(monkeypatch):
    # The arches' own error fails the tolerance at the first checkpoint,
    # which ends the sum there: 510 evaluations, where running to the last
    # checkpoint took 12,150.
    quad = hurwitz_block(1e-12)[1.02]
    assert not quad.converged
    sums = recorded_sums(monkeypatch)
    beta, p_prime, _ = D3_HURWITZ[1.02]
    spec = OscillatoryIntegrand(BesselOrder(0.5), beta, p_prime)
    assert integrate_oscillatory_bessel(spec, 1e-12) == quad
    (cell_sum,) = sums
    assert len(cell_sum.partial) <= FIRST_CHECKPOINT
    assert quad.evaluations <= 600


def test_sphere_convolution_recipe_reproduces_the_closed_forms():
    assert sphere_convolution_kernel_2(3) == pytest.approx(1 / mp.pi, rel=1e-25)
    assert sphere_convolution_kernel_2(4) == pytest.approx(1 / mp.pi**2, rel=1e-25)


# At d = 12 and 16 the value, 5.8e-9 and 8.4e-14, is too small for the
# absolute 1e-16 floor of each arch (ROADMAP item 1): the sum's own error
# fails the tolerance and the integral ends unconverged.
@pytest.mark.parametrize("d", [
    *range(3, 12),
    *(pytest.param(d, marks=pytest.mark.xfail(
        strict=True, reason="the absolute arch floor keeps a value this small unconverged"
    )) for d in (12, 16)),
])
def test_error_estimate_covers_the_p_4_3_closed_form(d):
    params = RestrictionParams(d, 4 / 3, 2.0)
    spec = OscillatoryIntegrand(BesselOrder(0.5 * d - 1), params.beta, params.p_prime)
    (quad,) = integrate_oscillatory_bessel_block([spec], 1e-9)
    assert quad.converged
    assert abs(quad.value - sphere_convolution_kernel_2(d)) <= quad.error_estimate


def test_sphere_convolution_3_recipe_reproduces_the_closed_form():
    with mp.workdps(20):
        assert abs(sphere_convolution_kernel_3(3) * mp.pi**2 - 1) < 1e-19
    assert SPHERE_CONVOLUTION_3[3][0] == 1 / math.pi**2
    value, unc = KERNEL_INTEGRALS[(2, 1.2)]
    assert abs(SPHERE_CONVOLUTION_3[2][0] - value) <= unc


def convolution_shift(d, params):
    """A bound on |I(beta, p') - I_3(d)| for production's (beta, p').

    Along the segment from (5 - 2d, 6) to (beta, p'), the integral is
    convex (int exp(beta log r + p' log |J|) is log-convex), so its change
    lies between the segment's slope at either end.  At (5 - 2d, 6) that
    slope is at most |dbeta| int w |log r| + |dp'| int w (-log |J|), the
    frozen moments; across a segment a few ulps long the weight, and with it
    the slope, moves by a relative ~1e-14, which the factor 2 covers.  One
    rounding of the frozen value adds 2^-52 of it."""
    exact, log_r, log_j = SPHERE_CONVOLUTION_3[d]
    dp = abs(float(Fraction(params.p_prime) - 6))
    dbeta = abs(float(Fraction(params.beta) - (5 - 2 * d)))
    return 2.0 * (dbeta * log_r + dp * log_j) + 2.0**-52 * exact


# The (d, tol) whose value is too small for the absolute 1e-16 floor of
# each arch (ROADMAP item 1): the arches' own summed error fails the
# tolerance at the first checkpoint, and the integral ends unconverged.
P_6_5_FLOORED = {(8, 1e-9), (6, 1e-12), (7, 1e-12), (8, 1e-12)}


@pytest.mark.parametrize("d, tol", [
    pytest.param(d, tol, marks=pytest.mark.xfail(
        strict=True, reason="the absolute arch floor keeps a value this small unconverged"
    )) if (d, tol) in P_6_5_FLOORED else (d, tol)
    for tol in (1e-9, 1e-12)
    for d in SPHERE_CONVOLUTION_3
])
def test_error_estimate_covers_the_p_6_5_value(d, tol):
    params = RestrictionParams(d, 1.2, 2.0)
    spec = OscillatoryIntegrand(BesselOrder(0.5 * d - 1), params.beta, params.p_prime)
    (quad,) = integrate_oscillatory_bessel_block([spec], tol)
    exact = SPHERE_CONVOLUTION_3[d][0]
    assert quad.converged
    assert abs(quad.value - exact) <= quad.error_estimate + convolution_shift(d, params)
