"""Special functions: Gamma, sphere areas, Bessel J of real order, and its
positive zeros.

Everything downstream (Hankel-type transforms, kernel integrals, sharp
constants) reduces to these four primitives, so they are implemented here
from scratch and cross-checked in the test suite against independent
references (power-series oracles with remainder bounds, elementary
half-integer closed forms, mpmath).

Evaluation strategy for ``J_nu(x)``, ``nu >= 0``:

* power series for ``x <= 2`` (no cancellation in that range);
* elementary trigonometric closed forms for half-integer orders when
  ``x >= max(2, nu)`` (upward recurrence from ``J_{1/2}``, ``J_{-1/2}``);
* Miller's downward recurrence normalised by ``(x/2)^nu =
  sum_k (nu+2k) Gamma(nu+k)/k! J_{nu+2k}(x)`` (Abramowitz & Stegun 9.1.87)
  for the middle range;
* Hankel's large-argument expansion with a compensated phase reduction for
  ``x >= max(30, nu(nu+1))``.

The regime boundaries were chosen by measuring absolute error against
40-digit references; each regime stays below ~1e-15 absolute, comfortably
inside the 1e-12 contract, and below 1e-13 relative away from zeros.

``bessel_j`` evaluates one point; ``bessel_j_array`` evaluates many at once
and returns, element for element, exactly the double ``bessel_j`` returns:
same regimes and thresholds, same term loops with each element frozen at
the term where its scalar loop stops, same operation order.  The kernel
integrals' arch quadrature (``quadrature.integrate_oscillatory_bessel``)
and the radial transforms (``radial_fourier``) are the array path's
callers, one call per round of refinement; everything that evaluates J at
one point at a time (the zero finder, ``kernel_v``, extremal profiles, the
test oracle) stays on the scalar path.  Bit identity, not mere accuracy,
is required because the kernel integrals' tail fit amplifies 1e-16
differences in partial sums to ~1e-13 in the extrapolated value.

References: Watson, "A Treatise on the Theory of Bessel Functions";
Abramowitz & Stegun ch. 9; DLMF ch. 10; Lanczos (1964) for the Gamma
approximation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import repeat

import numpy as np

from .errors import ConvergenceError, DomainError

__all__ = [
    "BesselOrder",
    "RadialKernel",
    "gamma",
    "sphere_area",
    "bessel_j",
    "bessel_j_array",
    "bessel_j_zero",
    "bessel_j_derivative",
]

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)

# Largest x with Gamma(x) finite in double precision.
_GAMMA_OVERFLOW = 171.624376956302725

# Lanczos approximation, g = 7, n = 9.  This is the coefficient set
# published by Godfrey (2001) and reproduced in many numerical libraries;
# it delivers ~1e-13 relative error over the positive real axis, measured
# here against 40-digit references (see tests).
_LANCZOS_G = 7.0
_LANCZOS_COEFFS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def gamma(x: float) -> float:
    """Euler's Gamma function for positive real arguments.

    Raises ``DomainError`` for ``x <= 0`` and ``OverflowError`` once the
    result exceeds double-precision range (x > ~171.6); it never silently
    returns infinity.
    """
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"gamma requires x > 0, got {x!r}")
    if x > _GAMMA_OVERFLOW:
        raise OverflowError(f"gamma({x!r}) exceeds double-precision range")
    if x < 0.5:
        # Reflection keeps the Lanczos sum in its accurate region.
        return math.pi / (math.sin(math.pi * x) * gamma(1.0 - x))
    z = x - 1.0
    acc = _LANCZOS_COEFFS[0]
    for i in range(1, len(_LANCZOS_COEFFS)):
        acc += _LANCZOS_COEFFS[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    # Split the power so intermediates cannot overflow before the final
    # product does (t**(z+0.5) alone overflows near the top of the range).
    half_pow = math.pow(t, 0.5 * (z + 0.5))
    result = _SQRT_TWO_PI * acc * half_pow * math.exp(-t) * half_pow
    if math.isinf(result):
        raise OverflowError(f"gamma({x!r}) exceeds double-precision range")
    return result


def _gamma_half_integer(n: int) -> float:
    """Gamma(n/2) for integer n >= 1 by the exact recurrence.

    Used for sphere areas, where the 1e-14 relative contract is tighter
    than the general Lanczos path guarantees.
    """
    if n % 2 == 0:
        result = 1.0
        k = n // 2
        for m in range(2, k):
            result *= m
        return result
    result = math.sqrt(math.pi)
    x = 0.5
    while x + 1.0 <= n / 2.0:
        result *= x
        x += 1.0
    return result


def sphere_area(d: int) -> float:
    """Surface measure of the unit sphere in R^d: A(d) = 2 pi^(d/2) / Gamma(d/2).

    Raises ``DomainError`` from d = 344 on, where Gamma(d/2) overflows.
    """
    if int(d) != d or d < 2:
        raise DomainError(f"sphere_area requires an integer dimension >= 2, got {d!r}")
    d = int(d)
    if 0.5 * d > _GAMMA_OVERFLOW:
        raise DomainError(
            f"sphere_area requires d <= 343, where Gamma(d/2) fits a double; got {d}"
        )
    return 2.0 * math.pow(math.pi, 0.5 * d) / _gamma_half_integer(d)


def _is_half_integer(nu: float) -> bool:
    twice = 2.0 * nu
    return twice == round(twice) and int(round(twice)) % 2 == 1


@dataclass(frozen=True)
class BesselOrder:
    """A nonnegative real Bessel order."""

    nu: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.nu) or self.nu < 0.0:
            raise DomainError(f"Bessel order must be a finite real >= 0, got {self.nu!r}")


@dataclass(frozen=True)
class RadialKernel:
    """Dimension d >= 2 with its derived Bessel order (d-2)/2 and sphere area A(d)."""

    d: int
    order: BesselOrder = field(init=False)
    sphere_area: float = field(init=False)

    def __post_init__(self) -> None:
        if int(self.d) != self.d or self.d < 2:
            raise DomainError(f"dimension must be an integer >= 2, got {self.d!r}")
        object.__setattr__(self, "d", int(self.d))
        object.__setattr__(self, "order", BesselOrder((self.d - 2) / 2.0))
        object.__setattr__(self, "sphere_area", sphere_area(self.d))


def _as_nu(order: "BesselOrder | float") -> float:
    if isinstance(order, BesselOrder):
        return order.nu
    nu = float(order)
    if not math.isfinite(nu) or nu < 0.0:
        raise DomainError(f"Bessel order must be a finite real >= 0, got {order!r}")
    return nu


@lru_cache(maxsize=64)
def _gamma_order_plus_one(nu: float) -> float:
    # Gamma(nu + 1) normalises the series and Miller's sum at every point of
    # a fixed order; compute it once per order.
    return gamma(nu + 1.0)


def _bessel_series(nu: float, x: float) -> float:
    # J_nu(x) = sum_k (-1)^k (x/2)^(nu+2k) / (k! Gamma(nu+k+1))
    q = 0.25 * x * x
    term = math.pow(0.5 * x, nu) / _gamma_order_plus_one(nu)
    total = term
    for k in range(1, 400):
        term *= -q / (k * (nu + k))
        total += term
        if k > 3 and abs(term) <= 1e-18 * (abs(total) + 1e-300):
            break
    return total


def _bessel_half_integer(nu: float, x: float) -> float:
    # Upward recurrence from J_{-1/2}, J_{1/2}; stable for x >= nu.
    envelope = _SQRT_2_OVER_PI / math.sqrt(x)
    jm = envelope * math.cos(x)  # J_{-1/2}
    jc = envelope * math.sin(x)  # J_{+1/2}
    steps = int(round(nu - 0.5))
    mu = 0.5
    for _ in range(steps):
        jm, jc = jc, (2.0 * mu / x) * jc - jm
        mu += 1.0
    return jc


def _bessel_miller(nu: float, x: float) -> float:
    # Downward recurrence with the A&S 9.1.87 normalisation.
    m_start = int(x + max(nu, 1.0) + 40.0)
    if m_start % 2 == 1:
        m_start += 1
    fs = [0.0] * (m_start + 2)
    fs[m_start] = 1e-280
    inv_x = 2.0 / x
    for m in range(m_start, 0, -1):
        fs[m - 1] = (nu + m) * inv_x * fs[m] - fs[m + 1]
        if abs(fs[m - 1]) > 1e250:
            for i in range(m - 1, m_start + 2):
                fs[i] *= 1e-250
    g1 = _gamma_order_plus_one(nu)
    total = g1 * fs[0]  # c_0 = Gamma(nu+1)
    ck = (nu + 2.0) * g1  # c_1 = (nu+2) Gamma(nu+1)
    if m_start >= 2:
        total += ck * fs[2]
    k = 1
    while 2 * (k + 1) <= m_start:
        k += 1
        ck *= (nu + 2.0 * k) * (nu + k - 1.0) / ((nu + 2.0 * k - 2.0) * k)
        total += ck * fs[2 * k]
    try:
        scale = math.pow(0.5 * x, nu)
    except OverflowError:
        raise _miller_overflow(nu, x) from None
    return fs[0] * scale / total


def _miller_overflow(nu: float, x: float) -> DomainError:
    # (x/2)^nu leaves double range near orders 160-171 before the
    # normalised quotient does.
    return DomainError(
        f"J_nu(x) at nu = {nu!r}, x = {x!r}: (x/2)^nu overflows double "
        "range in the Miller normalisation"
    )


def _two_sum(a: float, b: float) -> tuple[float, float]:
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


_PI_HI = 3.141592653589793
_PI_LO = 1.2246467991473532e-16  # pi - _PI_HI to double-double accuracy


def _bessel_hankel(nu: float, x: float) -> float:
    # J_nu(x) ~ sqrt(2/(pi x)) (P cos(chi) - Q sin(chi)),
    # chi = x - (nu/2 + 1/4) pi   (DLMF 10.17.3).
    mu = 4.0 * nu * nu
    p = 1.0
    q = 0.0
    term = 1.0
    for k in range(60):
        j = 2 * k + 1
        term *= (mu - j * j) / (8.0 * x * (k + 1))
        contrib = term if ((k + 1) // 2) % 2 == 0 else -term
        if (k + 1) % 2 == 1:
            q += contrib
        else:
            p += contrib
        if abs(term) < 1e-18:
            break
    # The phase must be reduced in extended precision: the rounding of
    # x - theta*pi alone would cost ~ulp(x) radians, visible at x ~ 1000.
    theta = 0.5 * nu + 0.25
    s, e = _two_sum(x, -theta * _PI_HI)
    corr = e - theta * _PI_LO
    cos_chi = math.cos(s) - corr * math.sin(s)
    sin_chi = math.sin(s) + corr * math.cos(s)
    return _SQRT_2_OVER_PI / math.sqrt(x) * (p * cos_chi - q * sin_chi)


def _hankel_threshold(nu: float) -> float:
    return max(30.0, nu * (nu + 1.0))


def bessel_j(order: "BesselOrder | float", x: float) -> float:
    """Bessel function of the first kind of nonnegative real order at x >= 0."""
    nu = _as_nu(order)
    if not math.isfinite(x) or x < 0.0:
        raise DomainError(f"bessel_j requires x >= 0, got {x!r}")
    if x == 0.0:
        return 1.0 if nu == 0.0 else 0.0
    if x <= 2.0:
        return _bessel_series(nu, x)
    if _is_half_integer(nu) and x >= nu:
        return _bessel_half_integer(nu, x)
    if x >= _hankel_threshold(nu):
        return _bessel_hankel(nu, x)
    return _bessel_miller(nu, x)


# The array path mirrors the scalar regimes above operation for operation.
# Elementwise +, -, *, /, sqrt, sin and cos run in numpy: on x86-64 with
# numpy 2.4 they matched libm (``math``) on every one of 900,000 inputs.
# pow, exp and log stay on scalar libm: numpy's SIMD versions differ from
# it by one ulp on about 5% of inputs (exp on 49,653 and pow(x, 6.0) on
# 49,622 of 900,000), and one ulp in an arch value is enough to move a
# tight-tolerance kernel integral through its tail fit.
def _pow_each(base: np.ndarray, exponent: float) -> np.ndarray:
    return np.fromiter(
        map(math.pow, base.tolist(), repeat(exponent)), float, count=base.size
    )


def _series_array(nu: float, x: np.ndarray) -> np.ndarray:
    q = 0.25 * x * x
    term = _pow_each(0.5 * x, nu) / _gamma_order_plus_one(nu)
    total = term.copy()
    out = np.empty_like(x)
    live = np.arange(x.size)
    for k in range(1, 400):
        term *= -q / (k * (nu + k))
        total += term
        if k > 3:
            # Freeze each element at the term where its scalar loop stops.
            done = np.abs(term) <= 1e-18 * (np.abs(total) + 1e-300)
            if done.any():
                out[live[done]] = total[done]
                keep = ~done
                live, q, term, total = live[keep], q[keep], term[keep], total[keep]
                if live.size == 0:
                    return out
    out[live] = total
    return out


def _half_integer_array(nu: float, x: np.ndarray) -> np.ndarray:
    envelope = _SQRT_2_OVER_PI / np.sqrt(x)
    jm = envelope * np.cos(x)
    jc = envelope * np.sin(x)
    mu = 0.5
    for _ in range(int(round(nu - 0.5))):
        jm, jc = jc, (2.0 * mu / x) * jc - jm
        mu += 1.0
    return jc


def _miller_array(nu: float, x: np.ndarray) -> np.ndarray:
    # One downward recurrence from the largest starting index serves every
    # element: above its own m_start an element's column stays exactly
    # zero, and it is seeded with 1e-280 when the sweep reaches m_start.
    m_start = (x + max(nu, 1.0) + 40.0).astype(np.int64)
    m_start += m_start % 2
    top = int(m_start.max())
    seeds = {m: np.flatnonzero(m_start == m) for m in range(int(m_start.min()), top + 1, 2)}
    fs = np.zeros((top + 2, x.size))
    inv_x = 2.0 / x
    max_inv_x = float(inv_x.max())
    # bound >= max |fs[m]| and bound_hi >= max |fs[m + 1]|, kept in plain
    # floats so the 1e250 test runs on the array only when it can fire.
    bound = bound_hi = 0.0
    for m in range(top, 0, -1):
        seeded = seeds.get(m)
        if seeded is not None:
            fs[m, seeded] = 1e-280
            bound = max(bound, 1e-280)
        row = fs[m - 1]
        np.multiply(inv_x, nu + m, out=row)
        row *= fs[m]
        row -= fs[m + 1]
        bound, bound_hi = 1.001 * ((nu + m) * max_inv_x * bound + bound_hi), bound
        if bound > 1e250:
            big = np.abs(row) > 1e250
            if big.any():
                fs[m - 1:, big] *= 1e-250
            bound = float(np.abs(row).max())
            bound_hi = float(np.abs(fs[m]).max())
    g1 = _gamma_order_plus_one(nu)
    total = g1 * fs[0]
    ck = (nu + 2.0) * g1
    shortest = int(m_start.min())
    k = 1
    while True:
        # Term k belongs to the elements whose scalar sum reaches it.
        if 2 * k <= shortest:
            total += ck * fs[2 * k]
        else:
            total = np.where(2 * k <= m_start, total + ck * fs[2 * k], total)
        if 2 * (k + 1) > top:
            break
        k += 1
        ck *= (nu + 2.0 * k) * (nu + k - 1.0) / ((nu + 2.0 * k - 2.0) * k)
    try:
        scale = _pow_each(0.5 * x, nu)
    except OverflowError:
        raise _miller_overflow(nu, float(x.max())) from None
    return fs[0] * scale / total


def _hankel_array(nu: float, x: np.ndarray) -> np.ndarray:
    mu = 4.0 * nu * nu
    p = np.ones_like(x)
    q = np.zeros_like(x)
    term = np.ones_like(x)
    p_out = np.empty_like(x)
    q_out = np.empty_like(x)
    live = np.arange(x.size)
    xl = x
    for k in range(60):
        j = 2 * k + 1
        term *= (mu - j * j) / (8.0 * xl * (k + 1))
        contrib = term if ((k + 1) // 2) % 2 == 0 else -term
        if (k + 1) % 2 == 1:
            q += contrib
        else:
            p += contrib
        done = np.abs(term) < 1e-18
        if done.any():
            p_out[live[done]] = p[done]
            q_out[live[done]] = q[done]
            keep = ~done
            live, xl, p, q, term = live[keep], xl[keep], p[keep], q[keep], term[keep]
            if live.size == 0:
                break
    p_out[live] = p
    q_out[live] = q
    theta = 0.5 * nu + 0.25
    shift = -theta * _PI_HI
    s = x + shift
    bb = s - x
    corr = ((x - (s - bb)) + (shift - bb)) - theta * _PI_LO
    cos_s = np.cos(s)
    sin_s = np.sin(s)
    cos_chi = cos_s - corr * sin_s
    sin_chi = sin_s + corr * cos_s
    return _SQRT_2_OVER_PI / np.sqrt(x) * (p_out * cos_chi - q_out * sin_chi)


# Smallest batch for which each array regime beats its scalar loop, measured
# on one core of a 2-vCPU x86-64 VM (Python 3.11, numpy 2.4).
_MIN_ARRAY_BATCH = {
    _series_array: 32,
    _half_integer_array: 8,
    _hankel_array: 48,
    _miller_array: 24,
}


def bessel_j_array(order: "BesselOrder | float", x) -> np.ndarray:
    """J_nu at every point of the array ``x`` (all >= 0).

    Each element equals ``bessel_j(order, x_i)`` exactly, not just to
    rounding: the regimes, thresholds, term loops and operation order are
    those of the scalar path.
    """
    nu = _as_nu(order)
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    if flat.size == 0:
        return np.empty_like(x)
    # bessel_j's regimes are consecutive intervals of x, so on sorted
    # points each regime is one slice.
    perm = np.argsort(flat, kind="stable")
    xs = flat[perm]
    if not (xs[0] >= 0.0 and xs[-1] < math.inf):
        raise DomainError("bessel_j_array requires finite x >= 0")
    zero_end = int(np.searchsorted(xs, 0.0, "right"))
    series_end = int(np.searchsorted(xs, 2.0, "right"))
    if _is_half_integer(nu):
        upper = (_half_integer_array, _bessel_half_integer)
        miller_end = int(np.searchsorted(xs, nu, "left"))
    else:
        upper = (_hankel_array, _bessel_hankel)
        miller_end = int(np.searchsorted(xs, _hankel_threshold(nu), "left"))
    miller_end = max(miller_end, series_end)
    slices = (
        (zero_end, series_end, _series_array, _bessel_series),
        (series_end, miller_end, _miller_array, _bessel_miller),
        (miller_end, xs.size) + upper,
    )
    values = np.empty_like(xs)
    values[:zero_end] = 1.0 if nu == 0.0 else 0.0
    # Python floats overflow to inf silently; so do these arrays.
    with np.errstate(all="ignore"):
        for lo, hi, array_fn, scalar_fn in slices:
            if hi - lo >= _MIN_ARRAY_BATCH[array_fn]:
                values[lo:hi] = array_fn(nu, xs[lo:hi])
            elif hi > lo:
                # Below these sizes the per-step numpy overhead costs more
                # than the scalar loop; both give the same doubles.
                values[lo:hi] = [scalar_fn(nu, v) for v in xs[lo:hi].tolist()]
    out = np.empty_like(flat)
    out[perm] = values
    return out.reshape(x.shape)


def bessel_j_derivative(order: "BesselOrder | float", x: float) -> float:
    """d/dx J_nu(x) via J_nu'(x) = (nu/x) J_nu(x) - J_{nu+1}(x).

    This identity form avoids orders below zero, which this module does
    not support.
    """
    nu = _as_nu(order)
    if x <= 0.0:
        raise DomainError("bessel_j_derivative requires x > 0")
    return (nu / x) * bessel_j(nu, x) - bessel_j(nu + 1.0, x)


def _mcmahon_guess(nu: float, k: int) -> float:
    # McMahon's expansion for the k-th positive zero (A&S 9.5.12).
    beta = (k + 0.5 * nu - 0.25) * math.pi
    mu = 4.0 * nu * nu
    b8 = 8.0 * beta
    guess = beta - (mu - 1.0) / b8
    guess -= 4.0 * (mu - 1.0) * (7.0 * mu - 31.0) / (3.0 * b8**3)
    guess -= 32.0 * (mu - 1.0) * (83.0 * mu * mu - 982.0 * mu + 3779.0) / (15.0 * b8**5)
    return guess


@lru_cache(maxsize=None)
def _bessel_zero_cached(nu: float, k: int) -> float:
    guess = _mcmahon_guess(nu, k)
    lo = guess - 1.5
    hi = guess + 1.5
    if k == 1:
        # First zero sits above max(nu, small); keep the bracket positive.
        lo = max(lo, 0.25 * guess, 1e-8)
    x = guess
    for _ in range(40):
        fx = bessel_j(nu, x)
        dfx = bessel_j_derivative(nu, x)
        if dfx == 0.0:
            break
        step = fx / dfx
        x_new = x - step
        if not lo < x_new < hi:
            break
        x = x_new
        if abs(step) <= 1e-15 * x:
            fx = bessel_j(nu, x)
            if abs(fx) <= 1e-12:
                return x
    # Bisection fallback on a sign change straddling the zero.
    lo, hi = _bracket_zero(nu, guess)
    flo = bessel_j(nu, lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fmid = bessel_j(nu, mid)
        if fmid == 0.0:
            return mid
        if (flo < 0.0) != (fmid < 0.0):
            hi = mid
        else:
            lo, flo = mid, fmid
        if hi - lo <= 1e-15 * hi:
            break
    return 0.5 * (lo + hi)


def _bracket_zero(nu: float, guess: float) -> tuple[float, float]:
    # Zeros of J_nu are simple and at least ~pi/2 apart near the guess.
    width = 0.4
    while width < 4.0:
        lo = max(guess - width, 1e-8)
        hi = guess + width
        if bessel_j(nu, lo) * bessel_j(nu, hi) < 0.0:
            return lo, hi
        width *= 1.6
    raise ConvergenceError(f"could not bracket a zero of J_{nu} near {guess}")


def bessel_j_zero(order: "BesselOrder | float", k: int) -> float:
    """The k-th positive zero of J_nu (k >= 1), strictly increasing in k."""
    nu = _as_nu(order)
    if int(k) != k or k < 1:
        raise DomainError(f"zero index must be an integer >= 1, got {k!r}")
    return _bessel_zero_cached(nu, int(k))
