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

``bessel_j_array`` is the one implementation: it takes one order, or one
per point, a value depends only on its own order and point, each
distinct (order, point) of a call is valued once, and ``bessel_j`` is a
one-point call of it.  A regime values the points of all the orders of
a call in one pass, so a call of several orders costs about what one
order's call does.  The zero finder values J_nu and J_{nu+1} of all its
live iterates in one call per Newton step; ``find_first_zeros`` finds
the first chunk of zeros of every order a grid needs in one such run,
and ``bessel_j_zero`` the later chunks order by order, both through
``_next_zeros``.  A call of J that raises just raises; ``_next_zeros``
is the one place that isolates a failing order, by splitting its run
down to the zero whose iterate raised.  The arch
quadrature and the transforms value J once per round of refinement.
All arithmetic on the points is numpy's elementwise, with (x/2)^nu
(``np.power``) and Gamma(nu + 1) taken once per order, which gives a
point the same double whatever array holds it.
Every value is pinned bit for bit in the tests, so that repeat runs give
the same bytes: the kernel integrals' tail fit amplifies 1e-16
differences in partial sums to ~1e-13 in the extrapolated value.

References: Watson, "A Treatise on the Theory of Bessel Functions";
Abramowitz & Stegun ch. 9; DLMF ch. 10; Lanczos (1964) for the Gamma
approximation.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

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
    "find_first_zeros",
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


def _replace_validated(record, **changes):
    """``_replace`` of a record whose ``__new__`` validates: the copy is built by
    ``__new__`` from its changed inputs, its leading fields, so derived fields follow."""
    names = record._fields[:len(record.__getnewargs__())]
    if not changes.keys() <= set(names):
        raise ValueError(f"{type(record).__name__} replaces only {names}, got {sorted(changes)}")
    return type(record)(*(changes.get(name, value) for name, value in zip(names, record)))


class BesselOrder(NamedTuple("BesselOrder", [("nu", float)])):
    """A nonnegative real Bessel order."""

    __slots__ = ()
    _replace = _replace_validated

    def __new__(cls, nu: float) -> "BesselOrder":
        if not math.isfinite(nu) or nu < 0.0:
            raise DomainError(f"Bessel order must be a finite real >= 0, got {nu!r}")
        return super().__new__(cls, nu)


class RadialKernel(
    NamedTuple("RadialKernel", [("d", int), ("order", BesselOrder), ("sphere_area", float)])
):
    """Dimension d >= 2 with its derived Bessel order (d-2)/2 and sphere area A(d)."""

    __slots__ = ()
    _replace = _replace_validated

    def __new__(cls, d: int) -> "RadialKernel":
        if int(d) != d or d < 2:
            raise DomainError(f"dimension must be an integer >= 2, got {d!r}")
        d = int(d)
        return super().__new__(cls, d, BesselOrder((d - 2) / 2.0), sphere_area(d))

    def __getnewargs__(self) -> tuple:
        return (self.d,)


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
    try:
        return gamma(nu + 1.0)
    except OverflowError:
        raise DomainError(
            f"J_nu(x) at nu = {nu!r}: Gamma(nu + 1) overflows double range"
        ) from None


_PI_HI = 3.141592653589793
_PI_LO = 1.2246467991473532e-16  # pi - _PI_HI to double-double accuracy


def _order_runs(nu, size: int) -> list:
    """``(lo, hi, order)`` for each run of points of one order: ``nu`` is
    one order for all ``size`` points, or one per point in ascending order."""
    if not isinstance(nu, np.ndarray):
        return [(0, size, nu)]
    cuts = [0, *(np.flatnonzero(nu[1:] != nu[:-1]) + 1).tolist(), size]
    return [(lo, hi, float(nu[lo])) for lo, hi in zip(cuts, cuts[1:])]


def _each_order(f, nu, x: np.ndarray):
    """``f(order, x)`` of each order's points, as one array over ``x``.  A
    regime takes its power of x/2 and Gamma(nu + 1) this way, so that a
    value is the one its order gets alone: numpy's power takes fast paths
    for some scalar exponents (0.5, 2, ...) that an array of them does not."""
    if not isinstance(nu, np.ndarray):
        return f(nu, x)
    out = np.empty_like(x)
    for lo, hi, order in _order_runs(nu, x.size):
        out[lo:hi] = f(order, x[lo:hi])
    return out


def _rows(table: np.ndarray) -> list:
    """The rows of a table indexed by its first axis, as Python floats
    when it has one axis: a numpy scalar costs each ufunc call it enters
    ~0.2 us more than a float."""
    return table.tolist() if table.ndim == 1 else list(table)


# Each regime takes one order, or one per point in ascending order, and
# runs every element's own arithmetic: the same doubles whatever else the
# call holds.


def _series_array(nu, x: np.ndarray) -> np.ndarray:
    # J_nu(x) = sum_k (-1)^k (x/2)^(nu+2k) / (k! Gamma(nu+k+1)), each
    # element summed until its own term is below 1e-18 of its sum.
    q = 0.25 * x * x
    term = _each_order(
        lambda order, x: np.power(0.5 * x, order) / _gamma_order_plus_one(order), nu, x
    )
    total = term.copy()
    out = np.empty_like(x)
    live = np.arange(x.size)
    for k in range(1, 400):
        term *= -q / (k * (nu + k))
        total += term
        if k > 3:
            done = np.abs(term) <= 1e-18 * (np.abs(total) + 1e-300)
            if done.any():
                out[live[done]] = total[done]
                keep = ~done
                live, q, term, total = live[keep], q[keep], term[keep], total[keep]
                if isinstance(nu, np.ndarray):
                    nu = nu[keep]
                if live.size == 0:
                    return out
    out[live] = total
    return out


def _half_integer_array(nu, x: np.ndarray) -> np.ndarray:
    # Upward recurrence from J_{-1/2}, J_{1/2}; stable for x >= nu.
    def upward(order: float, x: np.ndarray) -> np.ndarray:
        envelope = _SQRT_2_OVER_PI / np.sqrt(x)
        jm = envelope * np.cos(x)
        jc = envelope * np.sin(x)
        mu = 0.5
        for _ in range(int(round(order - 0.5))):
            jm, jc = jc, (2.0 * mu / x) * jc - jm
            mu += 1.0
        return jc

    return _each_order(upward, nu, x)


def _miller_array(nu, x: np.ndarray) -> np.ndarray:
    # Downward recurrence from m_start = x + max(nu, 1) + 40, rounded up to
    # even, normalised by the A&S 9.1.87 sum.  One sweep from the largest
    # m_start serves every element: above its own m_start an element's
    # column stays exactly zero, and it is seeded with 1e-280 there.  The
    # sweep runs ~70-120 rows whatever the width, so a row costs three
    # in-place ufunc calls on views made once, and the elements seeded at
    # each even m are a slice of one stable sort by m_start.  Gamma(nu + 1)
    # and (x/2)^nu, which can leave double range, come first, order by
    # order: an order that fails costs no sweep, and the lowest one raises
    # what it raises alone.

    def half_x_power(order: float, x: np.ndarray) -> np.ndarray:
        _gamma_order_plus_one(order)
        power = np.power(0.5 * x, order)
        if np.isinf(power).any():
            # (x/2)^nu leaves double range near orders 160-171 before the
            # normalised quotient does.
            raise DomainError(
                f"J_nu(x) at nu = {order!r}, x = {float(x.max())!r}: (x/2)^nu overflows "
                "double range in the Miller normalisation"
            )
        return power

    scale = _each_order(half_x_power, nu, x)
    g1 = _each_order(lambda order, x: _gamma_order_plus_one(order), nu, x)
    m_start = (x + np.maximum(nu, 1.0) + 40.0).astype(np.int64)
    m_start += m_start % 2
    by_start = np.argsort(m_start, kind="stable")
    shortest = int(m_start[by_start[0]])
    top = int(m_start[by_start[-1]])
    cuts = np.searchsorted(m_start[by_start], np.arange(shortest, top + 3, 2)).tolist()
    fs = np.zeros((top + 2, x.size))
    rows = list(fs)
    inv_x = 2.0 / x
    max_inv_x = float(inv_x.max())
    shifted = _rows(np.add.outer(np.arange(top + 1.0), nu))  # nu + m for row m
    nu_top = float(nu.max()) if isinstance(nu, np.ndarray) else nu
    # bound >= max |fs[m]| and bound_hi >= max |fs[m + 1]|, kept in plain
    # floats (from the largest order) so the 1e250 test runs on the array
    # only when it can fire.
    bound = bound_hi = 0.0
    for m in range(top, 0, -1):
        if m >= shortest and m % 2 == 0:
            j = (m - shortest) // 2
            rows[m][by_start[cuts[j]:cuts[j + 1]]] = 1e-280
            bound = max(bound, 1e-280)
        row = rows[m - 1]
        np.multiply(inv_x, shifted[m], out=row)
        np.multiply(row, rows[m], out=row)
        np.subtract(row, rows[m + 1], out=row)
        bound, bound_hi = 1.001 * ((nu_top + m) * max_inv_x * bound + bound_hi), bound
        if bound > 1e250:
            big = np.abs(row) > 1e250
            if big.any():
                fs[m - 1:, big] *= 1e-250
            bound = float(np.abs(row).max())
            bound_hi = float(np.abs(rows[m]).max())
    total = g1 * fs[0]
    tmp = np.empty_like(total)
    # Term k = 1..top/2 has the factor ck = (nu + 2k) Gamma(nu + k) / k!,
    # a product accumulated in order of k.  It belongs to the elements
    # whose m_start reaches 2k; above that an element's column is exactly
    # 0, which a finite ck keeps 0 and an infinite one would make NaN.
    terms = top // 2
    k = np.arange(2, terms + 1)
    if isinstance(nu, np.ndarray):
        k = k[:, None]
    ratios = (nu + 2.0 * k) * (nu + k - 1.0) / ((nu + 2.0 * k - 2.0) * k)
    ck = np.concatenate([[(nu + 2.0) * g1], ratios])
    np.multiply.accumulate(ck, axis=0, out=ck)
    finite = np.isfinite(ck).reshape(terms, -1).all(axis=1).tolist()
    ck = _rows(ck)
    for k in range(1, terms + 1):
        if finite[k - 1]:
            np.multiply(rows[2 * k], ck[k - 1], out=tmp)
            total += tmp
        else:
            total = np.where(2 * k <= m_start, total + ck[k - 1] * fs[2 * k], total)
    return fs[0] * scale / total


def _hankel_array(nu, x: np.ndarray) -> np.ndarray:
    # J_nu(x) ~ sqrt(2/(pi x)) (P cos(chi) - Q sin(chi)),
    # chi = x - (nu/2 + 1/4) pi   (DLMF 10.17.3).
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
            if isinstance(mu, np.ndarray):
                mu = mu[keep]
            if live.size == 0:
                break
    p_out[live] = p
    q_out[live] = q
    # The phase is reduced in extended precision (a two-sum of x and
    # -theta pi): the rounding of x - theta*pi alone would cost ~ulp(x)
    # radians, visible at x ~ 1000.
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


def bessel_j_array(order, x) -> np.ndarray:
    """J_nu at every point of the array ``x`` (all >= 0): ``order`` is one
    order (a ``BesselOrder`` or a float), or an array of orders that
    broadcasts to ``x``, one per point.

    For each order the regimes are consecutive intervals of x: 0, the
    series up to 2, Miller's recurrence, and above it the half-integer
    closed forms from x = nu or Hankel's expansion from x = max(30,
    nu(nu + 1)).  A regime values the points of every order it holds in
    one pass.  A value depends only on its own order and point, never on
    the others in the call, and each distinct (order, point) is valued
    once.  A call of several orders that raises gives the ``DomainError``
    of one of its failing orders; the zero finder, which batches orders,
    isolates which (``_next_zeros``).
    """
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    # On sorted points each regime of an order is one slice, and equal
    # points are neighbours.  Equal points get one value, so their order
    # does not matter, and numpy's default sort, not a stable one, serves.
    if isinstance(order, BesselOrder) or not isinstance(order, (np.ndarray, list, tuple)):
        nu = _as_nu(order)
        perm = np.argsort(flat)
    else:
        nu = np.broadcast_to(np.asarray(order, dtype=float), x.shape).ravel()
        perm = np.lexsort((flat, nu))
        nu = nu[perm]
        if nu.size and not (nu[0] >= 0.0 and nu[-1] < math.inf):
            bad = nu[0] if nu[0] < 0.0 else nu[-1]
            raise DomainError(f"Bessel order must be a finite real >= 0, got {bad!r}")
    if flat.size == 0:
        return np.empty_like(x)
    xs = flat[perm]
    first = np.empty(xs.size, dtype=bool)
    first[0] = True
    np.not_equal(xs[1:], xs[:-1], out=first[1:])
    if isinstance(nu, np.ndarray):
        first[1:] |= nu[1:] != nu[:-1]
        nu = nu[first]
    xs = xs[first]
    values = np.empty_like(xs)
    # Per regime, the (lo, hi, order) slice of each order's points.
    spans: dict = {
        _series_array: [], _miller_array: [], _half_integer_array: [], _hankel_array: []
    }
    for lo, hi, run_nu in _order_runs(nu, xs.size):
        run = xs[lo:hi]
        if not (run[0] >= 0.0 and run[-1] < math.inf):
            raise DomainError("bessel_j_array requires finite x >= 0")
        zero_end = lo + int(np.searchsorted(run, 0.0, "right"))
        series_end = lo + int(np.searchsorted(run, 2.0, "right"))
        if _is_half_integer(run_nu):
            upper, edge = _half_integer_array, run_nu
        else:
            upper, edge = _hankel_array, max(30.0, run_nu * (run_nu + 1.0))
        miller_end = max(lo + int(np.searchsorted(run, edge, "left")), series_end)
        values[lo:zero_end] = 1.0 if run_nu == 0.0 else 0.0
        for regime, a, b in (
            (_series_array, zero_end, series_end),
            (_miller_array, series_end, miller_end),
            (upper, miller_end, hi),
        ):
            if b > a:
                spans[regime].append((a, b, run_nu))
    # Python floats overflow to inf silently; so do these arrays.
    with np.errstate(all="ignore"):
        for regime, parts in spans.items():
            if len(parts) == 1:
                a, b, run_nu = parts[0]
                values[a:b] = regime(run_nu, xs[a:b])
            elif parts:
                where = np.concatenate([np.arange(a, b) for a, b, _ in parts])
                values[where] = regime(nu[where], xs[where])
    out = np.empty_like(flat)
    out[perm] = values[np.cumsum(first) - 1]
    return out.reshape(x.shape)


def bessel_j(order: "BesselOrder | float", x: float) -> float:
    """Bessel function of the first kind of nonnegative real order at
    x >= 0: ``bessel_j_array`` at one point."""
    nu = _as_nu(order)
    if not math.isfinite(x) or x < 0.0:
        raise DomainError(f"bessel_j requires x >= 0, got {x!r}")
    return float(bessel_j_array(nu, np.array([float(x)]))[0])


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


# Zeros are found this many at a time, in order of k.
_ZERO_CHUNK = 32

# Per order, zeros 1..n found so far: each zero, or the error that a
# request for it raises.
_ZEROS: dict[float, list] = {}


def bessel_j_zero(order: "BesselOrder | float", k: int) -> float:
    """The k-th positive zero of J_nu (k >= 1), strictly increasing in k.

    Zeros of J_nu, nu >= 0, lie more than 3.1 apart, so a zero found less
    than pi/2 above zero k - 1 means one was lost: that zero raises
    ``ConvergenceError``, as does one that cannot be bracketed.
    """
    nu = _as_nu(order)
    if int(k) != k or k < 1:
        raise DomainError(f"zero index must be an integer >= 1, got {k!r}")
    found = _ZEROS.setdefault(nu, [])
    while len(found) < k:
        _next_zeros([nu])
    zero = found[int(k) - 1]
    if isinstance(zero, Exception):
        raise zero.with_traceback(None)
    return zero


def find_first_zeros(orders) -> None:
    """Find zeros 1.._ZERO_CHUNK of every order of ``orders`` that
    ``bessel_j_zero`` holds none of yet, in one Newton run: each step
    values J of all of them in one call.  Each order gets the zeros, or
    the errors, that it gets alone."""
    nus = [nu for nu in dict.fromkeys(map(_as_nu, orders)) if not _ZEROS.get(nu)]
    if nus:
        _next_zeros(nus)


def _next_zeros(nus: list, count: int = _ZERO_CHUNK) -> None:
    """Find the next ``count`` zeros of each order of ``nus`` in one
    ``_newton_zeros`` run and store them.  Where J raises ``DomainError``
    on the way, the run is split: into its orders, then one order's zeros
    into halves, down to the zero whose iterate raised, and that error is
    stored for it.  A zero takes its own course in any run, so each zero,
    and each error, is the one its order gets alone."""
    requests = []
    for nu in nus:
        first = len(_ZEROS.setdefault(nu, [])) + 1
        requests.append((nu, range(first, first + count)))
    try:
        chunks = _newton_zeros(requests)
    except DomainError as exc:
        if len(nus) > 1:
            for nu in nus:
                _next_zeros([nu], count)
        elif count == 1:
            _store_zeros(nus[0], [exc])
        else:
            _next_zeros(nus, count // 2)
            _next_zeros(nus, count - count // 2)
        return
    for nu, zeros in zip(nus, chunks):
        _store_zeros(nu, zeros.tolist())


def _store_zeros(nu: float, zeros: list) -> None:
    """Append the next zeros of J_nu to ``_ZEROS[nu]``.  A NaN (a zero that
    could not be bracketed) and a zero less than pi/2 above the one before
    it are stored as the ``ConvergenceError`` that a request raises."""
    found = _ZEROS[nu]
    for zero in zeros:
        k_new = len(found) + 1
        previous = found[-1] if found else None
        if isinstance(zero, float) and math.isnan(zero):
            zero = ConvergenceError(
                f"could not bracket a zero of J_{nu} near {_mcmahon_guess(nu, k_new)}"
            )
        elif isinstance(zero, float) and isinstance(previous, float) and (
            zero - previous < 0.5 * math.pi
        ):
            zero = ConvergenceError(
                f"zero {k_new} of J_{nu} at {zero!r} lies less than pi/2 above "
                f"zero {k_new - 1} at {previous!r}: a zero was lost"
            )
        found.append(zero)


def _newton_zeros(requests: list[tuple[float, range]]) -> list[np.ndarray]:
    """Zeros ``ks`` of J_nu for each request ``(nu, ks)``, by Newton's
    method from McMahon's guess, kept inside guess -+ 1.5.  A zero whose
    iterate leaves that bracket, meets J' = 0 or has not converged in 40
    steps is bisected instead.  Each zero takes its own course; a step
    values J_nu and J_{nu+1} at the live iterates of every request in one
    call."""
    nu = np.concatenate([np.full(len(ks), order) for order, ks in requests])
    guess = np.array([_mcmahon_guess(order, k) for order, ks in requests for k in ks])
    lo = guess - 1.5
    hi = guess + 1.5
    start = 0
    for _, ks in requests:
        if ks[0] == 1:
            # First zero sits above max(nu, small); keep the bracket positive.
            lo[start] = max(lo[start], 0.25 * guess[start], 1e-8)
        start += len(ks)
    zeros = np.full(guess.size, math.nan)
    x = guess.copy()
    small_step = np.zeros(guess.size, dtype=bool)
    live = np.arange(guess.size)
    with np.errstate(divide="ignore", invalid="ignore"):
        for steps in range(41):
            if steps == 40:
                # After the last step only its convergence test is left.
                live = live[small_step[live]]
            xl, nl = x[live], nu[live]
            fx, fx_up = np.split(bessel_j_array(np.concatenate([nl, nl + 1.0]), np.tile(xl, 2)), 2)
            # Converged: the last step was at most 1e-15 x and |J| <= 1e-12.
            done = small_step[live] & (np.abs(fx) <= 1e-12)
            zeros[live[done]] = xl[done]
            keep = ~done
            live, xl, nl, fx, fx_up = live[keep], xl[keep], nl[keep], fx[keep], fx_up[keep]
            if steps == 40 or not live.size:
                break
            dfx = (nl / xl) * fx - fx_up
            step = fx / dfx
            x_new = xl - step
            stays = (dfx != 0.0) & (lo[live] < x_new) & (x_new < hi[live])
            live = live[stays]
            x[live] = x_new[stays]
            small_step[live] = np.abs(step[stays]) <= 1e-15 * x_new[stays]
    lost = np.flatnonzero(np.isnan(zeros))
    if lost.size:
        zeros[lost] = _bisected_zeros(nu[lost], guess[lost])
    return np.split(zeros, np.cumsum([len(ks) for _, ks in requests])[:-1])


def _bisected_zeros(nu: np.ndarray, guess: np.ndarray) -> np.ndarray:
    """The zero of J_nu near each guess, one order per guess, bisecting the
    first of the brackets guess -+ 0.4 * 1.6^n, n = 0..4 (clipped at
    1e-8), on which J_nu changes sign, until an exact zero, width 1e-15 hi
    or 200 halvings; NaN where no bracket has a sign change."""
    lo = np.full(guess.size, math.nan)
    hi = lo.copy()
    open_ = np.arange(guess.size)
    width = 0.4
    while width < 4.0 and open_.size:
        a = np.maximum(guess[open_] - width, 1e-8)
        b = guess[open_] + width
        straddles = bessel_j_array(nu[open_], a) * bessel_j_array(nu[open_], b) < 0.0
        lo[open_[straddles]] = a[straddles]
        hi[open_[straddles]] = b[straddles]
        open_ = open_[~straddles]
        width *= 1.6
    roots = lo.copy()
    live = np.flatnonzero(~np.isnan(lo))
    a, b, nu = lo[live], hi[live], nu[live]
    fa = bessel_j_array(nu, a)
    for _ in range(200):
        if not live.size:
            break
        mid = 0.5 * (a + b)
        fmid = bessel_j_array(nu, mid)
        left = (fa < 0.0) != (fmid < 0.0)
        a, b, fa = np.where(left, a, mid), np.where(left, mid, b), np.where(left, fa, fmid)
        exact = fmid == 0.0
        roots[live] = np.where(exact, mid, 0.5 * (a + b))
        going = ~exact & (b - a > 1e-15 * b)
        live, a, b, fa, nu = live[going], a[going], b[going], fa[going], nu[going]
    return roots
