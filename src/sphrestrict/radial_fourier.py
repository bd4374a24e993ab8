"""Radial Fourier transform machinery.

A radial function f(x) = F(|x|) on R^d has a radial transform; with the
Hankel-type kernel

    V_d(s, r) = (2 pi)^(d/2) J_{(d-2)/2}(s r) s^((2-d)/2) r^(d/2)

the transform value at radius s in frequency space is the one-dimensional
integral G(s) = int_0^inf V_d(s, r) F(r) dr.  This module evaluates G,
full-space integrals, radial L_p norms, and the L_q norm of the transform
restricted to the unit sphere (where it is constant).

The normalisation used throughout is the sphere area A(d) =
2 pi^(d/2) / Gamma(d/2):

    int_{R^d} f dx           = A(d) int_0^inf r^(d-1) F(r) dr
    ||f||_p^p                = A(d) int_0^inf r^(d-1) |F(r)|^p dr

Both are pinned by closed-form Gaussian identities in the test suite.

``radial_hat`` takes its Bessel factor ``J_nu(s r)`` from a bounded
module-level memo keyed on ``(nu, s r)``.  The semi-infinite rule maps
[0, inf) onto (0, 1) and bisects dyadically, so every Gaussian-decay
transform at one ``(nu, s)`` draws its nodes from one fixed lattice: the
dominance suite's 600 transforms need about 1.3k distinct arguments
against 165k evaluations.  The memo stores the double ``bessel_j``
returned, so every transform is bit-identical to an unmemoised one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Union

from .errors import DivergenceError, DomainError
from .quadrature import (
    DEFAULT_REL_TOL,
    QuadResult,
    integrate_finite,
    integrate_semi_infinite_decaying,
    sum_over_partition,
)
from .special_fns import RadialKernel, bessel_j, bessel_j_zero

__all__ = [
    "GaussianDecay",
    "CompactSupport",
    "AlgebraicDecay",
    "DecayClass",
    "RadialProfile",
    "gaussian_profile",
    "kernel_v",
    "radial_hat",
    "radial_full_integral",
    "radial_lp_norm",
    "sphere_norm_of_radial_hat",
]


@dataclass(frozen=True)
class GaussianDecay:
    """|F(r)| bounded by c * exp(-r^2 / (2 sigma^2)) for large r."""

    sigma: float


@dataclass(frozen=True)
class CompactSupport:
    """F vanishes outside [0, radius]."""

    radius: float


@dataclass(frozen=True)
class AlgebraicDecay:
    """|F(r)| ~ coeff * r^(-exponent) for large r."""

    coeff: float
    exponent: float


DecayClass = Union[GaussianDecay, CompactSupport, AlgebraicDecay]

# Entries of the Bessel-factor memo; the dominance suite needs about 1.3k.
_BESSEL_MEMO_SIZE = 4096


@lru_cache(maxsize=_BESSEL_MEMO_SIZE)
def _bessel_factor(nu: float, x: float) -> float:
    """``bessel_j(nu, x)``, memoised; only misses reach ``bessel_j``."""
    return bessel_j(nu, x)


@dataclass
class RadialProfile:
    """A scalar profile F(r), r > 0, standing for the radial f(x) = F(|x|).

    ``breakpoints`` optionally exposes the profile's sign-change points
    (k-th breakpoint for k >= 1, increasing); oscillatory transforms use
    them as additional partition points.
    """

    f: Callable[[float], float]
    decay: DecayClass
    label: str
    breakpoints: Optional[Callable[[int], float]] = None


def gaussian_profile(sigma: float, d: int) -> RadialProfile:
    """F(r) = (2 pi)^(-d/2) sigma^(-d) exp(-r^2 / (2 sigma^2)); its
    integral over R^d is 1 for every sigma > 0."""
    if sigma <= 0.0:
        raise DomainError(f"sigma must be positive, got {sigma!r}")
    norm = (2.0 * math.pi) ** (-0.5 * d) * sigma ** (-float(d))
    inv_two_sigma_sq = 0.5 / (sigma * sigma)

    def f(r: float) -> float:
        return norm * math.exp(-r * r * inv_two_sigma_sq)

    return RadialProfile(
        f=f, decay=GaussianDecay(sigma), label=f"gaussian(sigma={sigma!r}, d={d})"
    )


def kernel_v(kernel: RadialKernel, s: float, r: float) -> float:
    """The Hankel-type kernel V_d(s, r) reducing the transform to 1-D."""
    if s <= 0.0 or r <= 0.0:
        raise DomainError("kernel_v requires s > 0 and r > 0")
    d = kernel.d
    return (
        (2.0 * math.pi) ** (0.5 * d)
        * bessel_j(kernel.order, s * r)
        * s ** (0.5 * (2 - d))
        * r ** (0.5 * d)
    )


def _merged_breakpoints(
    first: Callable[[int], float], second: Optional[Callable[[int], float]]
) -> Callable[[int], float]:
    """Merge two increasing breakpoint streams into one (deduplicated)."""
    if second is None:
        return first

    merged: list[float] = []
    state = {"i": 1, "j": 1}

    def boundary(k: int) -> float:
        while len(merged) < k:
            a = first(state["i"])
            b = second(state["j"])
            if abs(a - b) <= 1e-12 * max(a, b):
                merged.append(0.5 * (a + b))
                state["i"] += 1
                state["j"] += 1
            elif a < b:
                merged.append(a)
                state["i"] += 1
            else:
                merged.append(b)
                state["j"] += 1
        return merged[k - 1]

    return boundary


def radial_hat(
    kernel: RadialKernel,
    profile: RadialProfile,
    s: float,
    tol: float = DEFAULT_REL_TOL,
) -> QuadResult:
    """The radial transform G(s) = int_0^inf V_d(s, r) F(r) dr.

    An algebraic-decay profile is summed over the zeros of J_nu(s r),
    merged with the profile's own breakpoints, with tail extrapolation;
    see ``_radial_integral`` for the other decay classes.
    """
    if s <= 0.0:
        raise DomainError(f"radial_hat requires s > 0, got {s!r}")
    nu = kernel.order.nu
    d = kernel.d
    front = (2.0 * math.pi) ** (0.5 * d) * s ** (0.5 * (2 - d))

    def kernel_zeros(k: int) -> float:
        return bessel_j_zero(nu, k) / s

    return _radial_integral(
        f"transform of {profile.label!r} in dimension {d}",
        profile,
        lambda r, fr: front * _bessel_factor(nu, s * r) * r ** (0.5 * d) * fr,
        0.5 * (d - 1), 1.0, tol,
        _merged_breakpoints(kernel_zeros, profile.breakpoints),
    )


def _radial_integral(
    what: str,
    profile: RadialProfile,
    weight: Callable[[float, float], float],
    growth: float,
    power: float,
    tol: float,
    partition: Optional[Callable[[int], float]],
) -> QuadResult:
    """int_0^inf weight(r, F(r)) dr, the one path of every profile integral.

    The integrand is 0 at r <= 0 and where F(r) == 0.  Its envelope is
    r^growth |F|^power, so under algebraic decay F ~ r^(-e) its tail
    exponent power*e - growth must exceed 1.  Compact profiles integrate
    over their support, algebraic decay sums the cells of ``partition``
    with tail extrapolation, and the rest take the semi-infinite rule.
    """
    f = profile.f

    def integrand(r: float) -> float:
        if r <= 0.0:
            return 0.0
        fr = f(r)
        if fr == 0.0:
            return 0.0
        return weight(r, fr)

    decay = profile.decay
    if isinstance(decay, CompactSupport):
        return integrate_finite(integrand, 0.0, decay.radius, tol)
    if isinstance(decay, AlgebraicDecay):
        tail = power * decay.exponent - growth
        if not tail > 1.0:
            raise DivergenceError(
                f"{what} diverges: the profile decays like r^(-{decay.exponent!r}), "
                f"so the integrand decays like r^(-{tail!r}); the exponent must "
                "exceed 1"
            )
        if partition is not None:
            return sum_over_partition(integrand, partition, tol, tail_exponent=tail)
    return integrate_semi_infinite_decaying(integrand, tol)


def radial_full_integral(
    kernel: RadialKernel, profile: RadialProfile, tol: float = DEFAULT_REL_TOL
) -> float:
    """int_{R^d} f dx = A(d) int_0^inf r^(d-1) F(r) dr; equals lim_{s->0} G(s)."""
    d = kernel.d
    what = f"integral of {profile.label!r} over R^{d}"
    quad = _radial_integral(
        what, profile, lambda r, fr: r ** (d - 1) * fr, d - 1, 1.0, tol,
        profile.breakpoints,
    )
    return kernel.sphere_area * quad.expect_converged(what).value


def radial_lp_norm(
    kernel: RadialKernel,
    profile: RadialProfile,
    p: float,
    tol: float = DEFAULT_REL_TOL,
) -> float:
    """The L_p(R^d) norm of f(x) = F(|x|):
    [A(d) int_0^inf r^(d-1) |F(r)|^p dr]^(1/p)."""
    if p < 1.0:
        raise DomainError(f"radial_lp_norm requires p >= 1, got {p!r}")
    d = kernel.d
    what = f"L_{p} norm of {profile.label!r}"
    quad = _radial_integral(
        what, profile, lambda r, fr: r ** (d - 1) * abs(fr) ** p, d - 1, p, tol,
        profile.breakpoints,
    )
    return (kernel.sphere_area * quad.expect_converged(what).value) ** (1.0 / p)


def _sphere_modulus(kernel: RadialKernel, profile: RadialProfile, tol: float) -> float:
    """|G(1)|, the transform's modulus on the unit sphere, checked converged."""
    hat = radial_hat(kernel, profile, 1.0, tol)
    return abs(hat.expect_converged(f"transform of {profile.label!r} at s = 1").value)


def sphere_norm_of_radial_hat(
    kernel: RadialKernel,
    profile: RadialProfile,
    q: float,
    tol: float = DEFAULT_REL_TOL,
) -> float:
    """L_q norm of the transform restricted to the unit sphere.

    The transform of a radial profile is constant on the sphere, so the
    norm is A(d)^(1/q) |G(1)|.
    """
    if q < 1.0:
        raise DomainError(f"sphere norm requires q >= 1, got {q!r}")
    return kernel.sphere_area ** (1.0 / q) * _sphere_modulus(kernel, profile, tol)
