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

    def __call__(self, r: float) -> float:
        return self.f(r)


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


def _check_algebraic_transform(kernel: RadialKernel, decay: AlgebraicDecay) -> None:
    required = 0.5 * (kernel.d + 1)
    if not decay.exponent > required:
        raise DivergenceError(
            f"radial transform needs algebraic decay faster than r^(-{required}) "
            f"in dimension {kernel.d}; profile decays like r^(-{decay.exponent})"
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

    def integrand(r: float) -> float:
        if r <= 0.0:
            return 0.0
        fr = profile.f(r)
        if fr == 0.0:
            return 0.0
        return front * _bessel_factor(nu, s * r) * r ** (0.5 * d) * fr

    def kernel_zeros(k: int) -> float:
        return bessel_j_zero(nu, k) / s

    if isinstance(profile.decay, AlgebraicDecay):
        _check_algebraic_transform(kernel, profile.decay)
        # Envelope of V * F decays like r^((d-1)/2 - exponent).
        tail = profile.decay.exponent - 0.5 * (d - 1)
    else:
        tail = None
    partition = _merged_breakpoints(kernel_zeros, profile.breakpoints)
    return _radial_integral(profile, integrand, tol, partition, tail)


def _radial_integral(
    profile: RadialProfile,
    integrand: Callable[[float], float],
    tol: float,
    partition: Optional[Callable[[int], float]],
    tail_exponent: Optional[float],
) -> QuadResult:
    """int_0^inf integrand(r) dr for a profile-derived integrand, with the
    rule matched to the profile's decay class: finite integration on the
    support for compact profiles, the cells of ``partition`` with tail
    extrapolation for algebraic decay, and otherwise (Gaussian decay, or
    algebraic decay without a partition) the semi-infinite rule."""
    decay = profile.decay
    if isinstance(decay, CompactSupport):
        return integrate_finite(integrand, 0.0, decay.radius, tol)
    if isinstance(decay, AlgebraicDecay) and partition is not None:
        return sum_over_partition(
            integrand, partition, tol, tail_exponent=tail_exponent
        )
    return integrate_semi_infinite_decaying(integrand, tol)


def radial_full_integral(
    kernel: RadialKernel, profile: RadialProfile, tol: float = DEFAULT_REL_TOL
) -> float:
    """int_{R^d} f dx = A(d) int_0^inf r^(d-1) F(r) dr; equals lim_{s->0} G(s)."""
    d = kernel.d

    def integrand(r: float) -> float:
        if r <= 0.0:
            return 0.0
        fr = profile.f(r)
        if fr == 0.0:
            return 0.0
        return r ** (d - 1) * fr

    if isinstance(profile.decay, AlgebraicDecay):
        if not profile.decay.exponent > d:
            raise DivergenceError(
                f"full integral in dimension {d} needs decay faster than r^(-{d})"
            )
        tail = profile.decay.exponent - (d - 1)
    else:
        tail = None
    quad = _radial_integral(profile, integrand, tol, profile.breakpoints, tail)
    quad.expect_converged(f"integral of {profile.label!r} over R^{d}")
    return kernel.sphere_area * quad.value


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

    def integrand(r: float) -> float:
        if r <= 0.0:
            return 0.0
        fr = profile.f(r)
        if fr == 0.0:
            return 0.0
        return r ** (d - 1) * abs(fr) ** p

    if isinstance(profile.decay, AlgebraicDecay):
        if not p * profile.decay.exponent > d:
            raise DivergenceError(
                f"L_{p} norm in dimension {d} diverges for decay "
                f"r^(-{profile.decay.exponent})"
            )
        tail = p * profile.decay.exponent - (d - 1)
    else:
        tail = None
    quad = _radial_integral(profile, integrand, tol, profile.breakpoints, tail)
    quad.expect_converged(f"L_{p} norm of {profile.label!r}")
    return (kernel.sphere_area * quad.value) ** (1.0 / p)


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
    hat = radial_hat(kernel, profile, 1.0, tol)
    hat.expect_converged(f"transform of {profile.label!r} at s = 1")
    return kernel.sphere_area ** (1.0 / q) * abs(hat.value)
