"""Radial Fourier transform machinery.

A radial function f(x) = F(|x|) on R^d has a radial transform; with the
Hankel-type kernel

    V_d(s, r) = (2 pi)^(d/2) J_{(d-2)/2}(s r) s^((2-d)/2) r^(d/2)

the transform value at radius s in frequency space is the one-dimensional
integral G(s) = int_0^inf V_d(s, r) F(r) dr.  This module evaluates G,
radial L_p norms, and the L_q norm of the transform restricted to the
unit sphere (where it is constant).

The normalisation used throughout is the sphere area A(d) =
2 pi^(d/2) / Gamma(d/2):

    int_{R^d} f dx = G(0)    = A(d) int_0^inf r^(d-1) F(r) dr
    ||f||_p^p                = A(d) int_0^inf r^(d-1) |F(r)|^p dr

Both are pinned by closed-form Gaussian identities in the test suite.

Every profile integral takes a list of profiles and runs them in blocks
of the adaptive rule (``_radial_integral``).  Profiles of one family held in
array form (``RadialProfile.family``) share a block, so each round of
refinement is one call of the family's ``values(r, which)`` for all of
them; any other profile is a block of its own, its scalar ``f`` mapped over
the nodes.  A family profile's ``f`` is a one-point call of ``values``
(``family_profile``).  The transform's Bessel factor ``J_nu(s r)`` is
one ``bessel_j_array`` call on each round's nodes, which values each
distinct radius once, and the weights' powers are numpy's elementwise
``np.power`` (the L_p weight is ``quadrature._power_law``), so a node's
value depends on that node alone.  A profile's result is the one it gets
alone, bit for bit, and ``radial_hat`` and ``radial_lp_norm`` are
one-profile calls of that one path.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Optional, Sequence, TypeVar, Union

import numpy as np

from .errors import ConvergenceError, DivergenceError, DomainError
from .quadrature import (
    DEFAULT_REL_TOL,
    ArrayIntegrand,
    QuadResult,
    _mapped,
    _only,
    _power_law,
    integrate_finite_block,
    integrate_semi_infinite_block,
    sum_over_partition,
)
from .special_fns import RadialKernel, bessel_j_array, bessel_j_zero

__all__ = [
    "GaussianDecay",
    "CompactSupport",
    "AlgebraicDecay",
    "DecayClass",
    "RadialProfile",
    "family_profile",
    "gaussian_profile",
    "radial_hat",
    "radial_lp_norm",
    "radial_lp_norms",
    "sphere_norms_of_radial_hat",
]


class GaussianDecay(NamedTuple):
    """|F(r)| bounded by c * exp(-r^2 / (2 sigma^2)) for large r."""

    sigma: float


class CompactSupport(NamedTuple):
    """F vanishes outside [0, radius]."""

    radius: float


class AlgebraicDecay(NamedTuple):
    """|F(r)| ~ coeff * r^(-exponent) for large r."""

    coeff: float
    exponent: float


DecayClass = Union[GaussianDecay, CompactSupport, AlgebraicDecay]

# values(r, which): F of a family's profile which[k] at r[k], for arrays.
ProfileValues = Callable[[np.ndarray, np.ndarray], np.ndarray]

T = TypeVar("T")
# A profile's result, or the error its integral raised.
Outcome = Union[T, DomainError, ConvergenceError]


class RadialProfile(NamedTuple):
    """A scalar profile F(r), r > 0, standing for the radial f(x) = F(|x|).

    ``breakpoints`` optionally exposes the profile's sign-change points
    (k-th breakpoint for k >= 1, increasing); oscillatory transforms use
    them as additional partition points.  ``family`` optionally names the
    array form of the profile's family and the profile's index in it,
    ``(values, i)``, and profiles sharing ``values`` are integrated as one
    block; ``family_profile`` builds such a profile with ``f`` derived from
    ``values``.
    """

    f: Callable[[float], float]
    decay: DecayClass
    label: str
    breakpoints: Optional[Callable[[int], float]] = None
    family: Optional[tuple[ProfileValues, int]] = None


def family_profile(
    values: ProfileValues,
    i: int,
    decay: DecayClass,
    label: str,
    breakpoints: Optional[Callable[[int], float]] = None,
) -> RadialProfile:
    """Profile ``i`` of the family ``values``.  Its ``f`` is a one-point
    call of ``values`` (0 at r <= 0, as in every profile integral), so the
    scalar and array forms agree by construction."""
    which = np.array([i])

    def f(r: float) -> float:
        return 0.0 if r <= 0.0 else float(values(np.array([float(r)]), which)[0])

    return RadialProfile(f, decay, label, breakpoints, family=(values, i))


def gaussian_profile(sigma: float, d: int) -> RadialProfile:
    """F(r) = (2 pi)^(-d/2) sigma^(-d) exp(-r^2 / (2 sigma^2)); its
    integral over R^d is 1 for every finite sigma > 0."""
    if not (math.isfinite(sigma) and sigma > 0.0):
        raise DomainError(f"sigma must be finite and positive, got {sigma!r}")
    label = f"gaussian(sigma={sigma!r}, d={d})"
    try:
        norm = (2.0 * math.pi) ** (-0.5 * d) * sigma ** (-float(d))
    except OverflowError:
        raise DomainError(f"{label} exceeds double-precision range") from None
    inv_two_sigma_sq = 0.5 / (sigma * sigma)

    def f(r: float) -> float:
        return norm * math.exp(-r * r * inv_two_sigma_sq)

    return RadialProfile(f=f, decay=GaussianDecay(sigma), label=label)


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
    return _only(_radial_hats(kernel, [profile], s, tol))


def _radial_hats(
    kernel: RadialKernel, profiles: Sequence[RadialProfile], s: float, tol: float
) -> list[Outcome[QuadResult]]:
    """``radial_hat`` of each profile, or the error it raised."""
    if s <= 0.0:
        raise DomainError(f"radial_hat requires s > 0, got {s!r}")
    nu = kernel.order.nu
    d = kernel.d
    front = (2.0 * math.pi) ** (0.5 * d) * s ** (0.5 * (2 - d))

    def weight(r: np.ndarray, fr: np.ndarray) -> np.ndarray:
        return front * bessel_j_array(nu, s * r) * np.power(r, 0.5 * d) * fr

    def kernel_zeros(k: int) -> float:
        return bessel_j_zero(nu, k) / s

    return _radial_integral(
        lambda profile: f"transform of {profile.label!r} in dimension {d}",
        profiles, weight, 0.5 * (d - 1), 1.0, tol,
        lambda profile: _merged_breakpoints(kernel_zeros, profile.breakpoints),
    )


def _radial_integral(
    what: Callable[[RadialProfile], str],
    profiles: Sequence[RadialProfile],
    weight: Callable[[np.ndarray, np.ndarray], np.ndarray],
    growth: float,
    power: float,
    tol: float,
    partition: Callable[[RadialProfile], Optional[Callable[[int], float]]],
) -> list[Outcome[QuadResult]]:
    """int_0^inf weight(r, F(r)) dr for each profile, the one path of every
    profile integral: the profile's result, or the ``DomainError`` or
    ``ConvergenceError`` its integral raised.

    The integrand is 0 at r <= 0 and where F(r) == 0, and ``weight`` values
    the other nodes as arrays.  Its envelope is r^growth |F|^power, so
    under algebraic decay F ~ r^(-e) its tail exponent power*e - growth must
    exceed 1.  Compact profiles integrate over their support, algebraic
    decay sums the cells of ``partition(profile)`` with tail extrapolation,
    and the rest take the semi-infinite rule.  The compact profiles of one
    family are one block of ``integrate_finite_block``, the semi-infinite
    ones one block of ``integrate_semi_infinite_block``; every other
    profile runs alone, so an error its ``f`` raises is its own outcome.
    """
    outcomes: list = [None] * len(profiles)
    finite: dict = {}
    semi_infinite: dict = {}
    for i, profile in enumerate(profiles):
        decay = profile.decay
        key = i if profile.family is None else profile.family[0]
        if isinstance(decay, CompactSupport):
            finite.setdefault(key, []).append(i)
            continue
        if isinstance(decay, AlgebraicDecay):
            tail = power * decay.exponent - growth
            if not tail > 1.0:
                outcomes[i] = DivergenceError(
                    f"{what(profile)} diverges: the profile decays like "
                    f"r^(-{decay.exponent!r}), so the integrand decays like "
                    f"r^(-{tail!r}); the exponent must exceed 1"
                )
                continue
            cells = partition(profile)
            if cells is not None:
                integrand = _integrand([profile], weight)
                _settle(outcomes, [i], lambda: [sum_over_partition(
                    lambda x, _: integrand(x, np.zeros(x.size, dtype=int)),
                    cells, tol, tail_exponent=tail,
                )])
                continue
        semi_infinite.setdefault(key, []).append(i)
    for members in finite.values():
        block = [profiles[i] for i in members]
        edges = [(0.0, profile.decay.radius) for profile in block]
        _settle(outcomes, members, lambda: integrate_finite_block(
            _integrand(block, weight), edges, tol
        ))
    for members in semi_infinite.values():
        block = [profiles[i] for i in members]
        _settle(outcomes, members, lambda: integrate_semi_infinite_block(
            _integrand(block, weight), len(block), tol
        ))
    return outcomes


def _integrand(
    block: Sequence[RadialProfile], weight: Callable[[np.ndarray, np.ndarray], np.ndarray]
) -> ArrayIntegrand:
    """weight(r, F(r)) at each node r of profile ``block[which]``; 0 at
    r <= 0 and where F(r) == 0, where neither F nor the weight is valued.

    A family's profiles are valued with one call of its ``values``; a
    block without a family is one profile, its ``f`` mapped over the nodes.
    """
    family = block[0].family
    if family is None:
        (profile,) = block
        values = _mapped(profile.f)
    else:
        index = np.array([profile.family[1] for profile in block])

        def values(r: np.ndarray, which: np.ndarray) -> np.ndarray:
            return family[0](r, index[which])

    def integrand(r: np.ndarray, which: np.ndarray) -> np.ndarray:
        out = np.zeros(r.size)
        live = np.flatnonzero(r > 0.0)
        fr = values(r[live], which[live])
        nonzero = fr != 0.0
        live = live[nonzero]
        with np.errstate(all="ignore"):
            out[live] = weight(r[live], fr[nonzero])
        return out

    return integrand


def _settle(
    outcomes: list, members: Sequence[int], run: Callable[[], Sequence[Outcome[QuadResult]]]
) -> None:
    """Store the outcomes of one block at ``members``; a ``DomainError`` or
    ``ConvergenceError`` the block raises is the outcome of each member."""
    try:
        results = run()
    except (DomainError, ConvergenceError) as exc:
        results = [exc] * len(members)
    for i, result in zip(members, results):
        outcomes[i] = result


def _then(outcome: Outcome, step: Callable) -> Outcome:
    """``step(outcome)``, or the error ``outcome`` is or ``step`` raises."""
    if isinstance(outcome, Exception):
        return outcome
    try:
        return step(outcome)
    except (DomainError, ConvergenceError) as exc:
        return exc


def radial_lp_norm(
    kernel: RadialKernel,
    profile: RadialProfile,
    p: float,
    tol: float = DEFAULT_REL_TOL,
) -> float:
    """The L_p(R^d) norm of f(x) = F(|x|):
    [A(d) int_0^inf r^(d-1) |F(r)|^p dr]^(1/p)."""
    return _only(radial_lp_norms(kernel, [profile], p, tol))


def radial_lp_norms(
    kernel: RadialKernel,
    profiles: Sequence[RadialProfile],
    p: float,
    tol: float = DEFAULT_REL_TOL,
) -> list[Outcome[float]]:
    """``radial_lp_norm`` of each profile, or the error it raised; the
    integrals run in blocks (see ``_radial_integral``)."""
    if p < 1.0:
        raise DomainError(f"radial_lp_norm requires p >= 1, got {p!r}")
    d = kernel.d

    def what(profile: RadialProfile) -> str:
        return f"L_{p} norm of {profile.label!r}"

    quads = _radial_integral(
        what, profiles, lambda r, fr: _power_law(r, d - 1, fr, p), d - 1, p, tol,
        lambda profile: profile.breakpoints,
    )
    return [
        _then(quad, lambda q: (kernel.sphere_area * q.expect_converged(what(profile)).value)
              ** (1.0 / p))
        for quad, profile in zip(quads, profiles)
    ]


def _sphere_moduli(
    kernel: RadialKernel, profiles: Sequence[RadialProfile], tol: float
) -> list[Outcome[float]]:
    """|G(1)| of each profile, the transform's modulus on the unit sphere,
    checked converged, or its error."""
    return [
        _then(hat, lambda h: abs(
            h.expect_converged(f"transform of {profile.label!r} at s = 1").value
        ))
        for hat, profile in zip(_radial_hats(kernel, profiles, 1.0, tol), profiles)
    ]


def _sphere_modulus(kernel: RadialKernel, profile: RadialProfile, tol: float) -> float:
    return _only(_sphere_moduli(kernel, [profile], tol))


def sphere_norms_of_radial_hat(
    kernel: RadialKernel,
    profiles: Sequence[RadialProfile],
    q: float,
    tol: float = DEFAULT_REL_TOL,
) -> list[Outcome[float]]:
    """The L_q norm of each profile's transform restricted to the unit
    sphere, or the error it raised.  The transform of a radial profile is
    constant on the sphere, so the norm is A(d)^(1/q) |G(1)|; the
    transforms run in blocks (see ``_radial_integral``)."""
    if q < 1.0:
        raise DomainError(f"sphere norm requires q >= 1, got {q!r}")
    scale = kernel.sphere_area ** (1.0 / q)
    return [_then(m, lambda m: scale * m) for m in _sphere_moduli(kernel, profiles, tol)]
