"""Independent oracles and randomized harnesses.

``oracle_integrate`` re-computes integrals through a deliberately
different pipeline from the production quadrature: fixed-order
Gauss-Legendre panels under uniform dyadic refinement (no error-driven
bisection, no Kronrod pair), a hundredfold tighter tolerance, and for
oscillatory integrands a partition shifted to the Bessel extrema (the
midpoints between consecutive zeros) with a deeper tail extrapolation.
The numeric modules never import this one; that direction of independence
is the point (see the review checklist in the README).

``run_dominance_suite`` drives seeded random radial profiles through the
restriction ratio and checks empirically that the sharp radial constant
dominates the radial class.  Reports are deterministic functions of the
seed and tolerances, byte-for-byte.
"""

from __future__ import annotations

import json
import math
import random
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import DivergenceError, DomainError
from .quadrature import (
    DEFAULT_REL_TOL,
    OscillatoryIntegrand,
    QuadResult,
    _mapped,
    wynn_epsilon,
)
from .radial_fourier import CompactSupport, GaussianDecay, RadialProfile, family_profile
from .restriction import RestrictionParams, evaluate_grid, ratios_z
from .special_fns import _replace_validated, bessel_j_zero

__all__ = [
    "RandomRadialSpec",
    "generate_profiles",
    "oracle_integrate",
    "run_dominance_suite",
    "DominanceReport",
]

FAMILIES = ("gaussian_mixture", "polynomial_times_gaussian", "compact_bump")


class RandomRadialSpec(
    NamedTuple("RandomRadialSpec", [("seed", int), ("family", str), ("count", int)])
):
    """Seeded description of a random radial profile family.

    The same seed and spec always produce bit-identical parameter
    streams.  Every family is built so all L_p norms (p >= 1) are finite.
    """

    __slots__ = ()
    _replace = _replace_validated

    def __new__(cls, seed: int, family: str, count: int) -> "RandomRadialSpec":
        if family not in FAMILIES:
            raise DomainError(f"unknown family {family!r}; expected one of {FAMILIES}")
        if count < 0:
            raise DomainError("count must be >= 0")
        return super().__new__(cls, seed, family, count)


# Array forms of the three families: ``values(r, which)`` is F of profile
# which[k] at r[k], elementwise in numpy, so a value depends on its own
# node alone; each profile's scalar ``f`` is a one-point call of it
# (``family_profile``).


class _Mixtures:
    """Sums of w exp(-r^2 / (2 sigma^2)) over each (weights, sigmas).  Row
    k of ``w`` and ``c`` holds every profile's k-th term, each profile
    padded to the widest with w = 0 terms, which add exact zeros."""

    def __init__(self, params) -> None:
        width = max((len(weights) for weights, _ in params), default=1)
        self.w = np.zeros((width, len(params)))
        self.c = np.zeros((width, len(params)))
        for i, (weights, sigmas) in enumerate(params):
            self.w[:len(weights), i] = weights
            self.c[:len(sigmas), i] = [0.5 / (s * s) for s in sigmas]

    def values(self, r: np.ndarray, which: np.ndarray) -> np.ndarray:
        # Term by term, in numpy's own row-sum order 0.0 + t0 + t1 + ...,
        # so terms that are all -0.0 sum to +0.0.
        minus_r2 = -(r * r)
        out = np.zeros(r.size)
        for w, c in zip(self.w, self.c):
            term = np.take(c, which)
            term *= minus_r2
            np.exp(term, out=term)
            term *= np.take(w, which)
            out += term
        return out


class _PolyGaussians:
    """Polynomial times exp(-r^2 / (2 sigma^2)) for each (coeffs, sigma):
    Horner's rule over the coefficients from the highest degree down.  Row
    k of ``horner`` holds every profile's k-th Horner coefficient, each
    profile padded in front with zeros, which keep the running value 0
    until its first coefficient."""

    def __init__(self, params) -> None:
        width = max((len(coeffs) for coeffs, _ in params), default=1)
        self.horner = np.zeros((width, len(params)))
        for i, (coeffs, _) in enumerate(params):
            self.horner[width - len(coeffs):, i] = coeffs[::-1]
        self.c = np.array([0.5 / (sigma * sigma) for _, sigma in params])

    def values(self, r: np.ndarray, which: np.ndarray) -> np.ndarray:
        poly = np.zeros(r.size)
        for column in self.horner:
            poly = poly * r + np.take(column, which)
        return poly * np.exp(-r * r * np.take(self.c, which))


class _Bumps:
    """The C-infinity bump amplitude exp(-1/(1 - (r/R)^2)) of each
    (amplitude, radius R), 0 from r = R on."""

    def __init__(self, params) -> None:
        self.amplitude = np.array([amplitude for amplitude, _ in params])
        self.inv_radius = np.array([1.0 / radius for _, radius in params])

    def values(self, r: np.ndarray, which: np.ndarray) -> np.ndarray:
        u = r * np.take(self.inv_radius, which)
        out = np.zeros(r.size)
        inside = u < 1.0
        u = u[inside]
        out[inside] = np.take(self.amplitude, which[inside]) * np.exp(-1.0 / (1.0 - u * u))
        return out


_FAMILY_FORMS = {
    "gaussian_mixture": _Mixtures,
    "polynomial_times_gaussian": _PolyGaussians,
    "compact_bump": _Bumps,
}


def generate_profiles(spec: RandomRadialSpec) -> list[RadialProfile]:
    """Deterministic list of ``spec.count`` profiles from one seeded stream.

    Parameters are embedded in each profile's label so any failure can be
    reproduced from the report alone.  The profiles share their family's
    array form (``RadialProfile.family``), so their integrals run as one
    block.
    """
    rng = random.Random(spec.seed)
    drawn = []
    for i in range(spec.count):
        if spec.family == "gaussian_mixture":
            n = rng.randint(1, 4)
            sigmas = [rng.uniform(0.3, 3.0) for _ in range(n)]
            weights = [rng.uniform(-2.0, 2.0) for _ in range(n)]
            # Keep the profile safely nonzero.
            if max(abs(w) for w in weights) < 0.1:
                weights[0] += math.copysign(1.0, weights[0] or 1.0)
            label = (
                f"gaussian_mixture[seed={spec.seed},i={i}]"
                f" w={[round(w, 12) for w in weights]}"
                f" sigma={[round(s, 12) for s in sigmas]}"
            )
            drawn.append(((weights, sigmas), GaussianDecay(max(sigmas)), label))
        elif spec.family == "polynomial_times_gaussian":
            degree = rng.randint(0, 6)
            coeffs = [rng.uniform(-1.5, 1.5) for _ in range(degree + 1)]
            if max(abs(c) for c in coeffs) < 0.1:
                coeffs[0] += math.copysign(1.0, coeffs[0] or 1.0)
            sigma = rng.uniform(0.4, 2.5)
            label = (
                f"polynomial_times_gaussian[seed={spec.seed},i={i}]"
                f" coeffs={[round(c, 12) for c in coeffs]} sigma={round(sigma, 12)}"
            )
            drawn.append(((coeffs, sigma), GaussianDecay(sigma), label))
        else:
            radius = rng.uniform(0.5, 5.0)
            amplitude = rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 2.0)
            label = (
                f"compact_bump[seed={spec.seed},i={i}]"
                f" amplitude={round(amplitude, 12)} radius={round(radius, 12)}"
            )
            drawn.append(((amplitude, radius), CompactSupport(radius), label))
    values = _FAMILY_FORMS[spec.family]([params for params, _, _ in drawn]).values
    return [
        family_profile(values, i, decay, label)
        for i, (_, decay, label) in enumerate(drawn)
    ]


# --- oracle integrator ------------------------------------------------------

# 10-point Gauss-Legendre abscissae/weights on [-1, 1].
_GL_X = (
    0.148874338981631210884826001130,
    0.433395394129247190799265943166,
    0.679409568299024406234327365115,
    0.865063366688984510732096688423,
    0.973906528517171720077964012084,
)
_GL_W = (
    0.295524224714752870173892994651,
    0.269266719309996355091226921569,
    0.219086362515982043995534934228,
    0.149451349150580593145776339658,
    0.066671344308688137593568809893,
)


# Panels per integrand call: bounds the node arrays (and J's Miller table)
# of a deep refinement level.
_PANELS_PER_CALL = 4096


def _oracle_finite(f, a, b, tol) -> QuadResult:
    # Uniform dyadic refinement with a golden-ratio initial split: shares
    # no subdivision logic with the adaptive production rule.  ``f`` values
    # arrays of nodes; each level sums its 10-point Gauss-Legendre panels in
    # order.
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    cuts = [a, a + (b - a) * (1.0 - phi), a + (b - a) * phi, b]
    prev = None
    evals = 0
    for level in range(18):
        i = np.arange(2**level)
        edges = [(lo + i * ((hi - lo) / i.size), lo + (i + 1) * ((hi - lo) / i.size))
                 for lo, hi in zip(cuts[:-1], cuts[1:])]
        lows = np.concatenate([lo for lo, _ in edges])
        highs = np.concatenate([hi for _, hi in edges])
        total = 0.0
        for start in range(0, lows.size, _PANELS_PER_CALL):
            lo = lows[start:start + _PANELS_PER_CALL]
            hi = highs[start:start + _PANELS_PER_CALL]
            c = 0.5 * (lo + hi)
            h = 0.5 * (hi - lo)
            dx = h[:, None] * np.array(_GL_X)
            fs = f(np.stack([c[:, None] - dx, c[:, None] + dx]).ravel()).reshape(2, *dx.shape)
            acc = np.zeros(lo.size)
            for j, w in enumerate(_GL_W):
                acc = acc + w * (fs[0, :, j] + fs[1, :, j])
            for panel in (acc * h).tolist():
                total += panel
        evals += 10 * lows.size
        if prev is not None:
            err = abs(total - prev)
            if err <= max(tol * abs(total), 1e-15):
                return QuadResult(total, err, evals, True)
        prev = total
    return QuadResult(prev, abs(prev), evals, False)


def _oracle_oscillatory(spec: OscillatoryIntegrand, tol) -> QuadResult:
    spec.check_integrable()
    nu = spec.order.nu

    # Partition at the midpoints between consecutive zeros (the Bessel
    # extrema), shifted by half an arch relative to production.
    def boundary(k: int) -> float:
        return 0.5 * (bessel_j_zero(nu, k) + bessel_j_zero(nu, k + 1))

    cells = 48 if spec.alternates else 96
    partial = []
    xs = []
    total = 0.0
    evals = 0
    for k in range(cells):
        a = 0.0 if k == 0 else boundary(k)
        b = boundary(k + 1)
        res = _oracle_finite(spec, a, b, tol * 1e-2)
        evals += res.evaluations
        total += res.value
        xs.append(b)
        partial.append(total)
    if spec.alternates:
        est, err = wynn_epsilon(partial)
        return QuadResult(est, err, evals, err <= tol * abs(est))
    # Deeper tail model than production (six correction terms).
    window = len(xs) // 2
    x = np.asarray(xs[-window:])
    s = np.asarray(partial[-window:])
    t = x[-1] / x
    w = x ** (1.0 - spec.tail_exponent)
    cols = [np.ones_like(x)] + [-w * t**j for j in range(6)]
    design = np.column_stack(cols)
    sol, *_ = np.linalg.lstsq(design, s, rcond=None)
    sol_lo, *_ = np.linalg.lstsq(design[:, :-1], s, rcond=None)
    est = float(sol[0])
    err = abs(est - float(sol_lo[0])) + float(np.max(np.abs(s - design @ sol)))
    return QuadResult(est, err, evals, err <= tol * abs(est))


def oracle_integrate(
    f: "Callable[[float], float] | OscillatoryIntegrand",
    domain: tuple[float, float],
    tol: float = DEFAULT_REL_TOL,
) -> QuadResult:
    """Ground-truth integral for tests: independent scheme, tolerance/100.

    ``f`` is either a plain scalar integrand with a (possibly infinite)
    domain, mapped over each array of nodes, or an
    :class:`OscillatoryIntegrand` (domain ignored, [0, inf) implied),
    called on the arrays.
    """
    inner_tol = tol * 1e-2
    if isinstance(f, OscillatoryIntegrand):
        return _oracle_oscillatory(f, inner_tol)

    values = _mapped(f)

    def mapped(t: np.ndarray) -> np.ndarray:
        # [0, inf) onto [0, 1) by r = t / (1 - t).
        u = 1.0 - t
        fr = values(t / u)
        return np.where(fr == 0.0, 0.0, fr / (u * u))

    a, b = domain
    if not math.isinf(b):
        return _oracle_finite(values, a, b, inner_tol)
    if a != 0.0:
        raise DomainError("semi-infinite oracle domain must start at 0")
    return _oracle_finite(mapped, 0.0, 1.0, inner_tol)


# --- dominance suite --------------------------------------------------------


class DominancePoint(NamedTuple("DominancePoint", [
    ("d", int), ("p", float), ("q", float), ("trials", int), ("max_ratio", Optional[float]),
    ("k_rad", Optional[float]), ("margin", Optional[float]), ("argmax_label", str),
    ("failures", list[dict]), ("error", Optional[str]),
])):
    """One grid point of the suite.  ``error`` is set, and ``k_rad``,
    ``max_ratio`` and ``margin`` are None, where the sharp constant raised
    ``DomainError`` or ``ConvergenceError``.  A point made without
    ``failures`` gets its own empty list."""

    __slots__ = ()

    def __new__(cls, d, p, q, trials, max_ratio=None, k_rad=None, margin=None,
                argmax_label="", failures=None, error=None) -> "DominancePoint":
        return super().__new__(cls, d, p, q, trials, max_ratio, k_rad, margin, argmax_label,
                               [] if failures is None else failures, error)


class DominanceReport(NamedTuple):
    spec: RandomRadialSpec
    tol: float
    points: list[DominancePoint]

    def to_json(self) -> str:
        payload = {
            "spec": self.spec._asdict(),
            "tol": self.tol,
            "points": [
                {
                    "grid_point": {"d": pt.d, "p": pt.p, "q": pt.q},
                    "trials": pt.trials,
                    "max_ratio": pt.max_ratio,
                    "k_rad": pt.k_rad,
                    "margin": pt.margin,
                    "argmax_label": pt.argmax_label,
                    "failures": pt.failures,
                    **({} if pt.error is None else {"failed": True, "error": pt.error}),
                }
                for pt in self.points
            ],
        }
        return json.dumps(payload, sort_keys=True, indent=2)


def run_dominance_suite(
    params_grid: Sequence[RestrictionParams],
    spec: RandomRadialSpec,
    tol: float = 1e-6,
    quad_tol: float = DEFAULT_REL_TOL,
    extra_profiles: Sequence[RadialProfile] = (),
) -> DominanceReport:
    """Empirical dominance check of the sharp radial constant.

    Every profile's restriction ratio must stay below
    k_rad * (1 + tol); violations land in the report's failure list
    (with the profile parameters needed to reproduce them) rather than
    raising, and so does a profile whose ratio raises ``DomainError`` or
    ``ConvergenceError`` (as ``{"label", "error"}``, left out of the
    maximum).  Every grid point goes through ``evaluate_grid`` before any
    profile work, so an inadmissible grid raises its ``DivergenceError``
    first; a point whose constant raises another ``DomainError`` or a
    ``ConvergenceError`` is reported failed and gets no profile work.

    Each grid point takes the ratios of all profiles with
    ``restriction.ratios_z``: the L_p norms of a family's profiles run as
    one block of the adaptive rule and their transforms as a second, each
    profile's result the one it gets alone, while every extra profile
    without a family array form runs alone.  So the report is the one a
    loop of one-profile ``ratio_z`` calls gives: per point, ratios in
    profile order, the first maximum as ``argmax_label``, failures in
    profile order.  A non-finite ``tol`` is a ``DomainError``: at NaN no
    ratio could ever be a violation.  A negative ``tol`` is allowed.
    """
    if not math.isfinite(tol):
        raise DomainError(f"dominance tolerance must be finite, got {tol!r}")
    sharps = [point.sharp for point in evaluate_grid(params_grid, quad_tol)]
    for sharp in sharps:
        if isinstance(sharp, DivergenceError):
            raise sharp
    profiles = generate_profiles(spec) + list(extra_profiles)
    points = []
    for params, sharp in zip(params_grid, sharps):
        where = (params.d, params.p, params.q, len(profiles))
        if isinstance(sharp, Exception):
            points.append(DominancePoint(*where, error=str(sharp)))
            continue
        k_rad = sharp.k_rad_first_principles
        max_ratio, argmax_label, failures = 0.0, "", []
        for profile, ratio in zip(profiles, ratios_z(params, profiles, quad_tol)):
            if isinstance(ratio, Exception):
                failures.append({"label": profile.label, "error": str(ratio)})
                continue
            if ratio > max_ratio:
                max_ratio, argmax_label = ratio, profile.label
            if ratio > k_rad * (1.0 + tol):
                failures.append({"label": profile.label, "ratio": ratio})
        margin = k_rad * (1.0 + tol) - max_ratio
        points.append(
            DominancePoint(*where, max_ratio, k_rad, margin, argmax_label, failures)
        )
    return DominanceReport(spec=spec, tol=tol, points=points)
