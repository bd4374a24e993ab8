"""Grand Lebesgue Space norms and the restriction transfer.

For a weight psi, bounded below and positive on an exponent interval
(a, b), the Grand Lebesgue norm of f is sup_p ||f||_p / psi(p).  Chaining
the restriction inequality through the weight produces a transfer weight

    zeta(q) = inf_{p in D} psi(p) * K(p, q)

over the cut set D of exponents where the restriction constant is finite,
such that ||f_hat||_{G zeta, S} <= 1 * ||f||_{G psi} with constant one.

Continuum suprema/infima are realised as grid extrema over the weight's
sample abscissae: the Grand Lebesgue norm is then a lower approximation
of its continuum value and zeta an upper approximation of the continuum
infimum, which is the conservative direction for verifying the transfer
inequality.  Refining a grid can only move both toward their continuum
values (monotonicity is asserted in the tests).

Weights are ingested as sampled (p, psi) pairs (CSV with header
``p,psi``), interpolated piecewise-linearly; evaluation outside the
sampled hull is a domain error rather than an extrapolation.
"""

from __future__ import annotations

import bisect
import csv
import math
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

from .errors import DomainError
from .quadrature import DEFAULT_REL_TOL
from .radial_fourier import RadialProfile, _sphere_modulus, radial_lp_norm
from .restriction import (
    RestrictionParams,
    _kernel_integrals,
    gaussian_lower_bound_optimized,
    radial_convergence_admissible,
    sharp_radial_constant,
    tomas_stein_admissible,
)
from .special_fns import RadialKernel, _replace_validated

__all__ = [
    "PsiWeight",
    "ZetaWeight",
    "TransferReport",
    "gls_norm",
    "cut_set",
    "zeta_from_psi",
    "verify_transfer",
]

CONSTANT_SOURCES = ("radial_sharp", "gaussian_lower")


class PsiWeight(NamedTuple("PsiWeight", [("a", float), ("b", float), ("samples", tuple)])):
    """A sampled weight psi(p) on the exponent interval (a, b).

    Sample abscissae must be strictly increasing and inside (a, b), and
    the sampled values bounded away from zero.  ``b`` may be ``math.inf``.
    """

    __slots__ = ()
    _replace = _replace_validated

    def __new__(cls, a: float, b: float, samples: tuple[tuple[float, float], ...]) -> "PsiWeight":
        if not (1.0 <= a < b):
            raise DomainError(f"need 1 <= a < b, got a={a!r}, b={b!r}")
        if not samples:
            raise DomainError("psi weight needs at least one sample")
        ps = [p for p, _ in samples]
        if any(not a < p < b for p in ps):
            raise DomainError(f"sample abscissae must lie inside ({a}, {b})")
        if any(ps[i] >= ps[i + 1] for i in range(len(ps) - 1)):
            raise DomainError("sample abscissae must be strictly increasing")
        for p, v in samples:
            if not v > 0.0:  # NaN included
                raise DomainError(
                    f"psi must be bounded below by a positive constant, got psi({p!r}) = {v!r}"
                )
        return super().__new__(cls, a, b, samples)

    @property
    def grid(self) -> tuple[float, ...]:
        return tuple(p for p, _ in self.samples)

    def __call__(self, p: float) -> float:
        ps = [pp for pp, _ in self.samples]
        vs = [v for _, v in self.samples]
        if p < ps[0] or p > ps[-1]:
            raise DomainError(
                f"psi sampled on [{ps[0]}, {ps[-1]}]; extrapolation to p={p!r} "
                "is not allowed"
            )
        i = bisect.bisect_left(ps, p)
        if i < len(ps) and ps[i] == p:
            return vs[i]
        t = (p - ps[i - 1]) / (ps[i] - ps[i - 1])
        return vs[i - 1] + t * (vs[i] - vs[i - 1])

    @classmethod
    def from_function(
        cls, fn, grid: Sequence[float], a: Optional[float] = None,
        b: Optional[float] = None,
    ) -> "PsiWeight":
        grid = sorted(grid)
        lo = a if a is not None else max(1.0, grid[0] - 1e-9)
        hi = b if b is not None else grid[-1] + 1e-9
        return cls(a=lo, b=hi, samples=tuple((p, fn(p)) for p in grid))

    @classmethod
    def from_csv(
        cls, path: "str | Path", a: Optional[float] = None, b: Optional[float] = None
    ) -> "PsiWeight":
        try:
            with open(path, newline="") as fh:
                lines = list(csv.reader(fh))
        except (OSError, UnicodeDecodeError) as exc:
            raise DomainError(f"cannot read the psi CSV: {exc}") from None
        if not lines or [h.strip() for h in lines[0][:2]] != ["p", "psi"]:
            raise DomainError(
                f"{path}: psi CSV must start with the header 'p,psi'"
            )
        rows: list[tuple[float, float]] = []
        for line in lines[1:]:
            if not line:
                continue
            try:
                rows.append((float(line[0]), float(line[1])))
            except (IndexError, ValueError):
                raise DomainError(f"{path}: expected a row 'p,psi', got {line!r}") from None
        if not rows:
            raise DomainError(f"{path}: no samples")
        lo = a if a is not None else max(1.0, rows[0][0] - 1e-9)
        hi = b if b is not None else rows[-1][0] + 1e-9
        return cls(a=lo, b=hi, samples=tuple(rows))


class ZetaWeight(NamedTuple):
    """The transfer weight zeta(q), with the constant table it came from.

    ``constant_table`` rows are (p, K-factor) with the q-dependence
    A(d)^(1/q) split off; see :func:`zeta_from_psi`.
    """

    samples: tuple[tuple[float, float], ...]
    source: str
    constant_table: tuple[tuple[float, float], ...] = ()


def gls_norm(
    norm_samples: Sequence[tuple[float, float]], psi: PsiWeight
) -> float:
    """Grid supremum of ||f||_p / psi(p) over the sampled exponents.

    A lower approximation of the continuum Grand Lebesgue norm; refining
    the sample grid can only increase it.
    """
    best: Optional[float] = None
    for p, norm in norm_samples:
        if not psi.a < p < psi.b:
            continue
        if norm < 0.0:
            raise DomainError(f"norms must be nonnegative, got {norm!r} at p={p!r}")
        ratio = norm / psi(p)
        if best is None or ratio > best:
            best = ratio
    if best is None:
        raise DomainError(
            f"no norm sample lies inside the weight interval ({psi.a}, {psi.b})"
        )
    return best


def cut_set(
    d: int, p_grid: Sequence[float], constant_source: str = "radial_sharp"
) -> list[float]:
    """Exponents from the grid usable for the transfer in dimension d.

    Retains p for which some q >= 1 passes the Tomas-Stein necessary
    conditions and, when the sharp radial constants are the source, the
    kernel-integral convergence window.  May legitimately be empty.
    """
    if constant_source not in CONSTANT_SOURCES:
        raise DomainError(f"unknown constant source {constant_source!r}")
    if not p_grid:
        raise DomainError("cut_set needs a nonempty grid")
    # Some q >= 1 passes exactly when q = 1 does: the p bound forces
    # ((d-1)/(d+1)) p' >= 2, so the q bound never decides at q = 1.
    kept = [
        p for p in p_grid
        if 1.0 <= p < math.inf and tomas_stein_admissible(RestrictionParams(d, p, 1.0))
    ]
    if constant_source == "radial_sharp":
        kept = [p for p in kept if radial_convergence_admissible(d, p)]
    return kept


def zeta_from_psi(
    psi: PsiWeight,
    q_grid: Sequence[float],
    d: int,
    constant_source: str = "radial_sharp",
    tol: float = DEFAULT_REL_TOL,
) -> ZetaWeight:
    """zeta(q) = min over the cut-set grid of psi(p) * K(p, q).

    ``constant_source`` selects K: the sharp radial constants
    (``radial_sharp``, the exact choice for radial verification) or the
    optimised Gaussian lower bounds (``gaussian_lower``, reporting only).
    The q-dependence of both enters through A(d)^(1/q) alone, so each p
    costs one kernel integral regardless of the q grid, and the cut set's
    kernel integrals are computed as one block.
    """
    if not q_grid:
        raise DomainError("zeta_from_psi needs a nonempty q grid")
    if any(q < 1.0 for q in q_grid):
        raise DomainError("q grid entries must be >= 1")
    kept = cut_set(d, psi.grid, constant_source)
    if not kept:
        filters = "Tomas-Stein necessary conditions"
        if constant_source == "radial_sharp":
            filters += " and the convergence window 1 < p < 2d/(d+1)"
        raise DomainError(
            f"cut set is empty: no grid exponent passes the {filters} "
            f"in dimension {d}"
        )
    area = RadialKernel(d).sphere_area
    if constant_source == "radial_sharp":
        _kernel_integrals(d, kept, tol)
    # K(p, q) = area^(1/q) * factor(p) for both sources.
    factors: list[tuple[float, float]] = []
    for p in kept:
        if constant_source == "radial_sharp":
            base = sharp_radial_constant(RestrictionParams(d, p, 1.0), tol)
            factor = base.k_rad_first_principles / area
        else:
            base = gaussian_lower_bound_optimized(RestrictionParams(d, p, 1.0))
            factor = base.bound / area
        factors.append((p, factor))
    samples = []
    for q in q_grid:
        aq = area ** (1.0 / q)
        zeta_q = min(psi(p) * aq * factor for p, factor in factors)
        samples.append((q, zeta_q))
    return ZetaWeight(
        samples=tuple(samples),
        source=constant_source,
        constant_table=tuple(factors),
    )


class TransferReport(NamedTuple):
    """Both sides of the transfer inequality for one profile."""

    left: float
    right: float
    ratio: float
    ok: bool
    profile_label: str


def verify_transfer(
    psi: PsiWeight,
    profile: RadialProfile,
    d: int,
    q_grid: Sequence[float],
    tol: float = DEFAULT_REL_TOL,
) -> TransferReport:
    """Check ||f_hat||_{G zeta, S} <= ||f||_{G psi} (1 + tol) for one profile.

    The left side is the grid supremum over q of the sphere norm divided
    by zeta(q); the right side the Grand Lebesgue norm of the profile over
    the weight's own grid.  The achieved ratio is reported (values near 1
    indicate the inequality is tight for this profile).  A right side of 0
    is a ``DomainError`` naming the profile, as a zero L_p norm is in
    ``restriction.ratios_z``: the ratio is then undefined.
    """
    kernel = RadialKernel(d)
    zeta = zeta_from_psi(psi, q_grid, d, "radial_sharp", tol)
    norm_samples = tuple(
        (p, radial_lp_norm(kernel, profile, p, tol)) for p in psi.grid
    )
    right = gls_norm(norm_samples, psi)
    if right == 0.0:
        raise DomainError(
            f"profile {profile.label!r} has zero Grand Lebesgue norm: its L_p norm "
            "came out 0 at every p of the weight's grid"
        )
    g1 = _sphere_modulus(kernel, profile, tol)
    left = 0.0
    for q, z in zeta.samples:
        left = max(left, kernel.sphere_area ** (1.0 / q) * g1 / z)
    return TransferReport(
        left=left,
        right=right,
        ratio=left / right,
        ok=left <= right * (1.0 + tol),
        profile_label=profile.label,
    )
