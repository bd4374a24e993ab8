"""Sharp constants for the spherical restriction inequality on radial
functions.

For exponents (p, q) the restriction ratio of a nonzero f in L_p(R^d) is

    Z(f) = ||f_hat||_{L_q(S^{d-1})} / ||f||_{L_p(R^d)},

and the radial sharp constant is the supremum of Z over nonzero radial f.
Writing nu = (d-2)/2, p' = p/(p-1) and

    beta = (2 + d(p-2)) / (2(p-1))  =  p'(1 - d/2) + d - 1,

duality in the weighted space L_p((0,inf), r^(d-1) dr) gives the
first-principles value

    K = A(d)^(1/q - 1/p) * (2 pi)^(d/2) *
        [ int_0^inf r^beta |J_nu(r)|^(p') dr ]^(1/p'),

finite exactly when 1 < p < 2d/(d+1).  The supremum is attained by
F0(r) = C * sign(g(r)) |g(r)|^(1/(p-1)) with pairing function
g(r) = r^(1-d) V_d(1, r), normalised to unit L_p norm.

A closed-form variant of the constant assembled with the alternative
coefficient P = 2^(-1/p) Gamma^(1/p)(d/2) A^(1/q) (2 pi)^(-d/(2 p')) is
computed alongside for comparison; it is inconsistent with the Gaussian
ratio identities that the first-principles normalisation reproduces to
1e-8, so only the first-principles value is bound by tests.  The same
applies to the Gaussian lower bound: the literal closed form

    A^(1/q) (2 pi)^(a/2) p^(d/(2p)) a^(a/2),     a = d(1 - 1/p),

overstates the true maximum of the Gaussian ratio by the factor e^(a/2)
(the maximum of e^(-s^2/2) s^a over s is e^(-a/2) a^(a/2), attained at
s^2 = a); both are reported, and the discrepancy factor is part of what
``evaluate_grid`` returns per grid point.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple, Sequence, Union

import numpy as np

from .errors import ConvergenceError, DivergenceError, DomainError
from .quadrature import (
    DEFAULT_REL_TOL,
    OscillatoryIntegrand,
    QuadResult,
    _only,
    check_tolerance,
    integrate_oscillatory_bessel_block,
)
from .special_fns import (
    RadialKernel, _replace_validated, bessel_j_array, bessel_j_zero, find_first_zeros, gamma,
)

if TYPE_CHECKING:
    from .radial_fourier import Outcome, RadialProfile

__all__ = [
    "RestrictionParams",
    "SharpConstantResult",
    "GaussianBound",
    "GridPoint",
    "tomas_stein_admissible",
    "radial_convergence_admissible",
    "gaussian_lower_bound",
    "gaussian_lower_bound_optimized",
    "sharp_radial_constant",
    "extremal_profile",
    "ratio_z",
    "ratios_z",
    "evaluate_grid",
]


class RestrictionParams(NamedTuple("RestrictionParams", [
    ("d", int), ("p", float), ("q", float), ("p_prime", float), ("beta", float),
])):
    """The exponent triple (d, p, q) with its derived quantities.

    ``p_prime`` is the Hoelder conjugate (infinite at p = 1); ``beta`` is
    the radial kernel exponent, NaN at p = 1 where the dual formulation
    degenerates.
    """

    __slots__ = ()
    _replace = _replace_validated

    def __new__(cls, d: int, p: float, q: float) -> "RestrictionParams":
        if int(d) != d or d < 2:
            raise DomainError(f"dimension must be an integer >= 2, got {d!r}")
        d = int(d)
        if not (math.isfinite(p) and p >= 1.0):
            raise DomainError(f"p must be a real >= 1, got {p!r}")
        if not (math.isfinite(q) and q >= 1.0):
            raise DomainError(f"q must be a real >= 1, got {q!r}")
        if p == 1.0:
            return super().__new__(cls, d, p, q, math.inf, math.nan)
        beta = (2.0 + d * (p - 2.0)) / (2.0 * (p - 1.0))
        return super().__new__(cls, d, p, q, p / (p - 1.0), beta)

    def __getnewargs__(self) -> tuple:
        return (self.d, self.p, self.q)

    @property
    def kernel(self) -> RadialKernel:
        return RadialKernel(self.d)


def tomas_stein_admissible(params: RestrictionParams) -> bool:
    """Necessary conditions for the restriction inequality:
    1 <= p <= (2d+2)/(d+3) and q <= ((d-1)/(d+1)) * p/(p-1).

    The q condition is vacuous at p = 1.  These are necessary, not known
    to be sufficient; this check does not claim to characterise the full
    admissibility region.
    """
    d = params.d
    if params.p > (2.0 * d + 2.0) / (d + 3.0):
        return False
    if params.p == 1.0:
        return True
    return params.q <= (d - 1.0) / (d + 1.0) * params.p_prime


def radial_convergence_admissible(d: int, p: float) -> bool:
    """Whether the kernel integral converges: 1 < p < 2d/(d+1), strictly."""
    if int(d) != d or d < 2:
        raise DomainError(f"dimension must be an integer >= 2, got {d!r}")
    return 1.0 < p < 2.0 * d / (d + 1.0)


def gaussian_lower_bound(params: RestrictionParams, sigma: float) -> float:
    """Restriction ratio of the Gaussian density with width sigma.

    Closed form e^(-sigma^2/2) A^(1/q) (2 pi)^((d/2)(1-1/p)) p^(d/(2p))
    sigma^(d(1-1/p)); every value is a lower bound for the sharp constant.
    """
    if not (math.isfinite(sigma) and sigma > 0.0):
        raise DomainError(f"sigma must be finite and positive, got {sigma!r}")
    return _gaussian_ratio(params, params.kernel.sphere_area, sigma)


def _gaussian_ratio(params: RestrictionParams, area: float, sigma: float) -> float:
    d = params.d
    a = d * (1.0 - 1.0 / params.p)
    try:
        ratio = (
            math.exp(-0.5 * sigma * sigma)
            * area ** (1.0 / params.q)
            * (2.0 * math.pi) ** (0.5 * a)
            * params.p ** (d / (2.0 * params.p))
            * sigma**a
        )
    except OverflowError:
        ratio = math.inf
    if math.isinf(ratio):
        raise _beyond_double(f"the Gaussian ratio at sigma = {sigma!r}", params)
    return ratio


def _beyond_double(what: str, params: RestrictionParams) -> DomainError:
    return DomainError(
        f"{what} exceeds double-precision range at (d={params.d}, "
        f"p={params.p!r}, q={params.q!r})"
    )


class GaussianBound(NamedTuple):
    """The Gaussian bound at its maximiser, with the literal closed form."""

    bound: float
    sigma_star: float
    paper_closed_form: float

    @property
    def gauss_ratio(self) -> float:
        """``paper_closed_form / bound``: the discrepancy factor, e^(a/2)."""
        return self.paper_closed_form / self.bound


def gaussian_lower_bound_optimized(params: RestrictionParams) -> GaussianBound:
    """sup over sigma of the Gaussian ratio, at its closed-form maximiser.

    The ratio is e^(-s^2/2) s^a times a constant, a = d(1 - 1/p), which
    peaks at sigma_star = sqrt(a); the bound is the ratio there.  At p = 1
    the exponent vanishes, sigma_star is 0 and the bound is the supremum
    approached as sigma -> 0 (``0.0 ** 0.0`` is 1).  ``paper_closed_form``
    is the literal bound without the e^(-a/2) maximisation factor, reported
    for comparison only.  A value beyond double precision is a
    ``DomainError``; the literal form, e^(a/2) times the bound, leaves
    double range first.
    """
    d = params.d
    area = params.kernel.sphere_area
    a = d * (1.0 - 1.0 / params.p)
    base = (
        area ** (1.0 / params.q)
        * (2.0 * math.pi) ** (0.5 * a)
        * params.p ** (d / (2.0 * params.p))
    )
    try:
        literal = base * math.pow(a, 0.5 * a) if a > 0.0 else base
    except OverflowError:
        literal = math.inf
    if math.isinf(literal):
        raise _beyond_double("the literal closed form", params)
    sigma_star = math.sqrt(a)
    return GaussianBound(
        bound=_gaussian_ratio(params, area, sigma_star),
        sigma_star=sigma_star,
        paper_closed_form=literal,
    )


class SharpConstantResult(NamedTuple):
    """Both routes to the sharp radial constant, plus the kernel integral."""

    k_rad_first_principles: float
    k_rad_paper_closed_form: float
    kernel_integral: QuadResult

    @property
    def k_rad_ratio(self) -> float:
        """``k_rad_paper_closed_form / k_rad_first_principles``."""
        return self.k_rad_paper_closed_form / self.k_rad_first_principles


# Kernel integrals by (d, p, tol): the result, or the error computing it
# raised.  q does not enter the integral, so one entry serves every q.
_KERNEL_INTEGRALS: dict[tuple[int, float, float], Outcome[QuadResult]] = {}


def _kernel_integrals(d: int, ps: Sequence[float], tol: float) -> None:
    """Compute, as one block, the kernel integral of every exponent of
    ``ps`` inside the convergence window that ``_KERNEL_INTEGRALS`` does
    not hold yet, and store each result or error there.  The exponents of
    one dimension share their arches, and each result is the one the
    exponent gets alone (``integrate_oscillatory_bessel_block``)."""
    check_tolerance(tol)
    keys = _uncomputed(d, ps, tol)
    if not keys:
        return
    # Past d = 343 there is no double sphere area; and a block that raises
    # fails its own exponents, never the rest of a grid.
    try:
        order = RadialKernel(d).order
        specs = []
        for _, p, _ in keys:
            params = RestrictionParams(d, p, 1.0)
            specs.append(OscillatoryIntegrand(order, params.beta, params.p_prime))
        outcomes = integrate_oscillatory_bessel_block(specs, tol)
    except (DomainError, ConvergenceError) as exc:
        outcomes = [exc] * len(keys)
    _KERNEL_INTEGRALS.update(zip(keys, outcomes))


def _uncomputed(d: int, ps: Sequence[float], tol: float) -> list[tuple[int, float, float]]:
    """The keys of the exponents of ``ps`` inside the convergence window
    whose kernel integral ``_KERNEL_INTEGRALS`` does not hold yet."""
    keys = [(d, p, tol) for p in dict.fromkeys(ps) if radial_convergence_admissible(d, p)]
    return [key for key in keys if key not in _KERNEL_INTEGRALS]


def _kernel_integral(params: RestrictionParams, tol: float) -> QuadResult:
    """The converged kernel integral int_0^inf r^beta |J_nu|^(p') dr."""
    if not radial_convergence_admissible(params.d, params.p):
        upper = 2.0 * params.d / (params.d + 1.0)
        raise DivergenceError(
            f"the radial kernel integral diverges for p = {params.p!r} in "
            f"dimension {params.d}: the convergence window is 1 < p < "
            f"2d/(d+1) = {upper!r}"
        )
    _kernel_integrals(params.d, [params.p], tol)
    quad = _only([_KERNEL_INTEGRALS[(params.d, params.p, tol)]])
    return quad.expect_converged(f"kernel integral for (d={params.d}, p={params.p})")


def sharp_radial_constant(
    params: RestrictionParams, tol: float = DEFAULT_REL_TOL
) -> SharpConstantResult:
    """The sharp constant over radial functions, by both routes.

    ``k_rad_first_principles`` carries the normalisation derived from the
    A(d)-consistent radial norms (the value the tests bind);
    ``k_rad_paper_closed_form`` applies the alternative closed-form
    coefficient P (see module docstring) to the same kernel integral.
    """
    quad = _kernel_integral(params, tol)
    d = params.d
    area = params.kernel.sphere_area
    dual_norm = quad.value ** (1.0 / params.p_prime)
    k_fp = (
        area ** (1.0 / params.q - 1.0 / params.p)
        * (2.0 * math.pi) ** (0.5 * d)
        * dual_norm
    )
    coeff_p = (
        2.0 ** (-1.0 / params.p)
        * gamma(0.5 * d) ** (1.0 / params.p)
        * area ** (1.0 / params.q)
        * (2.0 * math.pi) ** (-0.5 * d / params.p_prime)
    )
    return SharpConstantResult(
        k_rad_first_principles=k_fp,
        k_rad_paper_closed_form=coeff_p * dual_norm,
        kernel_integral=quad,
    )


def extremal_profile(
    params: RestrictionParams, tol: float = DEFAULT_REL_TOL
) -> RadialProfile:
    """The Hoelder-equality profile F0 = C sign(g) |g|^(1/(p-1)),
    g(r) = r^(1-d) V_d(1, r), normalised to unit radial L_p norm.

    Equality in the duality bound forces |F0|^p proportional to |g|^(p')
    with matching signs, which is the stated formula; the sign factor is
    essential because g changes sign at every Bessel zero.
    """
    from .radial_fourier import AlgebraicDecay, family_profile

    quad = _kernel_integral(params, tol)
    d = params.d
    nu = params.kernel.order.nu
    area = params.kernel.sphere_area
    inv_pm1 = 1.0 / (params.p - 1.0)
    half_2_minus_d = 0.5 * (2.0 - d)

    # With C = 1 the radial L_p norm is [A(d) (2 pi)^(d p'/2) I]^(1/p),
    # because r^(d-1) |F0|^p reduces to (2 pi)^(d p'/2) r^beta |J_nu|^(p').
    two_pi_pow = (2.0 * math.pi) ** (0.5 * d * params.p_prime)
    unnorm = (area * two_pi_pow * quad.value) ** (1.0 / params.p)
    c_norm = 1.0 / unnorm

    front = (2.0 * math.pi) ** (0.5 * d)

    def values(r: np.ndarray, which: np.ndarray) -> np.ndarray:
        # F0 at the nodes r > 0 (the family's one profile).  Below r = 1e-3
        # the power r^((2-d)/2) can overflow on its own: stay in log space
        # until the exponents have been combined.
        j = bessel_j_array(nu, r)
        aj = np.abs(j)
        with np.errstate(all="ignore"):
            magnitude = np.power(front * np.power(r, half_2_minus_d) * aj, inv_pm1)
            near = np.flatnonzero(r < 1e-3)
            magnitude[near] = np.exp(inv_pm1 * (
                math.log(front) + half_2_minus_d * np.log(r[near]) + np.log(aj[near])
            ))
        return np.where(j == 0.0, 0.0, c_norm * np.copysign(magnitude, j))

    def breakpoints(k: int) -> float:
        return bessel_j_zero(nu, k)

    decay_exp = 0.5 * (d - 1.0) * inv_pm1
    decay_coeff = c_norm * (front * math.sqrt(2.0 / math.pi)) ** inv_pm1
    return family_profile(
        values, 0,
        decay=AlgebraicDecay(coeff=decay_coeff, exponent=decay_exp),
        label=f"extremal(d={d}, p={params.p!r})",
        breakpoints=breakpoints,
    )


def ratio_z(
    params: RestrictionParams,
    profile: RadialProfile,
    tol: float = DEFAULT_REL_TOL,
) -> float:
    """The restriction ratio Z(f) = ||f_hat||_{L_q(S)} / ||f||_p of a profile."""
    return _only(ratios_z(params, [profile], tol))


def ratios_z(
    params: RestrictionParams,
    profiles: Sequence[RadialProfile],
    tol: float = DEFAULT_REL_TOL,
) -> list[Outcome[float]]:
    """``ratio_z`` of each profile, or the error it raised: the error of its
    L_p norm, else a ``DomainError`` for a zero norm, else the error of its
    transform.  The norms run in blocks, then the transforms of the
    profiles with a nonzero norm (see ``radial_fourier._radial_integral``).
    """
    from .radial_fourier import radial_lp_norms, sphere_norms_of_radial_hat

    kernel = params.kernel
    ratios = radial_lp_norms(kernel, profiles, params.p, tol)
    for i, (profile, denom) in enumerate(zip(profiles, ratios)):
        if not isinstance(denom, Exception) and denom == 0.0:
            ratios[i] = DomainError(f"profile {profile.label!r} has zero L_{params.p} norm")
    live = [i for i, denom in enumerate(ratios) if not isinstance(denom, Exception)]
    numers = sphere_norms_of_radial_hat(kernel, [profiles[i] for i in live], params.q, tol)
    for i, numer in zip(live, numers):
        ratios[i] = numer if isinstance(numer, Exception) else numer / ratios[i]
    return ratios


class GridPoint(NamedTuple):
    """One grid point from ``evaluate_grid``: the result of each block, or
    the ``DomainError``/``ConvergenceError`` that block raised."""

    params: RestrictionParams
    sharp: Union[SharpConstantResult, DomainError, ConvergenceError]
    gauss: Union[GaussianBound, DomainError, ConvergenceError]

    @property
    def gauss_ratio_predicted(self) -> Union[float, DomainError]:
        """e^(a/2), a = d(1 - 1/p), the ``gauss_ratio`` the module docstring
        predicts, or the ``DomainError`` saying it leaves double range."""
        a = self.params.d * (1.0 - 1.0 / self.params.p)
        try:
            return math.exp(0.5 * a)
        except OverflowError:
            return _beyond_double("the predicted Gaussian ratio e^(a/2)", self.params)

    @property
    def errors(self) -> list[str]:
        """Why the point failed: each block, then the predicted ratio."""
        values = (self.gauss, self.sharp, self.gauss_ratio_predicted)
        return [str(value) for value in values if isinstance(value, Exception)]


def evaluate_grid(grid: Sequence[RestrictionParams], tol: float) -> list[GridPoint]:
    """Both blocks at every grid point, in grid order, the Gaussian block
    first.  A block that raises ``DomainError`` (``DivergenceError``
    included) or ``ConvergenceError`` leaves the error in its place; the
    other block and the rest of the grid still run.  A tolerance outside
    0 < tol < inf is a ``DomainError`` before any grid point.

    Before the first point, the first zeros of J_nu of every dimension
    with a kernel integral to compute are found in one Newton run
    (``special_fns.find_first_zeros``).  Before the first point of each
    dimension, the kernel integrals of all its points are computed as one
    block (``_kernel_integrals``)."""
    check_tolerance(tol)
    exponents: dict[int, list[float]] = {}
    for params in grid:
        exponents.setdefault(params.d, []).append(params.p)
    # (d - 2) / 2 is RadialKernel(d)'s order.  Past d = 343 the sphere area
    # leaves double range, so no kernel integral there asks for zeros.
    find_first_zeros(
        (d - 2) / 2.0 for d, ps in exponents.items() if d <= 343 and _uncomputed(d, ps, tol)
    )
    points = []
    for params in grid:
        if params.d in exponents:
            _kernel_integrals(params.d, exponents.pop(params.d), tol)
        try:
            gauss = gaussian_lower_bound_optimized(params)
        except (DomainError, ConvergenceError) as exc:
            gauss = exc
        try:
            sharp = sharp_radial_constant(params, tol)
        except (DomainError, ConvergenceError) as exc:
            sharp = exc
        points.append(GridPoint(params, sharp, gauss))
    return points
