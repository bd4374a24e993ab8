"""Sharp constants for the spherical Fourier restriction inequality on
radial functions, with transfer into Grand Lebesgue Space norms.

The package is organised bottom-up:

- :mod:`sphrestrict.special_fns` -- Gamma, sphere areas, real-order Bessel
  J and its zeros;
- :mod:`sphrestrict.quadrature` -- adaptive Gauss-Kronrod, semi-infinite,
  and oscillatory Bessel-type integrals;
- :mod:`sphrestrict.radial_fourier` -- the radial transform G(s), radial
  L_p norms, and the sphere norm of a transform;
- :mod:`sphrestrict.restriction` -- admissibility, the Gaussian lower
  bound, the sharp radial constant and its extremal profile;
- :mod:`sphrestrict.gls` -- Grand Lebesgue norms, the cut set, the
  transfer weight zeta, and the transfer verifier;
- :mod:`sphrestrict.verify` -- seeded random profiles and independent
  oracle integrators;
- :mod:`sphrestrict.cli` -- the batch command-line interface.

Importing the package loads ``errors``, ``special_fns``, ``quadrature``
and ``restriction``.  The public names of ``radial_fourier``, ``gls`` and
``verify``, and those three submodules themselves, resolve on first
access (PEP 562 ``__getattr__``): a cold ``sweep``, ``tight`` or
``report`` job never loads them, and ``dir``, ``from sphrestrict import
*`` and ``sphrestrict.radial_lp_norm`` work as if they were imported.
"""

import importlib

from .errors import ConvergenceError, DivergenceError, DomainError
from .quadrature import (
    OscillatoryIntegrand,
    QuadResult,
    integrate_finite,
    integrate_oscillatory_bessel,
    integrate_semi_infinite_decaying,
    wynn_epsilon,
)
from .restriction import (
    GaussianBound,
    GridPoint,
    RestrictionParams,
    SharpConstantResult,
    evaluate_grid,
    extremal_profile,
    gaussian_lower_bound,
    gaussian_lower_bound_optimized,
    radial_convergence_admissible,
    ratio_z,
    sharp_radial_constant,
    tomas_stein_admissible,
)
from .special_fns import (
    BesselOrder,
    RadialKernel,
    bessel_j,
    bessel_j_derivative,
    bessel_j_zero,
    gamma,
    sphere_area,
)

# Name -> submodule of each name resolved on first access; a submodule's
# own name maps to itself.
_LAZY = {
    name: layer
    for layer, names in {
        "radial_fourier": (
            "AlgebraicDecay", "CompactSupport", "GaussianDecay", "RadialProfile",
            "gaussian_profile", "radial_hat", "radial_lp_norm",
        ),
        "gls": (
            "PsiWeight", "ZetaWeight", "cut_set", "gls_norm", "verify_transfer",
            "zeta_from_psi",
        ),
        "verify": (
            "RandomRadialSpec", "generate_profiles", "oracle_integrate",
            "run_dominance_suite",
        ),
    }.items()
    for name in (layer, *names)
}


def __getattr__(name: str):
    layer = _LAZY.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{layer}")
    return module if name == layer else getattr(module, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})


__version__ = "0.1.0"

__all__ = [
    "BesselOrder",
    "RadialKernel",
    "gamma",
    "sphere_area",
    "bessel_j",
    "bessel_j_derivative",
    "bessel_j_zero",
    "QuadResult",
    "OscillatoryIntegrand",
    "integrate_finite",
    "integrate_semi_infinite_decaying",
    "integrate_oscillatory_bessel",
    "wynn_epsilon",
    "GaussianDecay",
    "CompactSupport",
    "AlgebraicDecay",
    "RadialProfile",
    "gaussian_profile",
    "radial_hat",
    "radial_lp_norm",
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
    "evaluate_grid",
    "PsiWeight",
    "ZetaWeight",
    "gls_norm",
    "cut_set",
    "zeta_from_psi",
    "verify_transfer",
    "RandomRadialSpec",
    "generate_profiles",
    "oracle_integrate",
    "run_dominance_suite",
    "DomainError",
    "DivergenceError",
    "ConvergenceError",
]
