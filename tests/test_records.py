"""The record contract.

The package's records are ``typing.NamedTuple``s; they were ``@dataclass``
classes.  The values frozen here were taken from the dataclass records:
the ``repr`` of a sample of each public record, the ``DomainError``
message of every invalid input, and the bits of the derived fields
``p_prime``, ``beta`` and ``sphere_area``.  Besides, equal inputs give
equal, equally hashed records, no field can be assigned, every record
survives ``pickle``, and ``_replace`` of a validated record validates and
derives again, as ``dataclasses.replace`` did.
"""

import math
import pickle

import numpy as np
import pytest

from sphrestrict.errors import DomainError
from sphrestrict.gls import PsiWeight, TransferReport, ZetaWeight
from sphrestrict.quadrature import OscillatoryIntegrand, QuadResult
from sphrestrict.radial_fourier import (
    AlgebraicDecay,
    CompactSupport,
    GaussianDecay,
    RadialProfile,
)
from sphrestrict.restriction import (
    GaussianBound,
    GridPoint,
    RestrictionParams,
    SharpConstantResult,
)
from sphrestrict.special_fns import BesselOrder, RadialKernel, bessel_j_array
from sphrestrict.verify import DominancePoint, DominanceReport, RandomRadialSpec


def quad():
    return QuadResult(0.3183098861837907, 2.5e-12, 315, True)


def sharp():
    return SharpConstantResult(1.25, 1.5, quad())


def spec():
    return RandomRadialSpec(7, "compact_bump", 5)


def point():
    return DominancePoint(
        3, 1.2, 2.0, 5, 0.25, 0.5, 0.25, "bump[0]", [{"label": "x", "ratio": 0.75}]
    )


PARAMS_REPR = (
    "RestrictionParams(d=3, p=1.2, q=2.0, p_prime=6.000000000000001, "
    "beta=-1.000000000000001)"
)
QUAD_REPR = (
    "QuadResult(value=0.3183098861837907, error_estimate=2.5e-12, "
    "evaluations=315, converged=True)"
)
SHARP_REPR = (
    "SharpConstantResult(k_rad_first_principles=1.25, k_rad_paper_closed_form=1.5, "
    f"kernel_integral={QUAD_REPR})"
)
SPEC_REPR = "RandomRadialSpec(seed=7, family='compact_bump', count=5)"
POINT_REPR = (
    "DominancePoint(d=3, p=1.2, q=2.0, trials=5, max_ratio=0.25, k_rad=0.5, "
    "margin=0.25, argmax_label='bump[0]', failures=[{'label': 'x', 'ratio': 0.75}], "
    "error=None)"
)

# name: (a sample of the record, its repr).
SAMPLES = {
    "BesselOrder": (lambda: BesselOrder(1.5), "BesselOrder(nu=1.5)"),
    "RadialKernel": (
        lambda: RadialKernel(3),
        "RadialKernel(d=3, order=BesselOrder(nu=0.5), sphere_area=12.566370614359174)",
    ),
    "QuadResult": (quad, QUAD_REPR),
    "OscillatoryIntegrand": (
        lambda: OscillatoryIntegrand(BesselOrder(0.5), -1.000000000000001, 6.000000000000001),
        "OscillatoryIntegrand(order=BesselOrder(nu=0.5), beta=-1.000000000000001, "
        "power=6.000000000000001, signed=False)",
    ),
    "OscillatoryIntegrand_signed": (
        lambda: OscillatoryIntegrand(BesselOrder(0.0), 0.5, 2.0, True),
        "OscillatoryIntegrand(order=BesselOrder(nu=0.0), beta=0.5, power=2.0, signed=True)",
    ),
    "GaussianDecay": (lambda: GaussianDecay(1.5), "GaussianDecay(sigma=1.5)"),
    "CompactSupport": (lambda: CompactSupport(2.3), "CompactSupport(radius=2.3)"),
    "AlgebraicDecay": (
        lambda: AlgebraicDecay(2.0, 3.5), "AlgebraicDecay(coeff=2.0, exponent=3.5)"
    ),
    "RadialProfile": (
        lambda: RadialProfile(math.exp, GaussianDecay(1.0), "exp"),
        "RadialProfile(f=<built-in function exp>, decay=GaussianDecay(sigma=1.0), "
        "label='exp', breakpoints=None, family=None)",
    ),
    "RestrictionParams": (lambda: RestrictionParams(3, 1.2, 2.0), PARAMS_REPR),
    "RestrictionParams_p1": (
        lambda: RestrictionParams(2, 1.0, 1.0),
        "RestrictionParams(d=2, p=1.0, q=1.0, p_prime=inf, beta=nan)",
    ),
    "SharpConstantResult": (sharp, SHARP_REPR),
    "GaussianBound": (
        lambda: GaussianBound(1.0, 2.0, 3.0),
        "GaussianBound(bound=1.0, sigma_star=2.0, paper_closed_form=3.0)",
    ),
    "GridPoint": (
        lambda: GridPoint(RestrictionParams(3, 1.2, 2.0), sharp(), GaussianBound(1.0, 2.0, 3.0)),
        f"GridPoint(params={PARAMS_REPR}, sharp={SHARP_REPR}, "
        "gauss=GaussianBound(bound=1.0, sigma_star=2.0, paper_closed_form=3.0))",
    ),
    "PsiWeight": (
        lambda: PsiWeight(1.0, 2.0, ((1.1, 3.5), (1.5, 4.0))),
        "PsiWeight(a=1.0, b=2.0, samples=((1.1, 3.5), (1.5, 4.0)))",
    ),
    # The one repr that changed: the dataclass left ``constant_table`` out
    # (``repr=False``), and it printed "ZetaWeight(samples=((1.0, 2.0),),
    # source='radial_sharp')".
    "ZetaWeight": (
        lambda: ZetaWeight(((1.0, 2.0),), "radial_sharp", ((1.1, 0.5),)),
        "ZetaWeight(samples=((1.0, 2.0),), source='radial_sharp', "
        "constant_table=((1.1, 0.5),))",
    ),
    "TransferReport": (
        lambda: TransferReport(1.0, 2.0, 0.5, True, "gaussian(sigma=1.0, d=3)"),
        "TransferReport(left=1.0, right=2.0, ratio=0.5, ok=True, "
        "profile_label='gaussian(sigma=1.0, d=3)')",
    ),
    "RandomRadialSpec": (spec, SPEC_REPR),
    "DominancePoint": (
        lambda: DominancePoint(3, 1.2, 2.0, 5),
        "DominancePoint(d=3, p=1.2, q=2.0, trials=5, max_ratio=None, k_rad=None, "
        "margin=None, argmax_label='', failures=[], error=None)",
    ),
    "DominancePoint_full": (point, POINT_REPR),
    "DominanceReport": (
        lambda: DominanceReport(spec(), 1e-6, [point()]),
        f"DominanceReport(spec={SPEC_REPR}, tol=1e-06, points=[{POINT_REPR}])",
    ),
}
# Records holding a list, which cannot be hashed.
UNHASHABLE = {"DominancePoint", "DominancePoint_full", "DominanceReport"}


@pytest.mark.parametrize("name", SAMPLES)
def test_repr(name):
    make, expected = SAMPLES[name]
    assert repr(make()) == expected


@pytest.mark.parametrize("name", SAMPLES)
def test_equal_inputs_give_equal_records(name):
    make, _ = SAMPLES[name]
    first, second = make(), make()
    assert first is not second and first == second
    if name not in UNHASHABLE:
        assert hash(first) == hash(second)


@pytest.mark.parametrize("name", SAMPLES)
def test_fields_cannot_be_assigned(name):
    record = SAMPLES[name][0]()
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 1
    assert record == SAMPLES[name][0]()


@pytest.mark.parametrize("name", SAMPLES)
def test_pickle_round_trips(name):
    record = SAMPLES[name][0]()
    back = pickle.loads(pickle.dumps(record))
    assert type(back) is type(record)
    assert back == record and repr(back) == repr(record)


# (constructor call, the DomainError message).
INVALID = [
    (lambda: BesselOrder(-1.0), "Bessel order must be a finite real >= 0, got -1.0"),
    (lambda: BesselOrder(math.nan), "Bessel order must be a finite real >= 0, got nan"),
    (lambda: BesselOrder(math.inf), "Bessel order must be a finite real >= 0, got inf"),
    (lambda: RadialKernel(1), "dimension must be an integer >= 2, got 1"),
    (lambda: RadialKernel(2.5), "dimension must be an integer >= 2, got 2.5"),
    (
        lambda: RadialKernel(344),
        "sphere_area requires d <= 343, where Gamma(d/2) fits a double; got 344",
    ),
    (
        lambda: OscillatoryIntegrand(BesselOrder(0.5), 0.0, 0.5),
        "power must be >= 1, got 0.5",
    ),
    (
        lambda: OscillatoryIntegrand(BesselOrder(0.5), 0.0, 2.5, True),
        "signed integrands need an integer power",
    ),
    (lambda: RestrictionParams(1, 1.2, 2.0), "dimension must be an integer >= 2, got 1"),
    (lambda: RestrictionParams(2.5, 1.2, 2.0), "dimension must be an integer >= 2, got 2.5"),
    (lambda: RestrictionParams(3, 0.5, 2.0), "p must be a real >= 1, got 0.5"),
    (lambda: RestrictionParams(3, math.nan, 2.0), "p must be a real >= 1, got nan"),
    (lambda: RestrictionParams(3, math.inf, 2.0), "p must be a real >= 1, got inf"),
    (lambda: RestrictionParams(3, 1.2, 0.5), "q must be a real >= 1, got 0.5"),
    (lambda: RestrictionParams(3, 1.2, math.inf), "q must be a real >= 1, got inf"),
    (
        lambda: RandomRadialSpec(0, "bogus", 1),
        "unknown family 'bogus'; expected one of ('gaussian_mixture', "
        "'polynomial_times_gaussian', 'compact_bump')",
    ),
    (lambda: RandomRadialSpec(0, "gaussian_mixture", -1), "count must be >= 0"),
    (lambda: PsiWeight(2.0, 1.5, ((1.7, 1.0),)), "need 1 <= a < b, got a=2.0, b=1.5"),
    (lambda: PsiWeight(0.5, 2.0, ((1.7, 1.0),)), "need 1 <= a < b, got a=0.5, b=2.0"),
    (lambda: PsiWeight(1.0, 2.0, ()), "psi weight needs at least one sample"),
    (
        lambda: PsiWeight(1.0, 2.0, ((1.5, 1.0), (2.5, 1.0))),
        "sample abscissae must lie inside (1.0, 2.0)",
    ),
    (
        lambda: PsiWeight(1.0, 2.0, ((1.5, 1.0), (1.2, 1.0))),
        "sample abscissae must be strictly increasing",
    ),
    (
        lambda: PsiWeight(1.0, 2.0, ((1.5, 0.0),)),
        "psi must be bounded below by a positive constant, got psi(1.5) = 0.0",
    ),
    (
        lambda: PsiWeight(1.0, 2.0, ((1.5, math.nan),)),
        "psi must be bounded below by a positive constant, got psi(1.5) = nan",
    ),
]


@pytest.mark.parametrize("make, message", INVALID)
def test_invalid_input_message(make, message):
    with pytest.raises(DomainError) as info:
        make()
    assert str(info.value) == message


def test_dimension_is_an_int():
    params = RestrictionParams(3.0, 1.2, 2)
    assert type(params.d) is int and params.d == 3
    assert type(RadialKernel(3.0).d) is int
    assert repr(params) == (
        "RestrictionParams(d=3, p=1.2, q=2, p_prime=6.000000000000001, "
        "beta=-1.000000000000001)"
    )


# (d, p): (p_prime, beta) as float.hex.
DERIVED = {
    (2, 1.05): ("0x1.4fffffffffffbp+4", "0x1.0000000000000p+0"),
    (3, 1.2): ("0x1.8000000000001p+2", "-0x1.0000000000005p+0"),
    (4, 1.3): ("0x1.1555555555555p+2", "-0x1.5555555555553p+0"),
    (8, 1.5): ("0x1.8000000000000p+1", "-0x1.0000000000000p+1"),
    (13, 1.01): ("0x1.93ffffffffffap+6", "-0x1.0fbfffffffffbp+9"),
    (3, 1.999): ("0x1.0020cd0148021p+1", "0x1.ffbe65fd6ffbfp-1"),
}
SPHERE_AREAS = {
    2: "0x1.921fb54442d18p+2",
    3: "0x1.921fb54442d19p+3",
    4: "0x1.3bd3cc9be45dep+4",
    5: "0x1.a51a6625307d3p+4",
    8: "0x1.03c1f081b5ac3p+5",
    13: "0x1.7ad251e2f6062p+3",
    40: "0x1.35a4de5864316p-23",
    343: "0x1.1ce3dcd5091c3p-739",
}


def test_derived_fields_are_bit_identical():
    for (d, p), (p_prime, beta) in DERIVED.items():
        params = RestrictionParams(d, p, 2.0)
        assert (params.p_prime.hex(), params.beta.hex()) == (p_prime, beta)
    at_one = RestrictionParams(2, 1.0, 1.0)
    assert at_one.p_prime == math.inf and math.isnan(at_one.beta)
    for d, area in SPHERE_AREAS.items():
        kernel = RadialKernel(d)
        assert kernel.sphere_area.hex() == area
        assert kernel.order == BesselOrder((d - 2) / 2.0)


def test_replace_of_a_validated_record_builds_it_again():
    params = RestrictionParams(3, 1.2, 2.0)._replace(d=4.0, p=1.3)
    assert params == RestrictionParams(4, 1.3, 2.0) and type(params.d) is int
    assert RadialKernel(3)._replace(d=5) == RadialKernel(5)
    with pytest.raises(DomainError, match="p must be a real >= 1, got 0.5"):
        RestrictionParams(3, 1.2, 2.0)._replace(p=0.5)
    with pytest.raises(DomainError, match="count must be >= 0"):
        spec()._replace(count=-1)
    with pytest.raises(DomainError, match="power must be >= 1"):
        SAMPLES["OscillatoryIntegrand"][0]()._replace(power=0.5)
    with pytest.raises(DomainError, match="strictly increasing"):
        SAMPLES["PsiWeight"][0]()._replace(samples=((1.5, 1.0), (1.2, 1.0)))
    with pytest.raises(DomainError, match="Bessel order"):
        BesselOrder(1.0)._replace(nu=-1.0)
    # Derived fields follow their inputs and cannot be replaced themselves.
    for record, field in [
        (RestrictionParams(3, 1.2, 2.0), "beta"),
        (RadialKernel(3), "sphere_area"),
        (BesselOrder(1.0), "mu"),
    ]:
        with pytest.raises(ValueError):
            record._replace(**{field: 1.0})


def test_records_are_tuples():
    params = RestrictionParams(3, 1.2, 2.0)
    assert len(params) == 5 and params[0] == 3 and params[-1] == params.beta
    assert params == (3, 1.2, 2.0, params.p_prime, params.beta)
    value, error, evaluations, converged = quad()
    assert (value, error, evaluations, converged) == (0.3183098861837907, 2.5e-12, 315, True)
    profile = RadialProfile(math.exp, GaussianDecay(1.0), "exp", family=(math.exp, 0))
    assert profile._replace(family=None) == SAMPLES["RadialProfile"][0]()
    assert quad()._asdict() == {
        "value": 0.3183098861837907, "error_estimate": 2.5e-12,
        "evaluations": 315, "converged": True,
    }


def test_each_point_gets_its_own_failures():
    first, second = DominancePoint(3, 1.2, 2.0, 5), DominancePoint(3, 1.2, 2.0, 5)
    assert first.failures == [] and first.failures is not second.failures


@pytest.mark.parametrize("x", [2.0, [0.5, 2.0, 40.0], [[1.0, 7.0], [3.0, 90.0]]])
def test_a_bessel_order_record_is_one_order(x):
    # A BesselOrder is a tuple, and a tuple of orders is one order per point.
    for nu in (0.0, 0.5, 3.0):
        expected = bessel_j_array(nu, x)
        got = bessel_j_array(BesselOrder(nu), x)
        assert got.shape == np.shape(x) and np.array_equal(got, expected)
