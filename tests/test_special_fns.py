"""Special-function contracts: Gamma, sphere areas, Bessel J, zeros."""

import math
import random

import mpmath as mp
import numpy as np
import pytest

from sphrestrict import special_fns
from sphrestrict.errors import ConvergenceError, DomainError
from sphrestrict.special_fns import (
    BesselOrder,
    RadialKernel,
    _is_half_integer,
    bessel_j,
    bessel_j_array,
    bessel_j_derivative,
    bessel_j_zero,
    gamma,
    sphere_area,
)

from general_path import bessel_j_general_path
from oracles import bessel_half_oracle, bessel_series_oracle, bisect_sign_change

mp.mp.dps = 40


class TestGamma:
    def test_trivial_values(self):
        assert gamma(1.0) == pytest.approx(1.0, rel=1e-14)
        assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)
        assert gamma(10.0) == pytest.approx(362880.0, rel=1e-12)

    def test_against_libm(self):
        x = 0.5
        while x <= 170.0:
            assert gamma(x) == pytest.approx(math.gamma(x), rel=1e-12)
            x += 0.37

    def test_recurrence(self):
        x = 0.5
        while x <= 50.0:
            lhs = gamma(x + 1.0)
            assert abs(lhs - x * gamma(x)) <= 1e-12 * lhs
            x += 0.5

    def test_domain(self):
        with pytest.raises(DomainError):
            gamma(0.0)
        with pytest.raises(DomainError):
            gamma(-3.2)

    def test_overflow_reported(self):
        with pytest.raises(OverflowError):
            gamma(172.0)
        with pytest.raises(OverflowError):
            gamma(1e6)
        # largest representable stays finite
        assert math.isfinite(gamma(171.6))


class TestSphereArea:
    def test_closed_forms(self):
        assert sphere_area(2) == pytest.approx(2.0 * math.pi, rel=1e-14)
        assert sphere_area(3) == pytest.approx(4.0 * math.pi, rel=1e-14)
        assert sphere_area(4) == pytest.approx(2.0 * math.pi**2, rel=1e-14)

    @pytest.mark.parametrize("d", [5, 6, 7, 10, 13, 20])
    def test_general_dimension(self, d):
        expected = 2.0 * math.pi ** (0.5 * d) / math.gamma(0.5 * d)
        assert sphere_area(d) == pytest.approx(expected, rel=1e-14)

    def test_domain(self):
        with pytest.raises(DomainError):
            sphere_area(1)
        with pytest.raises(DomainError):
            sphere_area(0)

    def test_largest_dimension(self):
        # Gamma(d/2) overflows from d = 344 on; the area must not read 0.
        expected = 2.0 * math.exp(171.5 * math.log(math.pi) - math.lgamma(171.5))
        assert sphere_area(343) == pytest.approx(expected, rel=1e-12)
        for d in (344, 400):
            with pytest.raises(DomainError, match="d <= 343"):
                sphere_area(d)
            with pytest.raises(DomainError, match="d <= 343"):
                RadialKernel(d)


class TestBesselOrderType:
    def test_half_integer_flag(self):
        assert _is_half_integer(0.5)
        assert _is_half_integer(1.5)
        assert not _is_half_integer(0.0)
        assert not _is_half_integer(1.0)
        assert not _is_half_integer(0.75)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            BesselOrder(-0.5)

    def test_kernel_derivation(self):
        k = RadialKernel(5)
        assert k.order.nu == 1.5
        assert _is_half_integer(k.order.nu)
        assert k.sphere_area == pytest.approx(sphere_area(5), rel=1e-15)
        with pytest.raises(DomainError):
            RadialKernel(1)


class TestBesselJ:
    def test_at_zero(self):
        assert bessel_j(0.0, 0.0) == 1.0
        assert bessel_j(0.5, 0.0) == 0.0
        assert bessel_j(3.0, 0.0) == 0.0

    def test_half_integer_closed_form_value(self):
        assert bessel_j(0.5, math.pi / 2) == pytest.approx(2.0 / math.pi, rel=1e-13)

    def test_j0_at_one_vs_series_oracle(self):
        value, bound = bessel_series_oracle(0.0, 1.0)
        assert bound < 1e-17
        assert value == pytest.approx(0.7651976865579666, abs=1e-15)
        assert bessel_j(0.0, 1.0) == pytest.approx(value, abs=1e-13)

    def test_negative_argument_rejected(self):
        with pytest.raises(DomainError):
            bessel_j(0.0, -1.0)

    @pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0])
    def test_absolute_error_grid(self, nu):
        rng = random.Random(int(10 * nu) + 7)
        xs = [rng.uniform(1e-6, 2.0) for _ in range(8)]
        xs += [rng.uniform(2.0, 40.0) for _ in range(12)]
        xs += [math.exp(rng.uniform(math.log(40.0), math.log(1000.0))) for _ in range(10)]
        for x in xs:
            ref = float(mp.besselj(nu, x))
            assert abs(bessel_j(nu, x) - ref) <= 1e-12, (nu, x)

    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_general_path_matches_elementary_forms(self, m):
        # The general series/recurrence/asymptotic machinery must agree
        # with the explicit trigonometric forms away from zeros.
        nu = m + 0.5
        for x in (0.4, 0.9, 1.7, 3.1, 4.8, 7.3, 11.0, 17.0, 26.0, 41.0, 83.0, 351.0):
            closed = bessel_half_oracle(m, x)
            envelope = math.sqrt(2.0 / (math.pi * x))
            if abs(closed) < 0.15 * envelope:
                continue  # too close to a zero for a relative comparison
            general = bessel_j_general_path(nu, x)
            assert general == pytest.approx(closed, rel=1e-13), (nu, x)

    def test_three_term_recurrence(self):
        for nu in [1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0]:
            x = 0.5
            while x <= 100.0:
                jm = bessel_j(nu - 1.0, x)
                jc = bessel_j(nu, x)
                jp = bessel_j(nu + 1.0, x)
                residual = abs(jm + jp - (2.0 * nu / x) * jc)
                assert residual <= 1e-10 * max(1.0, abs(jc)), (nu, x)
                x += 2.5

    def test_boundedness(self):
        rng = random.Random(3)
        for _ in range(300):
            nu = rng.uniform(0.0, 8.0)
            x = rng.uniform(0.0, 500.0)
            assert abs(bessel_j(nu, x)) <= 1.0 + 1e-14

    @pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 2.0, 3.5])
    def test_small_argument_asymptotic(self, nu):
        z = 1e-4
        ratio = bessel_j(nu, z) / z**nu
        expected = 1.0 / (2.0**nu * math.gamma(nu + 1.0))
        assert ratio == pytest.approx(expected, rel=1e-6)

    @pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 2.0, 5.0])
    def test_large_argument_envelope(self, nu):
        z = 50.0
        while z <= 1000.0:
            assert math.sqrt(z) * abs(bessel_j(nu, z)) <= math.sqrt(2.0 / math.pi) * 1.05
            z *= 1.37

    def test_large_order_overflow_is_a_domain_error(self):
        # Miller's normalisation (x/2)^nu leaves double range near orders
        # 160-171 (here past x ~ 173.7 at nu = 159), the scalar and the
        # array path alike; below that the two still agree bit for bit.
        with pytest.raises(DomainError, match=r"nu = 159\.0, x = 184\.857"):
            bessel_j(159.0, 184.8571460738902)
        with pytest.raises(DomainError, match=r"nu = 159\.0, x = 190\.0"):
            bessel_j_array(159.0, np.linspace(150.0, 190.0, 100))
        xs = np.linspace(150.0, 173.0, 100)
        assert bessel_j_array(159.0, xs).tolist() == [bessel_j(159.0, x) for x in xs.tolist()]

    def test_gamma_overflow_is_a_domain_error(self, monkeypatch):
        # Gamma(201) leaves double range: the series and Miller's sum of
        # J_200 raise a DomainError naming the order, and so does its first
        # zero.  Hankel's expansion needs no Gamma.
        overflow = r"^J_nu\(x\) at nu = 200\.0: Gamma\(nu \+ 1\) overflows double range$"
        with pytest.raises(DomainError, match=overflow):
            bessel_j(200, 5.0)
        with pytest.raises(DomainError, match=overflow):
            bessel_j(200, 1.0)
        with pytest.raises(DomainError, match=overflow):
            bessel_j_array(200.0, [5.0])
        monkeypatch.setattr(special_fns, "_ZEROS", {})
        with pytest.raises(DomainError, match=overflow):
            bessel_j_zero(200, 1)
        assert bessel_j(200, 1e6) == 3.4549521335498594e-4


class TestBesselZeros:
    @pytest.fixture(autouse=True)
    def newton_only(self, monkeypatch):
        # The zero table and the zeros found so far are emptied, so that
        # every zero here comes from the finder's Newton run.
        monkeypatch.setattr(special_fns, "_zero_table", dict)
        monkeypatch.setattr(special_fns, "_ZEROS", {})

    def test_first_zeros_of_j0(self):
        # Independent oracle: bisection on the sign change of the series.
        oracle = bisect_sign_change(lambda x: bessel_series_oracle(0.0, x)[0], 2.0, 3.0)
        assert oracle == pytest.approx(2.404825557695773, abs=1e-12)
        assert bessel_j_zero(0.0, 1) == pytest.approx(oracle, abs=1e-12)
        assert bessel_j_zero(0.0, 2) == pytest.approx(5.520078110286311, abs=1e-11)

    def test_spacing_approaches_pi(self):
        gap = bessel_j_zero(0.0, 2) - bessel_j_zero(0.0, 1)
        assert abs(gap - math.pi) <= 0.15

    def test_half_integer_zeros_are_multiples_of_pi(self):
        for k in range(1, 25):
            assert bessel_j_zero(0.5, k) == pytest.approx(k * math.pi, rel=1e-13)

    @pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.5, 6.0])
    def test_zero_residual_and_monotone(self, nu):
        prev = 0.0
        for k in range(1, 21):
            root = bessel_j_zero(nu, k)
            assert root > prev
            assert abs(bessel_j(nu, root)) <= 1e-12
            prev = root

    @pytest.mark.parametrize("nu", [0.0, 0.5, 1.0])
    def test_interlacing(self, nu):
        for k in range(1, 21):
            a = bessel_j_zero(nu, k)
            b = bessel_j_zero(nu + 1.0, k)
            c = bessel_j_zero(nu, k + 1)
            assert a < b < c

    def test_against_mpmath(self):
        for nu in (0.0, 1.0, 2.5, 4.0):
            for k in (1, 2, 5, 17, 40):
                ref = float(mp.besseljzero(nu, k))
                assert bessel_j_zero(nu, k) == pytest.approx(ref, abs=1e-11)

    def test_bad_index(self):
        with pytest.raises(DomainError):
            bessel_j_zero(0.0, 0)

    @pytest.mark.parametrize(
        "nu, k, lost",
        [(47.0, 2, 59.58132462439882), (50.0, 2, 62.807698764835365)],
    )
    def test_lost_zero_raises(self, nu, k, lost):
        # McMahon's large-index seed is far from the first zeros of large
        # orders: zeros 1 and 2 land on one zero, one ulp apart at nu = 50.
        first = bessel_j_zero(nu, k - 1)
        with pytest.raises(ConvergenceError) as info:
            bessel_j_zero(nu, k)
        assert str(info.value) == (
            f"zero {k} of J_{nu} at {lost!r} lies less than pi/2 above zero "
            f"{k - 1} at {first!r}: a zero was lost"
        )
        assert bessel_j_zero(nu, k + 1) - first > 0.5 * math.pi

    def test_each_zero_keeps_its_own_error(self):
        # Zeros found together still fail alone: the first two of J_155
        # cannot be bracketed, and the next two overflow in J_156, the
        # derivative's second order, each at its own iterate.
        errors = []
        for k in range(1, 5):
            with pytest.raises((ConvergenceError, DomainError)) as info:
                bessel_j_zero(155.0, k)
            errors.append(str(info.value))
        overflow = ": (x/2)^nu overflows double range in the Miller normalisation"
        assert errors == [
            "could not bracket a zero of J_155.0 near 180.2924497546002",
            "could not bracket a zero of J_155.0 near 184.80277097915464",
            "J_nu(x) at nu = 156.0, x = 189.25291527751187" + overflow,
            "J_nu(x) at nu = 156.0, x = 193.6467311945139" + overflow,
        ]


def test_derivative_identity():
    # J_nu' = (J_{nu-1} - J_{nu+1}) / 2 wherever nu >= 1.
    for nu in (1.0, 2.5, 4.0):
        for x in (0.7, 3.3, 19.0):
            lhs = bessel_j_derivative(nu, x)
            rhs = 0.5 * (bessel_j(nu - 1.0, x) - bessel_j(nu + 1.0, x))
            assert lhs == pytest.approx(rhs, abs=1e-12)
