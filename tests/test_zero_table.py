"""The first zeros of J_nu come from a table that the zero finder wrote.

``src/sphrestrict/_zero_table.py`` holds zeros 1..96 (three chunks of the
finder) of every order nu = (d - 2)/2, d = 2..33, as ``repr`` floats.
``special_fns._next_zeros`` takes a chunk from it when the whole chunk is
tabled, through ``_store_zeros`` as a Newton run's chunk goes, and runs
Newton's method for every other chunk.  ``special_fns._zero_table`` is the
one seam: a test that needs the Newton run empties the table there.

The table must be the finder's own doubles, bit for bit; after a change to
J or to the finder, ``python tools/gen_zero_table.py`` rewrites it.  The
accuracy map holds every zero, tabled or not, within 2 ulps of mpmath over
d = 2..65, and pins where the McMahon seed fails (ROADMAP item 2).
"""

import math

import mpmath as mp
import pytest

from sphrestrict import special_fns
from sphrestrict._zero_table import ZEROS
from sphrestrict.errors import ConvergenceError
from sphrestrict.special_fns import bessel_j_zero


def test_table_holds_three_chunks_of_every_order_up_to_d_33():
    assert list(ZEROS) == [(d - 2) / 2.0 for d in range(2, 34)]
    assert {len(zeros) for zeros in ZEROS.values()} == {3 * special_fns._ZERO_CHUNK}


def test_table_is_the_finders_own_doubles(monkeypatch):
    # A fresh finder run with the table emptied gives every tabled zero,
    # bit for bit (all are positive finite floats, so == is bit equality).
    monkeypatch.setattr(special_fns, "_zero_table", dict)
    monkeypatch.setattr(special_fns, "_ZEROS", {})
    special_fns.find_first_zeros(list(ZEROS))
    for nu, zeros in ZEROS.items():
        bessel_j_zero(nu, len(zeros))
        assert special_fns._ZEROS[nu] == list(zeros), (
            f"J_{nu}: the table is stale; rerun python tools/gen_zero_table.py"
        )


def newton_requests(monkeypatch):
    """The ``(nu, ks)`` requests of each ``_newton_zeros`` run from here on,
    with no zero found yet."""
    runs = []
    real = special_fns._newton_zeros

    def record(requests):
        runs.append(list(requests))
        return real(requests)

    monkeypatch.setattr(special_fns, "_newton_zeros", record)
    monkeypatch.setattr(special_fns, "_ZEROS", {})
    return runs


def test_untabled_zeros_still_come_from_a_newton_run(monkeypatch):
    # d = 34 is past the table, and zero 97 past its three chunks: each
    # chunk of them takes one Newton run and gives the doubles the finder
    # gave before the table.  Zeros 1..96 of J_0 and J_15.5 cost no run.
    runs = newton_requests(monkeypatch)
    special_fns.find_first_zeros([0.0, 16.0])
    assert bessel_j_zero(16.0, 1) == 21.08514611306472
    assert bessel_j_zero(16.0, 32) == 123.84435434554955
    assert bessel_j_zero(16.0, 33) == 127.01179983627253
    assert bessel_j_zero(0.0, 96) == ZEROS[0.0][-1]
    assert bessel_j_zero(0.0, 97) == 303.94950048502056
    assert bessel_j_zero(0.0, 128) == 401.33877295266154
    assert bessel_j_zero(15.5, 97) == 327.930434636534
    assert runs == [
        [(16.0, range(1, 33))],
        [(16.0, range(33, 65))],
        [(0.0, range(97, 129))],
        [(15.5, range(97, 129))],
    ]


def test_tabled_zeros_pass_the_finders_checks(monkeypatch):
    # A tabled chunk is stored as a Newton run's chunk is: a zero less than
    # pi/2 above the one before it raises that a zero was lost.
    bad = list(ZEROS[0.0][:32])
    bad[5] = bad[4] + 1.0
    monkeypatch.setattr(special_fns, "_zero_table", lambda: {0.0: tuple(bad)})
    runs = newton_requests(monkeypatch)
    assert bessel_j_zero(0.0, 5) == ZEROS[0.0][4]
    with pytest.raises(ConvergenceError, match="zero 6 of J_0.0 .* a zero was lost"):
        bessel_j_zero(0.0, 6)
    assert runs == []


# Orders sampled from d = 2..65 (one mpmath zero takes ~6 ms), with the
# worst measured ones: over all of d = 2..65 and these k the largest error
# is 1.91 ulps at (d, k) = (65, 1), then 1.29 at (10, 3) and 1.26 at (36, 3).
MAP_DIMENSIONS = [2, 3, 4, 5, 6, 7, 10, 16, 17, 24, 32, 33, 34, 36, 46, 57, 60, 65]
MAP_INDICES = [1, 2, 3, 8, 32, 96]


def ulps_from_mpmath(nu: float, k: int) -> float:
    zero = bessel_j_zero(nu, k)
    with mp.workdps(30):
        return float(abs(mp.mpf(zero) - mp.besseljzero(mp.mpf(nu), k)) / math.ulp(zero))


@pytest.mark.parametrize("d", MAP_DIMENSIONS)
def test_zeros_within_two_ulps_of_mpmath(d):
    nu = (d - 2) / 2.0
    errors = {k: ulps_from_mpmath(nu, k) for k in MAP_INDICES}
    assert max(errors.values()) <= 2.0, errors


@pytest.mark.xfail(
    strict=True, raises=ConvergenceError,
    reason="ROADMAP item 2: McMahon's seed cannot bracket the first zero of J_43",
)
def test_first_zero_at_d_88():
    # The finder raises "could not bracket a zero of J_43.0 near 52.45...".
    assert ulps_from_mpmath(43.0, 1) <= 2.0


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP item 2: McMahon's seed gives 62.808 for the first zero of J_50 (mpmath 57.117)",
)
def test_first_zero_at_d_102():
    assert ulps_from_mpmath(50.0, 1) <= 2.0
