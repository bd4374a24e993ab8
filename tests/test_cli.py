"""Command-line behaviour: schemas, exit codes, determinism, config."""

import csv
import json
import math
from pathlib import Path

import pytest

from sphrestrict import cli, gls, radial_fourier, verify
from sphrestrict.cli import SWEEP_COLUMNS, main
from sphrestrict.quadrature import QuadResult
from sphrestrict import restriction


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConstant:
    def test_json_payload(self, capsys):
        code, out, err = run_cli(
            capsys, "constant", "--d", "3", "--p", "1.2", "--q", "2"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["k_rad_first_principles"] == pytest.approx(
            (2.0 * math.pi) ** (5.0 / 6.0), rel=1e-9
        )
        assert payload["kernel_integral"]["converged"] is True
        assert payload["kernel_integral"]["error_estimate"] > 0.0
        assert payload["tomas_stein_ok"] is True
        assert payload["p_prime"] == pytest.approx(6.0)

    def test_inadmissible_exits_2_citing_window(self, capsys):
        code, out, err = run_cli(
            capsys, "constant", "--d", "2", "--p", "1.4", "--q", "2"
        )
        assert code == 2
        assert "1 < p < 2d/(d+1)" in err
        assert "1.33333333333333" in err

    def test_nonconvergent_exits_3(self, capsys):
        # A tolerance finer than 800 arches, each integrated to 100 eps, and
        # the tail fit can give: the arch budget runs out before it is met.
        code, _, err = run_cli(
            capsys, "constant", "--d", "3", "--p", "1.4", "--q", "2", "--tol", "1e-13"
        )
        assert code == 3
        assert "did not converge" in err

    @pytest.mark.parametrize("d, p", [(3, 1.001), (2, 1.0005)])
    def test_near_p_one_ends_typed(self, capsys, d, p):
        # Near p = 1 the envelope r**beta overflows for small r; the point
        # must converge or fail with a typed error, never a traceback.
        code, out, err = run_cli(
            capsys, "constant", "--d", str(d), "--p", str(p), "--q", "2"
        )
        assert code in (0, 3)
        assert "Traceback" not in err
        if code == 0:
            assert json.loads(out)["kernel_integral"]["converged"] is True
        else:
            assert "did not converge" in err

    def test_zero_kernel_integral_exits_3(self, capsys):
        # At (60, 1.05) every arch of the kernel integrand underflows to 0
        # (beta = -550); a positive integrand's integral of 0 is no result.
        code, out, err = run_cli(capsys, "constant", "--d", "60", "--p", "1.05", "--q", "2")
        assert (code, out) == (3, "")
        assert "came out 0.0, not positive: its values underflow double range" in err

    def test_large_order_overflow_exits_2(self, capsys):
        # J_159 overflows double range in Miller's normalisation while the
        # zeros of the kernel are found.
        code, out, err = run_cli(capsys, "constant", "--d", "320", "--p", "1.5", "--q", "2")
        assert (code, out) == (2, "")
        assert err.startswith("sphrestrict: J_nu(x) at nu = 159.0, x = ")
        assert "overflows double range" in err

    @pytest.mark.parametrize(
        "d, message",
        [
            (96, "zero 2 of J_47.0 at 59.58132462439882 lies less than pi/2 above "
                 "zero 1 at 59.58132462439882: a zero was lost"),
            (102, "zero 2 of J_50.0 at 62.807698764835365 lies less than pi/2 above "
                  "zero 1 at 62.80769876483536: a zero was lost"),
        ],
    )
    def test_lost_zero_exits_3(self, capsys, d, message):
        # The zero finder finds one zero of J_nu twice; the run names that,
        # not an empty arch or a quadrature that did not converge.
        code, out, err = run_cli(capsys, "constant", "--d", str(d), "--p", "1.5", "--q", "2")
        assert (code, out, err) == (3, "", f"sphrestrict: {message}\n")

    def test_fifteen_significant_digits(self, capsys):
        code, out, _ = run_cli(
            capsys, "constant", "--d", "3", "--p", "1.2", "--q", "2"
        )
        value = json.loads(out)["k_rad_first_principles"]
        assert value == float(f"{value:.15g}")


class TestFrozenConstants:
    """Exact stdout and stderr, frozen from the code before the kernel
    integrand became the (order, beta, power) record; the ``--tol 1e-12``
    points re-frozen when the tail fit took its leading coefficient in
    closed form and the arch tolerance stopped at 100 eps, and their error
    estimates when pow, exp and log moved from libm to numpy's elementwise
    ufuncs (the values kept every printed digit).  At ``--tol 1e-12``
    the tail fit turns a one-ulp change in any node value into a visible
    digit, and (3, 1.001) and (2, 1.0005) value their nodes through the
    log-space branch, so these catch any drift in how nodes are valued."""

    @pytest.mark.parametrize(
        "d, p, tol, expected",
        [
            ("2", "1.2", "1e-12", """{
  "beta": 1.0,
  "d": 2,
  "k_rad_first_principles": 2.84023713778749,
  "k_rad_paper_closed_form": 0.863845978787441,
  "kernel_integral": {
    "converged": true,
    "error_estimate": 2.46576587134755e-13,
    "evaluations": 9300,
    "value": 0.336827961766449
  },
  "p": 1.2,
  "p_prime": 6.0,
  "q": 2.0,
  "tomas_stein_ok": true
}
"""),
            ("8", "1.5", "1e-12", """{
  "beta": -2.0,
  "d": 8,
  "k_rad_first_principles": 197.729001021381,
  "k_rad_paper_closed_form": 0.231656274715647,
  "kernel_integral": {
    "converged": true,
    "error_estimate": 8.21160834680315e-15,
    "evaluations": 2340,
    "value": 0.0116356812158278
  },
  "p": 1.5,
  "p_prime": 3.0,
  "q": 2.0,
  "tomas_stein_ok": true
}
"""),
            ("3", "1.4", "1e-12", """{
  "beta": 0.25,
  "d": 3,
  "k_rad_first_principles": 7.7662104007911,
  "k_rad_paper_closed_form": 0.764755908644398,
  "kernel_integral": {
    "converged": true,
    "error_estimate": 4.52312405316824e-13,
    "evaluations": 43080,
    "value": 0.561946695654357
  },
  "p": 1.4,
  "p_prime": 3.5,
  "q": 2.0,
  "tomas_stein_ok": false
}
"""),
            ("2", "1.0005", "1e-9", """{
  "beta": 1.0,
  "d": 2,
  "k_rad_first_principles": 2.50028440209434,
  "k_rad_paper_closed_form": 1.2482801794125,
  "kernel_integral": {
    "converged": true,
    "error_estimate": 1.82861765923738e-17,
    "evaluations": 630,
    "value": 0.000999250520500561
  },
  "p": 1.0005,
  "p_prime": 2001.00000000022,
  "q": 2.0,
  "tomas_stein_ok": true
}
"""),
        ],
        ids=["d2_p1.2_tight", "d8_p1.5_tight", "d3_p1.4_tight", "d2_p1.0005"],
    )
    def test_json_output(self, capsys, d, p, tol, expected):
        code, out, err = run_cli(
            capsys, "constant", "--d", d, "--p", p, "--q", "2", "--tol", tol,
            "--format", "json",
        )
        assert (code, out, err) == (0, expected, "")

    @pytest.mark.parametrize(
        "d, p, tol, expected",
        [
            ("3", "1.001", "1e-9",
             "sphrestrict: kernel integral for (d=3, p=1.001): quadrature did not "
             "converge (value=1.5868177101913868e-102, "
             "error_estimate=2.9817127734616222e-102)\n"),
        ],
        ids=["d3_p1.001"],
    )
    def test_exit_3_message(self, capsys, d, p, tol, expected):
        code, out, err = run_cli(
            capsys, "constant", "--d", d, "--p", p, "--q", "2", "--tol", tol,
            "--format", "json",
        )
        assert (code, out, err) == (3, "", expected)


FROZEN = Path(__file__).resolve().parent / "frozen"
CONVERGENCE_5_105 = (
    "sphrestrict: kernel integral for (d=5, p=1.05): quadrature did not "
    "converge (value=8.169080165141509e-14, error_estimate=2.5173918668835608e-19)\n"
)


class TestFrozenGrids:
    """Exact stdout and stderr of whole grids, frozen from the code before
    ``sweep``, ``report`` and ``verify`` shared one grid runner, and
    re-frozen when pow, exp and log moved from libm to numpy's ufuncs.  The
    ``report`` grid is the benchmark's ``highdim`` job: 14 ok rows and 10
    failed rows with their reasons.  The ``sweep`` grid has an ok row,
    ``skipped`` rows and a non-converging row whose four cells read
    ``failed``.  The ``verify`` grid is the benchmark's ``dominance`` job at
    seed 5, frozen before the mixture profiles were valued by term column:
    600 profile ratios through the block engine, whose maxima and margins
    print every digit."""

    @pytest.mark.parametrize(
        "argv, frozen, err",
        [
            (["report", "--d", "4:16:4", "--p", "1.05:1.55:6", "--q", "2",
              "--format", "csv"], "report_highdim.csv", ""),
            (["report", "--d", "4:16:4", "--p", "1.05:1.55:6", "--q", "2"],
             "report_highdim.json", ""),
            (["sweep", "--d", "4:5:2", "--p", "1.05:1.7:2", "--q", "2"],
             "sweep_mixed.csv", CONVERGENCE_5_105),
            (["sweep", "--d", "4:5:2", "--p", "1.05:1.7:2", "--q", "2",
              "--format", "json"], "sweep_mixed.json", CONVERGENCE_5_105),
            (["verify", "--d", "2:4:3", "--p", "1.2", "--q", "2", "--seed", "5",
              "--trials", "200", "--family", "gaussian_mixture"],
             "verify_dominance.json", ""),
        ],
        ids=["report_csv", "report_json", "sweep_csv", "sweep_json", "verify_dominance"],
    )
    def test_output(self, capsys, argv, frozen, err):
        expected = (FROZEN / frozen).read_text()
        assert run_cli(capsys, *argv) == (0, expected, err)


class TestGaussianBound:
    def test_p1_degenerate(self, capsys):
        code, out, _ = run_cli(
            capsys, "gaussian-bound", "--d", "3", "--p", "1", "--q", "2"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["bound"] == pytest.approx(math.sqrt(4 * math.pi), rel=1e-8)
        assert payload["sigma_star"] <= 2e-6

    def test_explicit_sigma(self, capsys):
        code, out, _ = run_cli(
            capsys, "gaussian-bound", "--d", "3", "--p", "1.2", "--q", "2",
            "--sigma", "1.0",
        )
        payload = json.loads(out)
        assert "bound" in payload and payload["sigma"] == 1.0

    def test_maximum_inside_double_range_exits_0(self, capsys):
        code, out, err = run_cli(
            capsys, "gaussian-bound", "--d", "200", "--p", "50", "--q", "2"
        )
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert (payload["bound"], payload["sigma_star"]) == (5.2821372223353e210, 14.0)

    @pytest.mark.parametrize("d, p", [(400, "1.5"), (300, "20")])
    def test_beyond_double_precision_exits_2(self, capsys, d, p):
        code, out, err = run_cli(
            capsys, "gaussian-bound", "--d", str(d), "--p", p, "--q", "2"
        )
        assert (code, out) == (2, "")
        assert err.startswith("sphrestrict: ") and "double" in err


class TestSweep:
    def test_csv_schema_and_idempotence(self, capsys, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        args = [
            "sweep", "--d", "3", "--p", "1.1:1.3:3", "--q", "1:2:2",
            "--output",
        ]
        assert main(args + [str(out_a)]) == 0
        assert main(args + [str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        with open(out_a, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(SWEEP_COLUMNS)
        assert len(rows) == 1 + 3 * 2

    def test_skipped_marker_for_divergent_points(self, capsys, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main([
            "sweep", "--d", "2", "--p", "1.2:1.4:2", "--q", "2", "--output", str(out),
        ]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        good = rows[0]
        skipped = rows[1]
        assert float(good["p"]) == pytest.approx(1.2)
        assert good["k_rad"] not in ("", "skipped")
        assert float(skipped["p"]) == pytest.approx(1.4)
        assert skipped["integral"] == "skipped"
        assert skipped["k_rad"] == "skipped"
        # Gaussian bound exists for every p >= 1, skipped rows included.
        assert float(skipped["gauss_opt"]) > 0.0
        assert skipped["tomas_stein_ok"] == "false"

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--d", "3", "--p", "1.2", "--q", "2",
            "--format", "json",
        )
        payload = json.loads(out)
        assert payload[0]["skipped"] is False
        assert payload[0]["k_rad"] == pytest.approx(
            (2 * math.pi) ** (5 / 6), rel=1e-9
        )

    def test_non_converging_row_is_marked_failed(self, capsys):
        # (5, 1.05) does not converge; the rest of the grid must survive.
        code, out, err = run_cli(
            capsys, "sweep", "--d", "5", "--p", "1.05:1.1:2", "--q", "2",
        )
        assert code == 0
        assert "(d=5, p=1.05)" in err and "did not converge" in err
        rows = list(csv.DictReader(out.splitlines()))
        assert [row["p"] for row in rows] == ["1.05", "1.1"]
        failed, good = rows
        for key in ("integral", "integral_err", "k_rad", "k_rad_paper"):
            assert failed[key] == "failed"
            assert good[key] not in ("failed", "skipped", "")
        assert float(failed["gauss_opt"]) > 0.0
        assert float(failed["gauss_paper"]) > 0.0

    def test_non_converging_row_in_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--d", "5", "--p", "1.05", "--q", "2",
            "--format", "json",
        )
        assert code == 0
        (entry,) = json.loads(out)
        assert entry["failed"] is True
        assert entry["skipped"] is False
        for key in ("integral", "integral_err", "k_rad", "k_rad_paper"):
            assert entry[key] is None
        assert entry["gauss_opt"] > 0.0

    def test_converging_grid_output_is_unchanged(self, capsys):
        # Frozen output from before failed rows existed, re-frozen when pow,
        # exp and log moved to numpy's ufuncs: a grid without a failure
        # carries no "failed" marker or key.  The (2, 1.2) gauss_opt
        # is the ratio at the closed-form maximiser sqrt(a).
        code, out, _ = run_cli(
            capsys, "sweep", "--d", "2:3:2", "--p", "1.2:1.4:2", "--q", "2",
        )
        assert code == 0
        assert out == (
            "d,p,q,p_prime,beta,integral,integral_err,k_rad,k_rad_paper,"
            "gauss_opt,gauss_paper,tomas_stein_ok\n"
            "2,1.2,2,6,1,0.336827961768124,1.38750922204362e-10,2.84023713778984,"
            "0.863845978788157,2.79384083777184,3.30053296559104,true\n"
            "2,1.4,2,3.5,1,skipped,skipped,skipped,skipped,3.45139696852194,"
            "4.59281604424495,false\n"
            "3,1.2,2,6,-1,0.101321183642338,3.38840461496508e-14,4.62540632892367,"
            "0.775840526584727,4.6163139528386,5.92746444685502,true\n"
            "3,1.4,2,3.5,0.25,0.561946695656525,3.76384000783461e-10,7.76621040079966,"
            "0.764755908645241,6.81443860610952,10.4605926330794,false\n"
        )
        code, out, _ = run_cli(
            capsys, "sweep", "--d", "2", "--p", "1.2:1.4:2", "--q", "2",
            "--format", "json",
        )
        assert code == 0
        assert out == """[
  {
    "beta": 1.0,
    "d": 2,
    "gauss_opt": 2.79384083777184,
    "gauss_paper": 3.30053296559104,
    "integral": 0.336827961768124,
    "integral_err": 1.38750922204362e-10,
    "k_rad": 2.84023713778984,
    "k_rad_paper": 0.863845978788157,
    "p": 1.2,
    "p_prime": 6.0,
    "q": 2.0,
    "skipped": false,
    "tomas_stein_ok": true
  },
  {
    "beta": 1.0,
    "d": 2,
    "gauss_opt": 3.45139696852194,
    "gauss_paper": 4.59281604424495,
    "integral": null,
    "integral_err": null,
    "k_rad": null,
    "k_rad_paper": null,
    "p": 1.4,
    "p_prime": 3.5,
    "q": 2.0,
    "skipped": true,
    "tomas_stein_ok": false
  }
]
"""

    def test_domain_error_marks_cells_failed(self, capsys):
        # At (300, 20) the literal Gaussian closed form leaves double range;
        # the p = 1.5 row of the same grid survives.
        args = ["sweep", "--d", "300", "--p", "1.5:20:2", "--q", "2"]
        code, out, err = run_cli(capsys, *args)
        assert code == 0
        assert "(d=300, p=20.0, q=2.0)" in err and "double-precision range" in err
        rows = list(csv.DictReader(out.splitlines()))
        assert [row["p"] for row in rows] == ["1.5", "20"]
        assert float(rows[0]["gauss_opt"]) > 0.0
        assert [rows[1][key] for key in ("integral", "gauss_opt", "gauss_paper")] == [
            "skipped", "failed", "failed"
        ]
        code, out, _ = run_cli(capsys, *args, "--format", "json")
        assert code == 0
        first, second = json.loads(out)
        assert first["gauss_opt"] > 0.0
        assert second["failed"] is True and second["skipped"] is True
        assert second["gauss_opt"] is None and second["gauss_paper"] is None
        assert second["tomas_stein_ok"] is False

    def test_zero_kernel_integral_is_a_failed_row(self, capsys):
        # p = 1.05 underflows to a zero integral at d = 60; p = 1.9 of the
        # same dimension's block converges.
        code, out, err = run_cli(capsys, "sweep", "--d", "60", "--p", "1.05:1.9:2", "--q", "2")
        assert code == 0
        assert err.count("not positive: its values underflow double range") == 1
        rows = list(csv.DictReader(out.splitlines()))
        assert [row["integral"] for row in rows][0] == "failed"
        assert float(rows[1]["integral"]) > 0.0 and float(rows[0]["gauss_opt"]) > 0.0

    def test_too_large_dimension_is_a_failed_row(self, capsys):
        # Without a double sphere area (d >= 344) both blocks fail; the
        # d = 343 row of the same grid is still printed.
        code, out, err = run_cli(capsys, "sweep", "--d", "343:344:2", "--p", "1.5", "--q", "2")
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        assert [row["d"] for row in rows] == ["343", "344"]
        assert float(rows[0]["gauss_opt"]) > 0.0
        computed = (
            "integral", "integral_err", "k_rad", "k_rad_paper", "gauss_opt", "gauss_paper"
        )
        assert [rows[1][key] for key in computed] == ["failed"] * 6
        reason = "sphere_area requires d <= 343, where Gamma(d/2) fits a double; got 344"
        assert err.count(reason) == 2

    def test_one_kernel_integral_per_d_p(self, capsys, monkeypatch):
        # One block per dimension, holding each of its exponents once.
        blocks = []

        def record(specs, tol, _fn=restriction.integrate_oscillatory_bessel_block):
            blocks.append([spec.power for spec in specs])
            return _fn(specs, tol)

        monkeypatch.setattr(restriction, "integrate_oscillatory_bessel_block", record)
        monkeypatch.setattr(restriction, "_KERNEL_INTEGRALS", {})
        code, out, _ = run_cli(
            capsys, "sweep", "--d", "2:3:2", "--p", "1.1:1.2:2", "--q", "1:2:3",
            "--workers", "4",
        )
        assert code == 0
        assert len(out.splitlines()) == 1 + 2 * 2 * 3
        assert blocks == [[p / (p - 1.0) for p in (1.1, 1.2)]] * 2


class TestVerify:
    def test_byte_identical_reports(self, tmp_path):
        out_a = tmp_path / "r1.json"
        out_b = tmp_path / "r2.json"
        args = [
            "verify", "--d", "3", "--p", "1.2", "--q", "2", "--seed", "42",
            "--trials", "10", "--output",
        ]
        assert main(args + [str(out_a)]) == 0
        assert main(args + [str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        payload = json.loads(out_a.read_text())
        assert payload["points"][0]["trials"] == 10
        assert payload["points"][0]["failures"] == []

    def test_inadmissible_grid_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "--d", "2", "--p", "1.4", "--q", "2",
            "--trials", "2",
        )
        assert code == 2
        assert "convergence window" in err

    def test_domain_error_is_a_failed_point(self, capsys):
        args = ["--p", "1.2", "--q", "2", "--trials", "2"]
        code, out, _ = run_cli(capsys, "verify", "--d", "3:400:2", *args)
        assert code == 0
        first, last = json.loads(out)["points"]
        _, alone, _ = run_cli(capsys, "verify", "--d", "3", *args)
        assert first == json.loads(alone)["points"][0]
        assert last["grid_point"]["d"] == 400 and last["failed"] is True
        assert last["error"] == (
            "sphere_area requires d <= 343, where Gamma(d/2) fits a double; got 400"
        )
        assert (last["k_rad"], last["max_ratio"], last["margin"]) == (None, None, None)


class TestGls:
    @pytest.fixture()
    def psi_csv(self, tmp_path):
        path = tmp_path / "psi.csv"
        path.write_text(
            "p,psi\n1.05,3.5\n1.10,4.3\n1.15,5.5\n1.20,7.5\n1.25,12.0\n1.30,30.0\n"
        )
        return path

    def test_zeta_table_csv(self, capsys, psi_csv):
        code, out, _ = run_cli(
            capsys, "gls", "--psi", str(psi_csv), "--d", "3", "--q", "1:3:5",
            "--format", "csv",
        )
        assert code == 0
        rows = list(csv.reader(out.splitlines()))
        assert rows[0] == ["q", "zeta"]
        assert len(rows) == 6
        zetas = [float(r[1]) for r in rows[1:]]
        assert all(a > b for a, b in zip(zetas, zetas[1:]))  # A(3) > 1

    def test_transfer_check(self, capsys, psi_csv):
        code, out, _ = run_cli(
            capsys, "gls", "--psi", str(psi_csv), "--d", "3", "--q", "1:3:5",
            "--check-profile", "gaussian:1.0",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["transfer"]["ok"] is True
        assert payload["transfer"]["left"] <= payload["transfer"]["right"] * (1 + 1e-8)
        assert payload["cut_set"] == [1.05, 1.1, 1.15, 1.2, 1.25, 1.3]

    def test_unconverged_transform_exits_3(self, capsys, psi_csv, monkeypatch):
        monkeypatch.setattr(
            radial_fourier, "_radial_hats",
            lambda kernel, profiles, s, tol: [QuadResult(1.0, 5.0, 15, False)] * len(profiles),
        )
        code, out, err = run_cli(
            capsys, "gls", "--psi", str(psi_csv), "--d", "3", "--q", "1:3:5",
            "--check-profile", "gaussian:1.0",
        )
        assert (code, out) == (3, "")
        assert "transform of 'gaussian(sigma=1.0, d=3)' at s = 1" in err

    def test_missing_header_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        code, _, err = run_cli(
            capsys, "gls", "--psi", str(bad), "--d", "3", "--q", "2"
        )
        assert code == 2
        assert "p,psi" in err


class TestReport:
    def test_csv_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "report", "--d", "3", "--p", "1.1:1.3:3", "--q", "2",
            "--format", "csv",
        )
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        assert len(rows) == 3
        for row in rows:
            assert row["status"] == "ok"
            a = 3 * (1 - 1 / float(row["p"]))
            assert float(row["gauss_ratio"]) == pytest.approx(
                math.exp(0.5 * a), rel=1e-6
            )

    def test_large_order_overflow_is_a_failed_row(self, capsys):
        code, out, err = run_cli(
            capsys, "report", "--d", "340:343:4", "--p", "1.5", "--q", "2",
            "--format", "csv",
        )
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        assert [row["d"] for row in rows] == ["340", "341", "342", "343"]
        assert all(row["status"] == "failed" and row["gauss_opt"] for row in rows)
        code, out, _ = run_cli(
            capsys, "report", "--d", "340", "--p", "1.5", "--q", "2"
        )
        (entry,) = json.loads(out)
        assert "nu = 169.0" in entry["error"] and "overflows double range" in entry["error"]

    def test_predicted_ratio_overflow_is_a_failed_row(self, capsys):
        # a = d(1 - 1/p) = 1470, so e^(a/2) leaves double range.
        args = ["report", "--d", "1500", "--p", "50", "--q", "2"]
        code, out, err = run_cli(capsys, *args, "--format", "csv")
        assert (code, err) == (0, "")
        (row,) = csv.DictReader(out.splitlines())
        assert row["gauss_ratio_predicted"] == "" and row["status"] == "failed"
        code, out, _ = run_cli(capsys, *args)
        (entry,) = json.loads(out)
        assert code == 0 and entry["gauss_ratio_predicted"] is None
        assert entry["error"].endswith(
            "; the predicted Gaussian ratio e^(a/2) exceeds double-precision "
            "range at (d=1500, p=50.0, q=2.0)"
        )

    def test_workers_flag_selects_nothing(self, capsys, tmp_path):
        # --workers is accepted for compatibility; grids run serially, so
        # the flag and a config entry leave stdout byte-identical.
        config = tmp_path / "workers.cfg"
        config.write_text("workers=4\n")
        args = ["report", "--d", "3", "--p", "1.1:1.3:3", "--q", "1:2:2"]
        outs = []
        for extra in ([], ["--workers", "1"], ["--workers", "4"]):
            code, out, _ = run_cli(capsys, *args, *extra)
            assert code == 0
            outs.append(out)
        code, out, _ = run_cli(capsys, "--config", str(config), *args)
        assert code == 0
        outs.append(out)
        assert outs[1:] == outs[:1] * 3


class TestConfig:
    def test_config_sets_defaults_flags_win(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("format=csv\ntol=1e-6\n")
        # config only
        code, out, _ = run_cli(
            capsys, "--config", str(config), "constant",
            "--d", "3", "--p", "1.2", "--q", "2",
        )
        assert code == 0
        assert out.startswith("d,p,q")  # csv came from config
        # explicit flag beats config
        code, out, _ = run_cli(
            capsys, "--config", str(config), "constant",
            "--d", "3", "--p", "1.2", "--q", "2", "--format", "json",
        )
        assert code == 0
        json.loads(out)

    @pytest.mark.parametrize(
        "command", [["sweep"], ["report"], ["verify", "--trials", "2"]],
        ids=["sweep", "report", "verify"],
    )
    def test_config_entries_convert_for_the_invoked_subcommand_only(
        self, capsys, tmp_path, command
    ):
        # constant, gaussian-bound and gls take an int --d, so a range read
        # as every subcommand's default was a malformed entry for any job.
        # A config entry also stands in for a required flag.
        config = tmp_path / "grid.cfg"
        config.write_text("d=2:3:2\np=1.2\nq=2\n")
        flags = run_cli(capsys, *command, "--d", "2:3:2", "--p", "1.2", "--q", "2")
        assert flags[0] == 0
        assert run_cli(capsys, "--config", str(config), *command) == flags

    def test_config_entry_malformed_for_the_invoked_subcommand_exits_2(self, capsys, tmp_path):
        config = tmp_path / "grid.cfg"
        config.write_text("d=2:3:2\np=1.2\nq=2\n")
        code, out, err = run_cli(
            capsys, "--config", str(config), "constant", "--d", "3", "--p", "1.2", "--q", "2"
        )
        assert (code, out, err) == (2, "", "sphrestrict: config entry d='2:3:2' is malformed\n")

    def test_malformed_config_exits_2(self, capsys, tmp_path):
        config = tmp_path / "broken.cfg"
        config.write_text("this is not a key value pair\n")
        code, _, err = run_cli(
            capsys, "--config", str(config), "constant",
            "--d", "3", "--p", "1.2", "--q", "2",
        )
        assert code == 2


class TestMalformedInput:
    """Malformed input ends in exit 2 with one ``sphrestrict:`` line on
    stderr, never a traceback."""

    GRID = ["--d", "3", "--p", "1.2", "--q", "2"]

    @pytest.mark.parametrize(
        "argv, reason",
        [
            (["sweep", "--d", "3.5", "--p", "1.2", "--q", "2"], "integral, got '3.5'"),
            (["sweep", "--d", "3", "--p", "abc", "--q", "2"], "got 'abc'"),
            (["sweep", "--d", "3", "--p", "1.1:1.2:x", "--q", "2"], "got '1.1:1.2:x'"),
            (["sweep", "--d", "inf", "--p", "1.2", "--q", "2"], "integral, got 'inf'"),
            (["gls", "--psi", "{missing}", "--d", "3", "--q", "2"], "cannot read"),
            (["gls", "--psi", "{bad_row}", "--d", "3", "--q", "2"], "['1.1', 'abc']"),
            (["gls", "--psi", "{short_row}", "--d", "3", "--q", "2"], "['1.15']"),
            (["gls", "--psi", "{nan_row}", "--d", "3", "--q", "1:2:3"], "psi(1.1) = nan"),
            (["--config", "{bad_tol}", "constant", *GRID], "tol='abc'"),
            (["--config", "{bad_format}", "constant", *GRID], "format='xml'"),
            (["gls", "--psi", "{psi}", "--d", "3", "--q", "2",
              "--check-profile", "gaussian:abc"], "gaussian:abc"),
            (["constant", *GRID, "--tol", "nan"], "got nan"),
            (["constant", *GRID, "--tol", "inf"], "got inf"),
            (["sweep", *GRID, "--tol", "nan"], "got nan"),
            (["report", *GRID, "--tol", "inf"], "got inf"),
            (["verify", *GRID, "--trials", "2", "--tol", "nan"], "got nan"),
            (["verify", *GRID, "--trials", "2", "--ratio-tol", "nan"], "got nan"),
            (["gls", "--psi", "{psi}", "--d", "3", "--q", "2", "--tol", "nan"], "got nan"),
            (["gaussian-bound", *GRID, "--sigma", "nan"], "got nan"),
            (["gaussian-bound", *GRID, "--sigma", "inf"], "got inf"),
            (["gls", "--psi", "{psi}", "--d", "3", "--q", "2",
              "--check-profile", "gaussian:1e-300"], "exceeds double-precision range"),
            (["gls", "--psi", "{psi}", "--d", "3", "--q", "2",
              "--check-profile", "gaussian:inf"], "got inf"),
            (["gls", "--psi", "{psi}", "--d", "3", "--q", "2",
              "--check-profile", "gaussian:1e-4"],
             "'gaussian(sigma=0.0001, d=3)' has zero Grand Lebesgue norm"),
            (["--config", "{not_utf8}", "constant", *GRID], "cannot read the config file"),
            (["constant", *GRID, "--output", "{tmp}/absent/x.csv"], "cannot write"),
            (["constant", *GRID, "--output", "{tmp}"], "cannot write"),
        ],
        ids=[
            "d_not_integral", "p_not_a_number", "steps_not_a_number", "d_infinite",
            "psi_missing", "psi_value_not_a_number", "psi_row_short", "psi_value_nan",
            "config_tol", "config_format_not_a_choice",
            "profile_width", "constant_tol_nan", "constant_tol_inf", "sweep_tol_nan",
            "report_tol_inf", "verify_tol_nan", "verify_ratio_tol_nan", "gls_tol_nan",
            "gaussian_sigma_nan", "gaussian_sigma_inf", "profile_width_tiny",
            "profile_width_inf", "profile_norm_zero", "config_not_utf8",
            "output_dir_missing", "output_is_a_dir",
        ],
    )
    def test_exits_2(self, capsys, tmp_path, argv, reason):
        files = {
            "missing": "missing.csv",
            "bad_row": "p,psi\n1.05,3.5\n1.1,abc\n",
            "short_row": "p,psi\n1.05,3.5\n1.15\n",
            "nan_row": "p,psi\n1.05,3.5\n1.10,nan\n1.15,5.5\n",
            "bad_tol": "tol=abc\n",
            "bad_format": "format=xml\n",
            "psi": "p,psi\n1.05,3.5\n1.10,4.3\n1.15,5.5\n1.20,7.5\n",
            "not_utf8": b"tol=1e-9\n# \xff\xfe latin-1 bytes\n",
        }
        paths = {name: tmp_path / name for name in files}
        for name, text in files.items():
            if isinstance(text, bytes):
                paths[name].write_bytes(text)
            elif name != "missing":
                paths[name].write_text(text)
        code, out, err = run_cli(capsys, *(arg.format(tmp=tmp_path, **paths) for arg in argv))
        assert (code, out) == (2, "")
        assert err.startswith("sphrestrict: ") and err.count("\n") == 1
        assert reason in err

    @pytest.mark.parametrize("output", ["absent/x.csv", "."], ids=["dir_missing", "is_a_dir"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["constant", *GRID],
            ["sweep", *GRID],
            ["report", *GRID],
            ["verify", *GRID, "--trials", "2"],
            ["gls", "--psi", "{psi}", "--d", "3", "--q", "2", "--check-profile", "gaussian:1.0"],
        ],
        ids=["constant", "sweep", "report", "verify", "gls"],
    )
    def test_unwritable_output_fails_before_any_work(
        self, capsys, tmp_path, monkeypatch, argv, output
    ):
        def no_work(*args, **kwargs):
            raise AssertionError("the job ran before its output path was checked")

        for module, name in [
            (cli, "sharp_radial_constant"), (cli, "evaluate_grid"),
            (gls, "zeta_from_psi"), (verify, "evaluate_grid"),
        ]:
            monkeypatch.setattr(module, name, no_work)
        psi = tmp_path / "psi.csv"
        psi.write_text("p,psi\n1.05,3.5\n1.10,4.3\n")
        argv = [arg.format(psi=psi) for arg in argv] + ["--output", str(tmp_path / output)]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("sphrestrict: cannot write the output file: ")
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == [psi]

    def test_scalar_is_a_one_step_range(self, capsys):
        _, expected, _ = run_cli(capsys, "sweep", "--d", "3", "--p", "1.2", "--q", "2")
        for d in ("3.0", "3.0:3.0:1"):
            assert run_cli(capsys, "sweep", "--d", d, "--p", "1.2", "--q", "2") == (
                0, expected, ""
            )
