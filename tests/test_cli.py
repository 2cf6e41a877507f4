import argparse
import hashlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import mpmath
import pytest

import mp_reference
import nlprobe
import nlprobe.cli as cli
from nlprobe.cli import main
from nlprobe.errors import InternalConsistencyError, ThresholdAmbiguousError
from nlprobe.moments import moment_real_axis
from nlprobe.optimizer import OptTarget, TargetKind, objective
from nlprobe.probe import bogoliubov_view, make_probe
from nlprobe.qfi_core import ModelSpec


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def fresh_parser():
    """Empty build_parser's cache, so that the test's first main call builds the parser."""
    cli.build_parser.cache_clear()


def _exit_and_output(capsys, argv):
    """main's exit code, from its return or from argparse's SystemExit, and what it printed."""
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse printed help or the version, or rejected the arguments
        code = exc.code
    return (code, *capsys.readouterr())


def use_40_digit_kernel(monkeypatch):
    """Make qfi compute its entries with the 40-digit reference kernel."""
    monkeypatch.setattr(cli, "_probe_qfi", mp_reference.probe_qfi)


def parse_record(text):
    out = {}
    for line in text.strip().splitlines():
        key, val = line.split("=", 1)
        out[key] = val
    return out


class TestQfiCommand:
    def test_coherent_example(self, capsys):
        code, out, _ = run_cli(
            capsys, "qfi", "--n", "1", "--gamma", "0", "--zeta", "2", "--lambda", "1"
        )
        assert code == 0
        rec = parse_record(out)
        assert float(rec["f_ll"]) == pytest.approx(72.0, rel=1e-10)
        assert float(rec["f_zz"]) == pytest.approx(16.0, rel=1e-10)
        assert float(rec["f_lz"]) == pytest.approx(32.0, rel=1e-10)

    def test_vacuum_linear(self, capsys):
        code, out, _ = run_cli(
            capsys, "qfi", "--n", "0", "--gamma", "0", "--zeta", "1", "--lambda", "1"
        )
        rec = parse_record(out)
        assert float(rec["f_ll"]) == pytest.approx(4.0, rel=1e-10)
        assert float(rec["f_zz"]) == 0.0

    def test_oracle_delta_small_on_squeezed_vacuum(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "qfi", "--n", "3", "--gamma", "1", "--zeta", "2", "--lambda", "1", "--oracle",
        )
        rec = parse_record(out)
        for key in ("delta_f_ll", "delta_f_zz", "delta_f_lz"):
            assert abs(float(rec[key])) <= 1e-6 * max(1.0, abs(float(rec["f_ll"])))

    def test_json_mode(self, capsys):
        code, out, _ = run_cli(
            capsys, "qfi", "--n", "0", "--gamma", "0", "--zeta", "2", "--lambda", "0.5", "--json"
        )
        doc = json.loads(out)
        assert doc["f_ll"] == pytest.approx(8.0)

    FOUND_REPRO = ["--n", "1000", "--gamma", "0.7", "--theta", repr(math.pi), "--phi", repr(math.pi / 2),
                   "--zeta", "12", "--lambda", "1"]
    HIGH_N = ["--n", "1e6", "--gamma", "0.8", "--zeta", "3", "--lambda", "1"]
    TIMED = ["--n", "2", "--gamma", "0.3", "--zeta", "3", "--lambda", "1", "--time", "2.5"]
    HUGE = ["--n", "1e30", "--gamma", "0.5", "--lambda", "1"]
    # the 80-digit normal law (tests/test_properties.py), with the determinant
    # of the time-reparametrized matrix formed before rounding; at N = 1e30
    # 80 digits lose the determinant, so those values were taken at 200
    WANT = {
        "found": {"f_ll": 5.3988768310296563e-30, "f_zz": 9.4744623333310874e-26, "f_lz": 1.078927583008031e-36,
                  "scalar_bound_inverse": 5.3985692018559978e-30},
        "high_n": {"f_ll": 7.7309652920295425e45, "f_zz": 3.7748806778920548e27, "f_lz": 5.4021728500975167e36,
                   "scalar_bound_inverse": 737280921598800.08},
        "timed": {"f_ll": 10322218.317007631, "f_zz": 59282.451628199217, "f_lz": 775409.75692172786,
                  "scalar_bound_inverse": 1027.4157062654912},
        "huge": {"f_ll": 2.5600000000000003e122, "f_zz": 3.2e31, "f_lz": 9.050966799187808e76,
                 "scalar_bound_inverse": 3.9999999999999996e-30},
    }

    @pytest.mark.parametrize(
        "argv, want, reference",
        [
            # entries 1e-30 where the moments summed are far larger: the
            # double moment sums printed an exit 2 "trace is zero" here
            pytest.param(FOUND_REPRO, "found", False, id="entries-far-below-the-terms"),
            # the 40-digit general-phase sums needed 67 digits here and exited 2
            # with "negative determinant"
            pytest.param(FOUND_REPRO, "found", True, id="entries-far-below-the-terms-40-digit"),
            # det F cancels 18 digits: subtracting rounded entries printed 1.19e24
            pytest.param(HIGH_N, "high_n", False, id="determinant-cancels"),
            pytest.param(HIGH_N, "high_n", True, id="determinant-cancels-40-digit"),
            pytest.param(TIMED, "timed", False, id="time-reparametrized"),
            pytest.param(TIMED, "timed", True, id="time-reparametrized-40-digit"),
            pytest.param(HUGE + ["--zeta", "2"], "huge", False, id="huge-energy"),
            # f_ll f_zz - f_lz^2 of the 40-digit moment sums came out -4.6e192: exit 2
            pytest.param(HUGE + ["--zeta", "2"], "huge", True, id="huge-energy-40-digit"),
        ],
    )
    def test_matches_the_80_digit_normal_law(self, capsys, monkeypatch, argv, want, reference):
        if reference:
            use_40_digit_kernel(monkeypatch)
        code, out, _ = run_cli(capsys, "qfi", *argv)
        assert code == 0
        rec = parse_record(out)
        for key, value in self.WANT[want].items():
            assert float(rec[key]) == pytest.approx(value, rel=1e-12), key

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["qfi", "--n", "1"], id="missing-flags"),
            # an infinite interaction time printed f_ll=inf and u_lz=nan
            pytest.param(["qfi", "--n", "1", "--gamma", "0.5", "--zeta", "2", "--lambda", "1", "--time", "inf"],
                         id="time-inf"),
            # t^2 underflows to 0: 0/0 in the bound's time factor, a ZeroDivisionError traceback and exit 1
            pytest.param(["qfi", "--n", "1", "--gamma", "0.5", "--zeta", "1", "--lambda", "1", "--time", "1e-200"],
                         id="time-square-underflows"),
            # t^2 overflows: exit 0 with f_ll=inf and scalar_bound_inverse=nan
            pytest.param(["qfi", "--n", "1", "--gamma", "0.5", "--zeta", "2", "--lambda", "1", "--time", "1e200"],
                         id="time-square-overflows"),
            pytest.param(["threshold", "--target", "f_lambda", "--zeta", "2", "--samples", "1"], id="samples-1"),
            pytest.param(["threshold", "--target", "f_lambda", "--zeta", "2", "--n-hi", "1e-5"], id="n-hi-below-n-lo"),
            # the bisection width is the constant optimizer.THRESHOLD_REL_TOL: its flag is an unknown argument
            pytest.param(["threshold", "--target", "f_lambda", "--zeta", "2", "--rel-tol", "1e-6"], id="rel-tol"),
            pytest.param(["scan-gamma", "--n", "1", "--zeta", "2", "--target", "f_lambda", "--grid", "1"], id="gamma-grid-1"),
            pytest.param(
                ["scan-phase", "--n", "1", "--gamma", "0.5", "--zeta", "2", "--target", "f_lambda", "--grid", "0"],
                id="phase-grid-0",
            ),
            # the 40-digit mode is retired: its flag is an unknown argument
            pytest.param(["qfi", "--n", "1", "--gamma", "0.5", "--zeta", "2", "--lambda", "1", "--extended"],
                         id="extended"),
        ],
    )
    def test_usage_error_exits_two(self, capsys, argv):
        code, out, err = _exit_and_output(capsys, argv)
        assert (code, out) == (2, "")
        assert err

    def test_time_that_carries_an_entry_beyond_the_range_exits_three(self, capsys):
        # t^2 = 1e308 is a normal double, t^2 f_ll is not: this printed f_ll=inf
        argv = ["qfi", "--n", "1", "--gamma", "0.5", "--zeta", "2", "--lambda", "1", "--time", "1e154"]
        assert run_cli(capsys, *argv) == (
            3, "", '{"error": "OverflowError", "message": "QFI entries exceed the double-precision range"}\n'
        )

    def test_time_that_carries_an_oracle_entry_beyond_the_range_exits_three(self, capsys):
        # the closed-form t^2 f_ll fits here, the oracle's does not: this
        # printed oracle_f_ll=inf and delta_f_ll=-inf
        argv = ["qfi", "--n", "2", "--gamma", "0.5", "--theta", "3", "--phi", "3", "--zeta", "2", "--lambda", "0.01",
                "--time", "1.2e154", "--oracle"]
        assert run_cli(capsys, *argv) == (
            3, "", '{"error": "OverflowError", "message": "QFI entries exceed the double-precision range"}\n'
        )

    def test_time_rescales_the_oracle_entries(self, capsys):
        argv = ["qfi", "--n", "1", "--gamma", "0.5", "--theta", "0.2", "--phi", "5.8", "--zeta", "2", "--lambda", "0.1",
                "--oracle", "--time"]
        _, out, _ = run_cli(capsys, *argv, "1")
        base = {key: float(val) for key, val in parse_record(out).items()}
        code, out, err = run_cli(capsys, *argv, "2.5")
        assert (code, err) == (0, "")
        timed = {key: float(val) for key, val in parse_record(out).items()}
        t = 2.5
        assert (timed["oracle_f_ll"], timed["oracle_f_zz"], timed["oracle_f_lz"], timed["oracle_u_lz"]) == (
            t * t * base["oracle_f_ll"], base["oracle_f_zz"], t * base["oracle_f_lz"], t * base["oracle_u_lz"]
        )

    def test_time_bound_fits_where_the_entries_sum_does_not(self, capsys):
        # f_ll + f_zz = 2.8e308 overflowed in the rescaled bound, which exited 3
        n, gamma, zeta, lam, t = 2.7e76, 0.5, 2, 1.31e115, 1e-10
        argv = ["--n", repr(n), "--gamma", repr(gamma), "--zeta", str(zeta), "--lambda", repr(lam), "--time", repr(t)]
        code, out, err = run_cli(capsys, "qfi", *argv)
        assert (code, err) == (0, "")
        # det F / tr F of the rescaled matrix at 200 digits: f_ll f_zz - f_lz^2 cancels 153 of them
        with mpmath.workdps(200):
            f_ll, f_zz, f_lz = mp_reference._unrounded(n, gamma, 0.0, 0.0, ModelSpec(lam, zeta), +1, (0, 1, 2), 200)
            t2 = mpmath.mpf(t) ** 2
            want = float(t2 * (f_ll * f_zz - f_lz**2) / (t2 * f_ll + f_zz))
        assert want == pytest.approx(2.3328e134, rel=1e-12)
        assert float(parse_record(out)["scalar_bound_inverse"]) == pytest.approx(want, rel=1e-12)

    def test_time_whose_coupling_ratio_leaves_the_range_exits_three(self, capsys):
        # lambda / t = 1e310: (lambda zeta)^2 overflows first, so f_zz is the entry beyond the range
        argv = ["qfi", "--n", "1", "--gamma", "0.5", "--zeta", "2", "--lambda", "1e300", "--time", "1e-10"]
        assert run_cli(capsys, *argv) == (
            3, "", '{"error": "OverflowError", "message": "QFI entries exceed the double-precision range"}\n'
        )

    def test_time_whose_square_times_f_ll_underflows_exits_zero(self, capsys):
        # cos(theta / 2) = -4.7e-19 makes f_ll = 3.7e-18, and t^2 f_ll underflows
        # to 0 at zeta = 1, where f_zz = 0: the bound's time factor was 0/0, a
        # ZeroDivisionError traceback
        argv = ["qfi", "--n", "5.3e17", "--gamma", "1", "--theta", "1.0638745296653083e+256", "--zeta", "1",
                "--lambda", "1", "--time", "1.5e-154"]
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert parse_record(out) == {"f_ll": "0.0", "f_zz": "0.0", "f_lz": "0.0", "u_lz": "0.0",
                                     "scalar_bound_inverse": "0.0"}

    def test_joint_bound_that_fits_is_printed(self, capsys):
        # 4 (lambda zeta)^2 sigma^4 u^(zeta-2) G overflowed before its division
        # here and exited 3, although det F / tr F <= f_ll = 2.1e139 fits
        code, out, err = run_cli(capsys, "qfi", "--n", "1e10", "--gamma", "1", "--zeta", "12", "--lambda", "1e85")
        assert (code, err) == (0, "")
        (want,) = mp_reference.kernel(1e10, 1.0, 0.0, 0.0, ModelSpec(1e85, 12), entries=(3,))
        assert float(parse_record(out)["scalar_bound_inverse"]) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("kernel", ["double", "40-digit"])
    def test_overflow_exits_three(self, capsys, monkeypatch, kernel):
        # the 40-digit sums raised DegenerateModelError (exit 2) here
        if kernel == "40-digit":
            use_40_digit_kernel(monkeypatch)
        code, out, err = run_cli(capsys, "qfi", *self.HUGE, "--zeta", "12")
        assert (code, out) == (3, "")
        assert json.loads(err)["error"] == "OverflowError"


class TestScanPhase:
    def test_grid_shape_and_header(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "scan-phase", "--n", "3", "--gamma", "0.5", "--zeta", "3",
            "--target", "f_lambda", "--grid", "4",
        )
        lines = out.strip().split("\n")
        meta = [l for l in lines if l.startswith("#")]
        body = [l for l in lines if not l.startswith("#")]
        assert body[0] == "theta,phi,value"
        assert len(body) == 1 + 16
        assert any("target=f_lambda" in l for l in meta)

    def test_degenerate_grid_matches_qfi_command(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "scan-phase", "--n", "1", "--gamma", "0", "--zeta", "2",
            "--target", "f_lambda", "--grid", "1",
        )
        value = float(out.strip().split("\n")[-1].split(",")[2])
        assert value == pytest.approx(72.0, rel=1e-10)

    def test_zero_phase_is_grid_maximum(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "scan-phase", "--n", "3", "--gamma", "0.5", "--zeta", "3",
            "--target", "f_lambda", "--grid", "8",
        )
        rows = [l.split(",") for l in out.strip().split("\n") if not l.startswith("#")][1:]
        vals = {(r[0], r[1]): float(r[2]) for r in rows}
        assert max(vals.values()) == vals[("0.0", "0.0")]

    def test_jobs_do_not_change_bytes(self, tmp_path, capsys):
        args = [
            "scan-phase", "--n", "2", "--gamma", "0.3", "--zeta", "2",
            "--target", "f_zeta", "--grid", "6",
        ]
        f1, f8 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--jobs", "1", "--out", str(f1)]) == 0
        assert main(args + ["--jobs", "8", "--out", str(f8)]) == 0
        assert f1.read_bytes() == f8.read_bytes()


    def scan_values(self, out):
        rows = [l.split(",") for l in out.splitlines() if not l.startswith("#")][1:]
        return {(float(t), float(p)): float(v) for t, p, v in rows}

    def test_sums_with_small_real_part_are_accepted(self, capsys):
        # the terms summed at general phases are up to 1e4 times the moment;
        # a residue check scaled by the moment rejected this documented scan
        code, out, _ = run_cli(
            capsys,
            "scan-phase", "--n", "10", "--gamma", "0.5", "--zeta", "6",
            "--target", "f_lambda", "--grid", "48",
        )
        assert code == 0
        values = self.scan_values(out)
        assert len(values) == 48 * 48
        step = 2.0 * math.pi / 48
        model = ModelSpec(lambda_eff=1.0, zeta=6)
        for i, j in [(24, 8), (0, 0), (7, 31), (40, 13), (13, 45)]:
            probe = make_probe(10.0, 0.5, i * step, j * step)
            expected = mp_reference.probe_qfi(probe, model, +1, (0,))[0]
            # double precision is accurate relative to the summed term
            # magnitudes eta^k sum|C| |beta|^(k-2j), not to the value itself
            view = bogoliubov_view(probe)
            size = [view.eta**k * moment_real_axis(abs(view.beta), 0.0, k) for k in (12, 6)]
            tol = 1e-12 * 4 * (size[0] + size[1] ** 2)
            assert values[(i * step, j * step)] == pytest.approx(expected, rel=0, abs=tol)

    def test_high_energy_scan_keeps_the_40_digit_values(self, capsys):
        # at N = 1e8 the variance cancels ~16 digits; the 40-digit moment sums,
        # rounded to double before the subtraction, printed 0.0 here
        code, out, _ = run_cli(
            capsys,
            "scan-phase", "--n", "1e8", "--gamma", "0.5", "--zeta", "2",
            "--target", "f_lambda", "--grid", "8",
        )
        assert code == 0
        values = self.scan_values(out)
        assert len(values) == 64
        for (theta, phi), value in values.items():
            expected = mp_reference.probe_qfi(make_probe(1e8, 0.5, theta, phi), ModelSpec(1.0, 2), +1, (0,))[0]
            assert value == pytest.approx(expected, rel=1e-14, abs=0)


class TestOutFile:
    @pytest.mark.parametrize(
        "argv",
        [
            ["qfi", "--n", "1", "--gamma", "0.3", "--zeta", "2", "--lambda", "1"],
            ["threshold", "--target", "f_lambda", "--zeta", "2"],
            ["selftest"],
        ],
        ids=["qfi", "threshold", "selftest"],
    )
    def test_out_holds_the_stdout_bytes(self, capsys, tmp_path, argv):
        code, expected, _ = run_cli(capsys, *argv)
        assert code == 0
        path = tmp_path / "out.txt"
        code, out, _ = run_cli(capsys, *argv, "--out", str(path))
        assert code == 0
        assert out == ""
        assert path.read_bytes() == expected.encode()

    @pytest.mark.parametrize(
        "argv, path, error",
        [
            (["scan-gamma", "--n", "1", "--zeta", "2", "--target", "f_lambda", "--grid", "3"], "missing/x.csv",
             "FileNotFoundError"),
            (["qfi", "--n", "1", "--gamma", "0.5", "--zeta", "2", "--lambda", "1"], ".", "IsADirectoryError"),
        ],
        ids=["missing-directory", "a-directory"],
    )
    def test_an_out_that_cannot_be_opened_is_a_usage_error(self, capsys, tmp_path, argv, path, error):
        code, out, err = run_cli(capsys, *argv, "--out", str(tmp_path / path))
        assert (code, out) == (2, "")
        report = json.loads(err)
        assert report["error"] == "DomainError"
        assert report["message"].startswith(f"--out cannot be opened: {error}: ") and str(tmp_path) in report["message"]

    def test_a_write_that_fails_after_the_open_is_not_a_usage_error(self, monkeypatch):
        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        with pytest.raises(BrokenPipeError):
            cli.main(["qfi", "--n", "1", "--gamma", "0.5", "--zeta", "2", "--lambda", "1"])


class TestScanGamma:
    def test_rows_and_endpoints(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "scan-gamma", "--n", "1", "--zeta", "2", "--target", "f_lambda", "--grid", "11",
        )
        rows = [l.split(",") for l in out.strip().split("\n") if not l.startswith("#")][1:]
        assert len(rows) == 11
        assert float(rows[0][0]) == 0.0 and float(rows[-1][0]) == 1.0


class TestOptGamma:
    def test_curve_descends_from_boundary(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "opt-gamma", "--target", "f_lambda", "--zeta", "2",
            "--n-range", "0.001:10000:6",
        )
        rows = [l.split(",") for l in out.strip().split("\n") if not l.startswith("#")][1:]
        gammas = [float(r[3]) for r in rows]
        assert gammas[0] == pytest.approx(1.0, abs=1e-6)
        assert gammas[-1] == pytest.approx(0.75, abs=0.01)
        asym = [float(r[5]) for r in rows]
        assert all(a == 0.75 for a in asym)

    def test_order_target_constant_boundary(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "opt-gamma", "--target", "f_zeta", "--zeta", "2", "--n-range", "0.01:100:4",
        )
        rows = [l.split(",") for l in out.strip().split("\n") if not l.startswith("#")][1:]
        assert all(float(r[3]) == pytest.approx(1.0, abs=1e-6) for r in rows)

    def test_coupling_applies_to_every_target(self, capsys):
        # f_zeta read lambda = 1 and printed lambda=1.0 whatever --lambda said
        argv = ["opt-gamma", "--target", "f_zeta", "--zeta", "3", "--n-range", "1:2:2"]
        _, out, _ = run_cli(capsys, *argv)
        base = [l.split(",") for l in out.splitlines() if not l.startswith("#")][1:]
        code, out, err = run_cli(capsys, *argv, "--lambda", "5")
        assert (code, err) == (0, "")
        assert "# lambdas=5.0\n" in out
        rows = [l.split(",") for l in out.splitlines() if not l.startswith("#")][1:]
        assert [r[2] for r in rows] == ["5.0", "5.0"]
        for row, ref in zip(rows, base):
            assert float(row[4]) == pytest.approx(25.0 * float(ref[4]), rel=1e-12)

    @pytest.mark.parametrize(
        "spec, message",
        [("1e-3:1e3", "bad n-range '1e-3:1e3', expected LO:HI:COUNT"),
         ("1e-3:1e3:x", "bad n-range '1e-3:1e3:x', expected LO:HI:COUNT"),
         ("1e3:1e-3:5", "bad n-range '1e3:1e-3:5'\n"),
         ("1e-3:1e3:1", "bad n-range '1e-3:1e3:1'\n"),
         ("0:1:3", "bad n-range '0:1:3'\n")],
        ids=["two-fields", "count-not-an-integer", "out-of-order", "one-point", "zero-energy"],
    )
    def test_bad_n_range_is_a_usage_error(self, capsys, spec, message):
        with pytest.raises(SystemExit) as info:
            main(["opt-gamma", "--target", "f_lambda", "--zeta", "2", "--n-range", spec])
        out, err = capsys.readouterr()
        assert (info.value.code, out) == (2, "")
        assert f"error: argument --n-range: {message}" in err

    @pytest.mark.parametrize("zeta", ["0", "-1"])
    @pytest.mark.parametrize("target", ["f_lambda", "f_zeta", "joint"])
    def test_a_bad_order_is_the_models_error(self, capsys, target, zeta):
        # f_lambda and joint reported "gamma_opt_high_n requires zeta >= 1": the
        # asymptote column was computed before any ModelSpec had checked zeta
        message = f"nonlinearity order must be an integer >= 1, got {zeta}"
        want = (2, "", json.dumps({"error": "DomainError", "message": message}) + "\n")
        assert run_cli(capsys, "opt-gamma", "--target", target, "--zeta", zeta, "--n-range", "1:2:2") == want
        assert run_cli(capsys, "threshold", "--target", target, "--zeta", zeta) == want

    def test_joint_optimum_at_high_energy(self, capsys):
        # the optimum approaches 0.8 from below; at N = 1e3 it is 0.79990
        # (50-digit reference), so 1.5e-4 still rejects the 0.67-0.72 that a
        # cancelled double determinant gives
        code, out, _ = run_cli(
            capsys,
            "opt-gamma", "--target", "joint", "--zeta", "4", "--lambda", "1", "--n-range", "1e3:1e6:7",
        )
        assert code == 0
        rows = [l.split(",") for l in out.strip().split("\n") if not l.startswith("#")][1:]
        assert len(rows) == 7
        assert all(float(r[3]) == pytest.approx(0.8, abs=1.5e-4) for r in rows)


class TestThreshold:
    def test_coupling_order_two(self, capsys):
        code, out, _ = run_cli(capsys, "threshold", "--target", "f_lambda", "--zeta", "2")
        assert code == 0
        rec = dict(kv.split("=", 1) for kv in out.split())
        assert float(rec["n_th"]) == pytest.approx((3 * math.sqrt(2) - 4) / 8, rel=1e-12)
        assert "analytic_reference" in rec

    def test_no_threshold_sentinel(self, capsys):
        code, out, _ = run_cli(capsys, "threshold", "--target", "f_zeta", "--zeta", "2")
        assert code == 0
        assert "n_th=no-threshold" in out

    def test_joint_order_three_has_no_threshold(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "threshold", "--target", "joint", "--zeta", "3", "--lambda", "1", "--n-hi", "1e6", "--samples", "21",
        )
        assert code == 0
        assert "n_th=no-threshold" in out


    def test_joint_interior_optimum_near_one_is_not_a_second_crossing(self, capsys):
        # at high energy the joint optimum is interior but within 1e-6 of
        # gamma = 1; only gamma_opt == 1 counts as the boundary, so the single
        # crossing near N = 1.26 is found, where the 40-digit reference puts it
        argv = ["threshold", "--target", "joint", "--zeta", "3", "--lambda", "100", "--n-hi", "1e6", "--samples", "21"]
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert out == "target=joint zeta=3 lambda=100.0 rel_tol=0.0001 n_th=1.2579261672532058\n"
        t = OptTarget(TargetKind.JOINT_BOUND, ModelSpec(lambda_eff=100.0, zeta=3))
        n_th = 1.2579261672532058
        assert mp_reference.optimize_gamma(n_th * (1 - 1e-3), t).at_boundary
        assert not mp_reference.optimize_gamma(n_th * (1 + 1e-3), t).at_boundary
        high = mp_reference.optimize_gamma(1e6, t)
        assert 1.0 - 1e-6 < high.gamma_opt < 1.0 and not high.at_boundary


    @pytest.mark.parametrize("command", ["threshold", "opt-gamma"])
    def test_lambda_without_a_value_is_a_usage_error(self, capsys, command):
        # threshold --lambda with no value ran the default couplings
        argv = [command, "--target", "joint", "--zeta", "2", "--lambda"]
        with pytest.raises(SystemExit) as info:
            main(argv + (["--n-range", "1:2:2"] if command == "opt-gamma" else []))
        out, err = capsys.readouterr()
        assert (info.value.code, out) == (2, "")
        assert err.endswith(f"nlprobe {command}: error: argument --lambda: expected at least one argument\n")


class TestSelftest:
    def test_passes(self, capsys):
        code, out, _ = run_cli(capsys, "selftest")
        assert code == 0
        assert "FAIL" not in out
        assert "INFO moments.default-family-vs-state-delta" in out

    def test_a_failed_check_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "coeff_row_sum", lambda zeta, k: -1)
        code, out, err = run_cli(capsys, "selftest")
        assert (code, err) == (1, "")
        assert "FAIL combinatorics.row-sum-identity\n" in out
        assert out.endswith("1 FAILURES\n")

    def test_json_is_one_document_with_the_text_checks(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "coeff_row_sum", lambda zeta, k: -1)
        code, text, _ = run_cli(capsys, "selftest")
        json_code, out, err = run_cli(capsys, "selftest", "--json")
        assert (json_code, err) == (code, "") == (1, "")
        doc = json.loads(out)
        assert sorted(doc) == ["checks", "failures", "info"] and doc["failures"] == 1
        lines = [f"{c['status']} {c['name']}{' ' + c['detail'] if c['detail'] else ''}" for c in doc["checks"]]
        assert lines[0] == "FAIL combinatorics.row-sum-identity"
        assert text.splitlines() == lines[:3] + [f"INFO {doc['info']}"] + lines[3:] + ["1 FAILURES"]

    def test_the_threshold_check_fails_a_one_in_a_million_error(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "find_threshold", lambda target: cli.ANALYTIC_THRESHOLD * (1.0 + 1e-6))
        code, out, _ = run_cli(capsys, "selftest")
        assert code == 1
        assert "FAIL optimizer.threshold-analytic-reference n_th=0.030330 ref=0.030330\n" in out
        assert out.endswith("1 FAILURES\n")


class TestErrorPaths:
    def test_oracle_cutoff_failure_exits_three(self, capsys):
        # valid arguments whose oracle needs a cutoff above DIM_CAP: a
        # numerical-range failure, not a usage error (it exited 2)
        argv = ["qfi", "--n", "1e6", "--gamma", "0.5", "--zeta", "2", "--lambda", "1", "--oracle"]
        err = '{"error": "CutoffError", "message": "oracle QFI: start cutoff 8388608 is above DIM_CAP=4096"}\n'
        assert run_cli(capsys, *argv) == (3, "", err)

    def test_ambiguous_threshold_reports_its_crossings(self, capsys, monkeypatch):
        def ambiguous(target, **kwargs):
            raise ThresholdAmbiguousError("boundary indicator crossed twice", crossings=[(0.5, 1.0), (2.0, 4.0)])

        monkeypatch.setattr(cli, "find_threshold", ambiguous)
        err = ('{"error": "ThresholdAmbiguousError", "message": "boundary indicator crossed twice", '
               '"crossings": [[0.5, 1.0], [2.0, 4.0]]}\n')
        assert run_cli(capsys, "threshold", "--target", "f_lambda", "--zeta", "2") == (3, "", err)

    @pytest.mark.parametrize("n", ["1e15", "1e28"], ids=["power-overflows", "entry-overflows"])
    @pytest.mark.parametrize("target", ["f_lambda", "f_zeta", "joint"])
    def test_scan_gamma_overflow_is_the_point_loop_error(self, capsys, n, target):
        # the whole grid is one pass, but the error is the one the first
        # failing point raises on its own: at 1e15 gamma = 0 still fits; at
        # 1e28 gamma = 0 overflows f_ll alone, so only f_lambda fails there,
        # and f_zeta and the joint bound fail first at the power of gamma = 0.1,
        # which printed the errno text of float ** until it became an entry overflow
        message = "QFI entries exceed the double-precision range"
        code, out, err = run_cli(capsys, "scan-gamma", "--n", n, "--zeta", "12", "--target", target, "--grid", "11")
        assert (code, out) == (3, "")
        assert json.loads(err) == {"error": "OverflowError", "message": message}
        with pytest.raises(OverflowError, match=re.escape(message)):
            for i in range(11):
                objective(i / 10, float(n), OptTarget(TargetKind(target), ModelSpec(1.0, 12)))

    @pytest.mark.parametrize("n_range", ["1:inf:3", "1e-300:1e10:3"], ids=["infinite-energy", "ratio-overflows"])
    def test_opt_gamma_errors_keep_their_bytes(self, capsys, n_range):
        # both exited 2 with the optimizer's "mean photon number must be finite
        # and >= 0, got inf": the grid's formula overflowed to inf. The log grid
        # now rejects them as it rejects every other range it cannot build
        with pytest.raises(SystemExit) as info:
            main(["opt-gamma", "--target", "f_lambda", "--zeta", "12", "--n-range", n_range])
        out, err = capsys.readouterr()
        assert (info.value.code, out) == (2, "")
        assert err.endswith(f"nlprobe opt-gamma: error: argument --n-range: bad n-range '{n_range}'\n")

    @pytest.mark.parametrize(
        "argv, got",
        [(["--n-hi", "1e305"], "0.0001, 1e+305, 15"), (["--n-hi", "1e-5"], "0.0001, 1e-05, 15"),
         (["--samples", "1"], "0.0001, 1000.0, 1")],
        ids=["ratio-overflows", "n-hi-below-n-lo", "samples-1"],
    )
    def test_threshold_range_errors_are_the_log_grids(self, capsys, argv, got):
        # --n-hi 1e305 exited 2 with "mean photon number must be finite and >= 0, got inf"
        message = f"a log grid needs 0 < lo < hi, count >= 2 and finite points, got {got}"
        want = json.dumps({"error": "DomainError", "message": message}) + "\n"
        assert run_cli(capsys, "threshold", "--target", "f_lambda", "--zeta", "2", *argv) == (2, "", want)

    def test_memory_error_exits_three(self, capsys, monkeypatch):
        # numpy's ArrayMemoryError, which --samples 100000000 meets, was a traceback with exit 1
        def out_of_memory(target, **kwargs):
            raise MemoryError("Unable to allocate 96.1 GiB for an array with shape (100000000, 129)")

        monkeypatch.setattr(cli, "find_threshold", out_of_memory)
        err = ('{"error": "MemoryError", "message": "Unable to allocate 96.1 GiB for an array with shape '
               '(100000000, 129)"}\n')
        assert run_cli(capsys, "threshold", "--target", "f_lambda", "--zeta", "2") == (3, "", err)

    @pytest.mark.parametrize(
        "argv",
        [["threshold", "--target", "f_lambda", "--zeta", "2"],
         ["scan-gamma", "--target", "f_lambda", "--zeta", "3", "--n", "1", "--grid", "3"]],
        ids=["threshold", "scan-gamma"],
    )
    def test_f_lambda_does_not_read_the_coupling(self, capsys, argv):
        # (lambda zeta)^2 overflowed for f_ll, which does not depend on it, and both exited 3
        code, want, _ = run_cli(capsys, *argv, "--lambda", "1")
        assert code == 0
        code, out, err = run_cli(capsys, *argv, "--lambda", "1e200")
        assert (code, out.replace("1e+200", "1.0"), err) == (0, want, "")

    @pytest.mark.parametrize(
        "argv",
        [["qfi", "--n", "1", "--gamma", "0.5", "--zeta", "1"],
         ["opt-gamma", "--target", "f_zeta", "--zeta", "1", "--n-range", "1:10:2"],
         ["threshold", "--target", "f_zeta", "--zeta", "1"]],
        ids=["qfi", "opt-gamma", "threshold"],
    )
    def test_order_one_order_qfi_is_zero_where_the_coupling_square_overflows(self, capsys, argv):
        # W = 0 at zeta = 1, so f_zz is 0 at every coupling: inf * 0 exited 3 with an entry overflow
        code, want, _ = run_cli(capsys, *argv, "--lambda", "1")
        assert code == 0
        code, out, err = run_cli(capsys, *argv, "--lambda", "1e200")
        assert (code, out.replace("1e+200", "1.0"), err) == (0, want, "")

    @pytest.mark.parametrize(
        "argv, error, message",
        [
            (["qfi", "--n", "1", "--gamma", "0.5", "--zeta", "2"],
             "OverflowError", "QFI entries exceed the double-precision range"),
            (["scan-gamma", "--target", "f_zeta", "--zeta", "3", "--n", "1", "--grid", "3"],
             "OverflowError", "QFI entries exceed the double-precision range"),
        ],
        ids=["qfi", "scan-gamma-f_zeta"],
    )
    def test_coupling_beyond_the_range_is_an_entry_overflow(self, capsys, argv, error, message):
        # these printed the errno text of (lambda zeta) ** 2; f_zz overflows
        assert run_cli(capsys, *argv, "--lambda", "1e200") == (3, "", json.dumps({"error": error, "message": message}) + "\n")

    @pytest.mark.parametrize(
        "argv",
        [["scan-gamma", "--target", "joint", "--zeta", "3", "--n", "1", "--grid", "3"],
         ["threshold", "--target", "joint", "--zeta", "2"]],
        ids=["scan-gamma-joint", "threshold-joint"],
    )
    def test_joint_bound_takes_its_limit_where_the_coupling_square_overflows(self, capsys, argv):
        # (lambda zeta)^2 = inf leaves 4 sigma^4 u^(zeta-2) G / W, which fits;
        # both exited 3 with an entry overflow
        code, want, _ = run_cli(capsys, *argv, "--lambda", "1e150")
        assert code == 0
        code, out, err = run_cli(capsys, *argv, "--lambda", "1e200")
        assert (code, out.replace("1e+200", "1e+150"), err) == (0, want, "")
        if argv[0] == "scan-gamma":  # the 40-digit reference squares lambda zeta without overflow
            rows = [l.split(",") for l in out.splitlines() if not l.startswith("#")][1:]
            t = OptTarget(TargetKind.JOINT_BOUND, ModelSpec(1e200, 3))
            for gamma, value in rows:
                assert mp_reference.objective(float(gamma), 1.0, t) == pytest.approx(float(value), rel=1e-12)

    def test_joint_bound_at_order_one_is_zero_where_the_coupling_square_overflows(self, capsys):
        # G = W = 0 at zeta = 1, and u V / (lambda zeta)^2 underflows to 0: the
        # bound was 0 / 0 and exited 3 with an entry overflow
        argv = ["scan-gamma", "--target", "joint", "--zeta", "1", "--n", "1", "--grid", "3", "--lambda", "1e200"]
        code, out, err = run_cli(capsys, *argv)
        rows = [l.split(",") for l in out.splitlines() if not l.startswith("#")][1:]
        assert (code, err, [value for _, value in rows]) == (0, "", ["0.0"] * 3)

    @pytest.mark.parametrize(
        "argv",
        [["qfi", "--n", "1e300", "--gamma", "0", "--zeta", "12", "--lambda", "1"],
         ["scan-gamma", "--n", "1e300", "--zeta", "12", "--target", "f_lambda", "--grid", "3"],
         ["scan-phase", "--n", "1e300", "--gamma", "0", "--zeta", "12", "--target", "f_zeta", "--grid", "2"],
         ["opt-gamma", "--target", "f_lambda", "--zeta", "12", "--n-range", "1e39:1e40:2"],
         ["opt-gamma", "--target", "f_lambda", "--zeta", "12", "--n-range", "1e30:1e40:3"],
         ["opt-gamma", "--target", "joint", "--zeta", "12", "--n-range", "1e15:1e16:2"],
         ["opt-gamma", "--target", "joint", "--zeta", "12", "--n-range", "1e28:1e29:2"],
         ["threshold", "--target", "f_lambda", "--zeta", "12", "--n-hi", "1e40"],
         ["threshold", "--target", "joint", "--zeta", "12", "--lambda", "1", "--n-hi", "1e40"],
         ["qfi", "--n", "1e100", "--gamma", "0.5", "--zeta", "2", "--lambda", "1", "--time", "1e150"]],
        ids=["qfi", "scan-gamma", "scan-phase", "opt-gamma", "opt-gamma-wide", "opt-gamma-joint-power",
             "opt-gamma-joint-entry", "threshold", "threshold-joint", "qfi-time"],
    )
    def test_power_beyond_the_range_is_an_entry_overflow(self, capsys, argv):
        # one error for every command: u ** (zeta - 2) overflows in the first three, which printed
        # "(34, 'Numerical result out of range')"; opt-gamma and threshold printed a NumericalRangeError
        # of their own; qfi --time overflows the physical reparametrisation
        err = '{"error": "OverflowError", "message": "QFI entries exceed the double-precision range"}\n'
        assert run_cli(capsys, *argv) == (3, "", err)

    @pytest.mark.parametrize(
        "n, grid, rel",
        # at N = 1e30 the 40-digit moment sums printed 9.1e141 for 2.56e122 at
        # gamma = 0.5, and 6.399999999967508e31 for 6.4e31 at gamma = 0
        [("1", "5", 1e-12), ("1e30", "3", 1e-15)],
    )
    def test_scan_matches_40_digits(self, capsys, n, grid, rel):
        _, out, _ = run_cli(capsys, "scan-gamma", "--n", n, "--zeta", "2", "--target", "f_lambda", "--grid", grid)
        rows = [l.split(",") for l in out.splitlines() if not l.startswith("#")][1:]
        assert len(rows) == int(grid)
        t = OptTarget(TargetKind.F_LAMBDA, ModelSpec(1.0, 2))
        for gamma, value in rows:
            assert mp_reference.objective(float(gamma), float(n), t) == pytest.approx(float(value), rel=rel)


class TestRegressionSet:
    """stdout of the optimizer and scan commands on a fixed set of inputs, all
    three targets and zeta 2, 7 and 12, pinned by the sha256 of its bytes as
    the commands printed them when the optimizer evaluated every QFI entry;
    the scan-phase and JSON cases as they were printed from per-row scans.
    The opt-gamma cases were pinned again when Brent's method replaced the
    golden section, the joint cases with (lambda zeta)^2 > 1 when the
    joint bound came to divide u V by it, and the f_lambda and f_zeta
    threshold cases when their bisection gave way to the closed-form root of
    the end slope, and again when the analytic reference they print lost the
    cancellation of (3 sqrt 2 - 4)/8. opt-gamma-joint-json was pinned again
    when the joint bound's last grid cell came to be refined in log y: its
    zeta 3, lambda 10, N 100 row moved to within 4.2e-16 of the 40-digit
    maximum (it was 5.7e-13 below)."""

    CASES = {
        "opt-gamma-f_lambda": (
            ["opt-gamma", "--target", "f_lambda", "--zeta", "2", "7", "12", "--n-range", "1e-3:1e3:9"],
            "664376342e7f295a7bad7488031c7cac776ca623ccba06488a6aa9026c66071b",
        ),
        "opt-gamma-f_zeta": (
            ["opt-gamma", "--target", "f_zeta", "--zeta", "2", "7", "12", "--n-range", "1e-3:1e3:9"],
            "d793affb8d3d1706cb4b8e1b2f18e1fccdbf3022e19ce4652e284be6323ca762",
        ),
        "opt-gamma-joint": (
            ["opt-gamma", "--target", "joint", "--zeta", "2", "7", "12", "--lambda", "0.1", "10",
             "--n-range", "1e-2:1e2:5"],
            "03fb9448215bb540e44c878be5c1285090cfbdf56655216667fc4f6c14b9c063",
        ),
        "threshold-f_lambda-2": (
            ["threshold", "--target", "f_lambda", "--zeta", "2"],
            "9d48df24421e5e33147778ff10170919d897aadc1511e9e0f840b91d9708b9f9",
        ),
        "threshold-f_zeta-7": (
            ["threshold", "--target", "f_zeta", "--zeta", "7"],
            "8f6d0ee1df1a8a594ea9c161f8d274cf5ab929b2f197be201cb5fad9cff89157",
        ),
        "threshold-f_lambda-12": (
            ["threshold", "--target", "f_lambda", "--zeta", "12"],
            "084aa99bf0321533a4d87120a05ba3b4bd670e271b3108e0cca41e9e4e6e4a50",
        ),
        "threshold-joint-7": (
            ["threshold", "--target", "joint", "--zeta", "7", "--lambda", "1", "--n-hi", "1e6"],
            "2d322db614cf26e166e139272e657fab39728b5a8498ad8b98fd23811c3c9f78",
        ),
        "scan-gamma-f_zeta-2": (
            ["scan-gamma", "--n", "3", "--zeta", "2", "--target", "f_zeta", "--grid", "41"],
            "c7ab9671fc7d001039b57402355708fc02c454d33966c9a56507748907bc5a56",
        ),
        "scan-gamma-joint-7": (
            ["scan-gamma", "--n", "30", "--zeta", "7", "--target", "joint", "--lambda", "2", "--grid", "41"],
            "0d6420ce309877bd91ca06559262e8d2d91151a719a8450a9f125b81aa09fb29",
        ),
        "scan-gamma-f_lambda-12": (
            ["scan-gamma", "--n", "0.3", "--zeta", "12", "--target", "f_lambda", "--grid", "41"],
            "e3134d54eddb53f160ab1b3615ff915b8ca6fe068b4d869ec842ac1d95e0ffd4",
        ),
        # pinned when scans were still built row by row; the 30 x 30 grid holds theta = phi = pi
        "scan-phase-f_lambda-30": (
            ["scan-phase", "--n", "10", "--gamma", "0.5", "--zeta", "6", "--target", "f_lambda", "--grid", "30"],
            "26ec96bf45819e975667c9debe394be8721631bab9b558be8e48a876480b5a96",
        ),
        # pinned when every value cell was formatted on its own; at gamma = 0 and 1 a value column repeats
        "scan-phase-f_lambda-gamma-0": (
            ["scan-phase", "--n", "2.5", "--gamma", "0", "--zeta", "3", "--target", "f_lambda", "--grid", "32"],
            "e97e3a97d468b8c7b17648714057ce50283d65a454b71029b4cf24ba142b0321",
        ),
        "scan-phase-f_zeta-gamma-1": (
            ["scan-phase", "--n", "1.5", "--gamma", "1", "--zeta", "4", "--target", "f_zeta", "--grid", "32"],
            "436079832afe11caa1aa9c882e1a7a239db47670537d060f81ecadb46e487e4f",
        ),
        "scan-phase-f_zeta-json": (
            ["scan-phase", "--n", "1.7", "--gamma", "0.4", "--zeta", "4", "--target", "f_zeta", "--grid", "6",
             "--json"],
            "0e801a9b2b44f0fbcfd37ceb87d029063b91e8e9221c602a4d8357de58f97484",
        ),
        "scan-gamma-joint-json": (
            ["scan-gamma", "--n", "30", "--zeta", "7", "--target", "joint", "--lambda", "2", "--grid", "21", "--json"],
            "15634509fdebb1fb6748a83a098c4a77574bf0c08aa0a9e4e699513b7f0103d1",
        ),
        "opt-gamma-joint-json": (
            ["opt-gamma", "--target", "joint", "--zeta", "2", "3", "5", "--lambda", "0.1", "1", "10",
             "--n-range", "1e-2:1e2:5", "--json"],
            "e265e26ef3c3cb1777b4ac1a3a23828e100648f9db095d62a43477bddf0e616f",
        ),
        "opt-gamma-f_zeta-nan-json": (
            ["opt-gamma", "--target", "f_zeta", "--zeta", "1", "3", "--n-range", "0.01:100:4", "--json"],
            "3dcf8ff2f151dc010e9075e6416601b5308a7ba5e8b73924e2b54605ca473fab",
        ),
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_stdout_keeps_its_bytes(self, capsys, name):
        argv, digest = self.CASES[name]
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest


EMPTY = hashlib.sha256(b"").hexdigest()


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="the pinned bytes are CPython 3.11's argparse output")
class TestFrontEndBytes:
    """Exit code, stdout and stderr of the paths that argparse writes: help,
    version, usage errors. Pinned by the sha256 of the bytes that the parser
    printed at 80 columns, under CPython 3.11; threshold-help and bad-choice
    were pinned again when --rel-tol was retired, and again when threshold's
    --lambda came to need a value, and bad-checked-type moved to --grid, the
    one option that argparse still checks. The cases run in
    one process, so all but the first print with the parser that
    build_parser cached, whatever width it was built at. argparse's wording
    and layout change between Python versions, so other interpreters skip
    these."""

    CASES = {
        "help": (["--help"], 0, "c9a81d80cbd6016512a837be423ee78e254979c8c644ffdd25455ed11735d99a", EMPTY),
        "version": (["--version"], 0, "d52241dfb3ae3c3c95f215e298717f58110db9b5418eaed5796e9597da12943a", EMPTY),
        "no-arguments": ([], 2, EMPTY, "418b428070413058a75ebb506bf10ab4c488bb2ce72b04861e66a649b939d438"),
        "unknown-subcommand": (
            ["frobnicate"], 2, EMPTY, "dbcae8878a132211cfc83ddc6998e9c736ad62c45ad7d564b21b8536c0bcaf57",
        ),
        "qfi-help": (["qfi", "--help"], 0, "479d45bde2e7acc884259ffe217ebe87ac7225c0fb2f821e5c70b0c7c46bfea2", EMPTY),
        "scan-phase-help": (
            ["scan-phase", "--help"], 0, "ba81867dde74e375ed08b00931e84278234a434c4039e64ce003908a79ca6680", EMPTY,
        ),
        "scan-gamma-help": (
            ["scan-gamma", "--help"], 0, "82c4c55c100a9947ac02a26d620d8cd7e648f1adf45393d70948d7406f9600d9", EMPTY,
        ),
        "opt-gamma-help": (
            ["opt-gamma", "--help"], 0, "711d1c0753cf901d04f353b52afa6442000c7ed7497c4459060b763a75a990b6", EMPTY,
        ),
        "threshold-help": (
            ["threshold", "--help"], 0, "cf7d1bfb80df0385defb3d7a0ecd1c8343d09e34594476be0f3ae19112c2dd05", EMPTY,
        ),
        "selftest-help": (
            ["selftest", "--help"], 0, "499be9ce1657f9852b791a2d852efce58bb99ca0e3dba5b7b53f775ec8b13e93", EMPTY,
        ),
        "missing-required": (
            ["qfi", "--n", "1"], 2, EMPTY, "aaeddd78fc913b173d0136e0f32351fdcd8e8a1121b4c74061ce204582a49330",
        ),
        "bad-choice": (
            ["threshold", "--target", "x", "--zeta", "2"], 2, EMPTY,
            "f4b61236a40c3e2f84693826dc60d4c3bca89b9661fc37c453be4f22603f6ef1",
        ),
        "bad-checked-type": (
            ["scan-phase", "--n", "1", "--gamma", "0.5", "--zeta", "2", "--target", "f_lambda", "--grid", "0"],
            2, EMPTY,
            "f0cce463b881b7902a9e5b277d68e6f94704055b1100d1196801e050ec5cbda7",
        ),
        # the same bytes as opt-gamma-help
        "abbreviated-option": (
            ["opt-gamma", "--hel"], 0, "711d1c0753cf901d04f353b52afa6442000c7ed7497c4459060b763a75a990b6", EMPTY,
        ),
        "unrecognized-argument": (
            ["selftest", "--frob"], 2, EMPTY, "2a1def7810086cff4f75cea3dfaec6049d0c3f5f8d79b4a2452ea4f9db009a70",
        ),
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_keeps_its_bytes(self, capsys, monkeypatch, name):
        argv, code, out_digest, err_digest = self.CASES[name]
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        got = (exc.value.code, hashlib.sha256(out.encode()).hexdigest(), hashlib.sha256(err.encode()).hexdigest())
        assert got == (code, out_digest, err_digest), out + err


class TestSubcommandParsers:
    QFI = ["qfi", "--n", "1", "--gamma", "0.5", "--zeta", "2", "--lambda", "1"]
    PROGS = ["nlprobe", *(f"nlprobe {name}" for name in
                          ("qfi", "scan-phase", "scan-gamma", "opt-gamma", "threshold", "selftest"))]

    @staticmethod
    def subcommands(parser):
        (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        return action.choices

    @staticmethod
    def count_constructions(monkeypatch):
        """The prog of every ArgumentParser constructed from now on."""
        constructed = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            constructed.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        return constructed

    def test_every_subcommand_has_its_options(self):
        subcommands = self.subcommands(cli.build_parser())
        assert [a.option_strings for a in subcommands["qfi"]._actions] == [
            ["-h", "--help"], ["--n"], ["--gamma"], ["--theta"], ["--phi"], ["--zeta"], ["--lambda"], ["--time"],
            ["--oracle"], ["--jobs"], ["--json"], ["--out"],
        ]
        assert [a.option_strings for a in subcommands["selftest"]._actions] == [
            ["-h", "--help"], ["--jobs"], ["--json"], ["--out"],
        ]
        assert {name: sub.get_default("func") for name, sub in subcommands.items()} == {
            "qfi": cli.cmd_qfi, "scan-phase": cli.cmd_scan_phase, "scan-gamma": cli.cmd_scan_gamma,
            "opt-gamma": cli.cmd_opt_gamma, "threshold": cli.cmd_threshold, "selftest": cli.cmd_selftest,
        }

    def test_a_subcommand_adds_its_options_once(self):
        selftest = self.subcommands(cli.build_parser())["selftest"]
        assert selftest.parse_args([]) == selftest.parse_args([])  # a second add_argument would conflict

    def test_the_first_call_builds_the_parser_and_the_next_only_parses(self, capsys, monkeypatch, fresh_parser):
        constructed = self.count_constructions(monkeypatch)
        assert run_cli(capsys, *self.QFI)[0] == 0
        assert constructed == self.PROGS
        del constructed[:]
        sizes = []
        size = shutil.get_terminal_size
        monkeypatch.setattr(shutil, "get_terminal_size", lambda *a: sizes.append(a) or size(*a))
        assert run_cli(capsys, *self.QFI)[0] == 0
        assert (constructed, sizes) == ([], [])  # nor does it look up the terminal width

    def test_cache_clear_makes_the_next_call_build_again(self, capsys, monkeypatch, fresh_parser):
        first = cli.build_parser()
        constructed = self.count_constructions(monkeypatch)
        cli.build_parser.cache_clear()
        assert run_cli(capsys, *self.QFI)[0] == 0
        assert constructed == self.PROGS
        assert cli.build_parser() is not first

    def test_two_calls_in_one_process_print_the_same_bytes(self, capsys, fresh_parser):
        calls = [
            self.QFI,
            ["qfi", "--help"],
            ["threshold", "--target", "f_lambda", "--zeta", "2", "--samples", "1"],  # DomainError: exit 2
            ["--version"],
            ["qfi", "--n", "1"],  # argparse usage error: exit 2
            ["scan-phase", "--n", "3", "--gamma", "0.5", "--zeta", "3", "--target", "f_lambda", "--grid", "4"],
        ]
        results = [_exit_and_output(capsys, argv) for argv in calls * 2]
        assert [r[0] for r in results] == [0, 0, 2, 0, 2, 0] * 2
        assert "the following arguments are required" in results[4][2]
        assert results[:6] == results[6:]

    @pytest.mark.parametrize("columns", ["60", "133", None])
    @pytest.mark.parametrize("argv", [["--help"], ["qfi", "--help"], ["threshold", "--zeta", "2"]])
    def test_help_width_is_the_formatters_own(self, capsys, monkeypatch, fresh_parser, columns, argv):
        # the parser is built and first prints at another width; argparse's formatter looks the
        # width up when it prints, so the cached parser then prints what a fresh build prints
        other = "133" if columns == "60" else "60"
        monkeypatch.setenv("COLUMNS", other)
        at_other = _exit_and_output(capsys, argv)
        if columns is None:
            monkeypatch.delenv("COLUMNS")
        else:
            monkeypatch.setenv("COLUMNS", columns)
        cached = _exit_and_output(capsys, argv)
        cli.build_parser.cache_clear()
        assert _exit_and_output(capsys, argv) == cached
        assert cached[0] == at_other[0]
        assert any(len(line) > 40 for line in (cached[1] + cached[2]).splitlines())
        if columns is not None:
            assert cached != at_other  # the width matters


class TestScanOutput:
    @pytest.mark.filterwarnings("error")  # a RuntimeWarning from the grid pass fails the test
    @pytest.mark.parametrize(
        "argv",
        [
            ["scan-phase", "--n", "0", "--gamma", "1", "--zeta", "3", "--target", "f_lambda", "--grid", "4"],
            ["scan-phase", "--n", "0", "--gamma", "0", "--zeta", "1", "--target", "f_zeta", "--grid", "4"],
            ["scan-gamma", "--n", "0", "--zeta", "4", "--target", "joint", "--grid", "5"],
            ["scan-gamma", "--n", "2", "--zeta", "3", "--target", "f_lambda", "--grid", "5"],
        ],
        ids=["phase-f_lambda", "phase-f_zeta", "gamma-joint", "gamma-f_lambda"],
    )
    def test_values_are_plain_floats_and_stderr_stays_empty(self, capsys, argv):
        # at N = 0 the mean vanishes, so x = 0 and the unused Horner branch divides by zero
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert "float64" not in out
        rows = [line.split(",") for line in out.splitlines() if not line.startswith("#")][1:]
        assert rows and all(math.isfinite(float(v)) for row in rows for v in row)
        code, out, err = run_cli(capsys, *argv, "--json")
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert all(type(v) is float for v in doc["values"])
        assert all(type(v) is float for row in doc["rows"] for v in row)


def test_cli_import_loads_no_scipy():
    # only the oracle needs scipy, and of it only scipy.linalg; no module or
    # command of the program needs mpmath, which only the tests' 40-digit
    # reference uses; perfbench's tracer still finds the oracle module loaded
    calls = [
        ["qfi", "--n", "2", "--gamma", "0.3", "--theta", "0.4", "--phi", "1.8", "--zeta", "3", "--lambda", "1"],
        ["qfi", "--n", "1", "--gamma", "0.5", "--zeta", "2", "--lambda", "0.1", "--oracle"],
        ["scan-phase", "--n", "2", "--gamma", "0.5", "--zeta", "3", "--target", "f_lambda", "--grid", "4"],
        ["scan-gamma", "--n", "2", "--zeta", "3", "--target", "joint", "--grid", "5"],
        ["opt-gamma", "--target", "f_zeta", "--zeta", "3", "--n-range", "0.1:10:3"],
        ["threshold", "--target", "f_lambda", "--zeta", "2"],
        ["selftest"],
    ]
    # each subcommand's options are added when it parses: its help shows them all
    calls += [[argv[0], "--help"] for argv in calls]
    code = (
        "import contextlib, importlib, io, pkgutil, sys, nlprobe.cli\n"
        "def loaded(name): return sorted(m for m in sys.modules if (m + '.').startswith(name + '.'))\n"
        "def run(argv):\n"
        "    try: return nlprobe.cli.main(argv)\n"
        "    except SystemExit as exc: return exc.code\n"
        "print(loaded('scipy'), loaded('mpmath'), 'nlprobe.fock_oracle' in sys.modules)\n"
        "for info in pkgutil.iter_modules(nlprobe.__path__): importlib.import_module('nlprobe.' + info.name)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [run(argv) for argv in {calls!r}]\n"
        "print(codes, loaded('mpmath'), loaded('scipy.sparse'))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(nlprobe.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[] [] True", f"{[0] * len(calls)} [] []"]


def test_cli_import_loads_no_numpy():
    # numpy is imported by the functions that build arrays: a one-shot command that builds none does
    # not pay for it
    commands = ["qfi", "scan-phase", "scan-gamma", "opt-gamma", "threshold", "selftest"]
    usage_errors = [
        ["qfi", "--n", "1"],
        ["scan-phase", "--n", "1", "--gamma", "0.5", "--zeta", "3", "--target", "f_lambda", "--grid", "0"],
        ["scan-gamma", "--n", "1", "--zeta", "3", "--target", "joint", "--grid", "1"],
        ["opt-gamma", "--target", "f_lambda", "--zeta", "2", "--n-range", "1:0.1:3"],
        ["threshold", "--target", "joint", "--zeta", "3", "--lambda"],
        ["selftest", "--bogus"],
    ]
    model_errors = [  # the model rejects zeta = 0 before any array is built
        ["scan-phase", "--n", "1", "--gamma", "0.5", "--zeta", "0", "--target", "f_lambda", "--grid", "4"],
        ["scan-gamma", "--n", "1", "--zeta", "0", "--target", "f_lambda"],
        ["opt-gamma", "--target", "f_lambda", "--zeta", "0", "--n-range", "0.1:10:3"],
        ["threshold", "--target", "f_lambda", "--zeta", "0"],
    ]
    calls = [
        ["qfi", "--n", "2", "--gamma", "0.3", "--theta", "0.4", "--phi", "1.8", "--zeta", "3", "--lambda", "1"],
        ["qfi", "--n", "1", "--gamma", "0.5", "--zeta", "2", "--lambda", "1", "--time", "2", "--json"],
        ["--help"], *[[cmd, "--help"] for cmd in commands], ["--version"], ["bogus"], *usage_errors, *model_errors,
    ]
    expected = [0, 0, 0, *[0] * len(commands), 0, 2, *[2] * len(usage_errors), *[2] * len(model_errors)]
    code = (
        "import contextlib, io, sys, nlprobe, nlprobe.cli\n"
        "def run(argv):\n"
        "    try: return nlprobe.cli.main(argv)\n"
        "    except SystemExit as exc: return exc.code\n"
        "imported = 'numpy' in sys.modules\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        f"    codes = [run(argv) for argv in {calls!r}]\n"
        "print(imported, codes, 'numpy' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(nlprobe.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [f"False {expected} False"]


def test_front_end_paths_on_this_interpreter():
    # TestFrontEndBytes pins argparse's bytes on CPython 3.11 only. A subcommand's
    # parser is constructed when argparse first calls its parse_known_args, so
    # check on whichever Python runs the tests that help, usage errors and an
    # unknown subcommand still reach the chosen subcommand's own parser.
    commands = ["qfi", "scan-phase", "scan-gamma", "opt-gamma", "threshold", "selftest"]
    calls = [[cmd, "--help"] for cmd in commands] + [[cmd] for cmd in commands[:-1]] + [["bogus"]]
    code = (
        "import contextlib, io, json, nlprobe.cli\n"
        "def run(argv):\n"
        "    out, err = io.StringIO(), io.StringIO()\n"
        "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
        "        try: code = nlprobe.cli.main(argv)\n"
        "        except SystemExit as exc: code = exc.code\n"
        "    return code, out.getvalue(), err.getvalue()\n"
        f"print(json.dumps([run(argv) for argv in {calls!r}]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(nlprobe.__file__).resolve().parents[1]), COLUMNS="80")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    results = dict(zip(map(" ".join, calls), json.loads(proc.stdout)))
    for cmd in commands:
        code, out, err = results[f"{cmd} --help"]
        assert (code, err) == (0, "")
        assert re.match(rf"usage: nlprobe {cmd}( |\n|$)", out), out
        assert "--json" in out and "--out" in out
    for cmd in commands[:-1]:
        code, out, err = results[cmd]
        assert (code, out) == (2, "")
        assert f"nlprobe {cmd}: error: the following arguments are required" in err, err
    code, out, err = results["bogus"]
    assert (code, out) == (2, "")
    assert err.startswith("usage: nlprobe ") and "nlprobe: error: " in err and "'bogus'" in err, err


class TestNonFinitePhases:
    @pytest.mark.parametrize(
        "phase, shown",
        [(["--theta", "inf"], "theta=inf, phi=0.0"), (["--theta", "nan"], "theta=nan, phi=0.0"),
         (["--phi=-inf"], "theta=0.0, phi=-inf"), (["--theta", "1", "--phi", "nan"], "theta=1.0, phi=nan")],
        ids=["theta-inf", "theta-nan", "phi-minus-inf", "phi-nan"],
    )
    @pytest.mark.parametrize("mode", [[], ["--oracle"]], ids=["double", "oracle"])
    def test_qfi_exits_two(self, capsys, phase, shown, mode):
        argv = ["qfi", "--n", "1", "--gamma", "0.5", *phase, "--zeta", "2", "--lambda", "1", *mode]
        err = f'{{"error": "DomainError", "message": "phases must be finite, got {shown}"}}\n'
        assert run_cli(capsys, *argv) == (2, "", err)


def _fmt_frozen(x):
    return repr(x) if isinstance(x, float) else str(x)


def per_row_csv(scan):
    """The CSV that _emit wrote before it formatted axis coordinates once: every cell through the
    formatter of that time, repr for a float and str for anything else."""
    lines = [f"# {key}={_fmt_frozen(scan.metadata[key])}" for key in sorted(scan.metadata)]
    lines.append(",".join(scan.header))
    lines.extend(",".join(_fmt_frozen(v) for v in row) for row in scan.rows)
    return "\n".join(lines) + "\n"


class TestEmission:
    @pytest.fixture
    def scans(self, monkeypatch):
        """The ScanResults the commands hand to _emit."""
        seen = []
        emit = cli._emit

        def recording(args, scan):
            seen.append(scan)
            emit(args, scan)

        monkeypatch.setattr(cli, "_emit", recording)
        return seen

    @pytest.mark.parametrize(
        "argv",
        [
            ["scan-phase", "--n", "2", "--gamma", "0.5", "--zeta", "3", "--target", "f_lambda", "--grid", "1"],
            ["scan-phase", "--n", "10", "--gamma", "0.5", "--zeta", "6", "--target", "f_lambda", "--grid", "30"],
            ["scan-phase", "--n", "1.7", "--gamma", "0.4", "--zeta", "4", "--target", "f_zeta", "--grid", "32"],
            ["scan-phase", "--n", "1.3", "--gamma", "0.6", "--zeta", "3", "--target", "f_zeta", "--grid", "5"],
            ["scan-phase", "--n", "2.5", "--gamma", "0", "--zeta", "3", "--target", "f_lambda", "--grid", "32"],
            ["scan-phase", "--n", "1.5", "--gamma", "1", "--zeta", "4", "--target", "f_zeta", "--grid", "32"],
            ["scan-gamma", "--n", "3", "--zeta", "2", "--target", "joint", "--grid", "2"],
            ["scan-gamma", "--n", "0.37", "--zeta", "7", "--target", "f_lambda", "--grid", "1601"],
            ["scan-gamma", "--n", "2", "--zeta", "3", "--target", "f_zeta", "--grid", "6"],
            ["opt-gamma", "--target", "joint", "--zeta", "2", "3", "--lambda", "0.5", "1", "7", "--n-range", "0.1:10:4"],
            ["opt-gamma", "--target", "joint", "--zeta", "3", "--n-range", "1:100:3"],
            ["opt-gamma", "--target", "f_zeta", "--zeta", "1", "3", "5", "--n-range", "0.01:100:5"],
            ["opt-gamma", "--target", "f_lambda", "--zeta", "2", "4", "--n-range", "1e-3:1e3:7"],
        ],
        ids=["phase-1", "phase-30", "phase-32", "phase-5", "phase-gamma-0", "phase-gamma-1", "gamma-2", "gamma-1601",
             "gamma-6", "opt-zetas-lambdas", "opt-default-lambdas", "opt-f_zeta-nan-asymptote", "opt-f_lambda-7"],
    )
    def test_csv_bytes_are_the_per_row_format(self, capsys, scans, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        (scan,) = scans
        assert out == per_row_csv(scan)
        assert len(out.splitlines()) == len(scan.metadata) + 1 + len(scan.rows)

    def test_scan_phase_grid_30_holds_pi(self, capsys, scans):
        argv = ["scan-phase", "--n", "10", "--gamma", "0.5", "--zeta", "6", "--target", "f_lambda", "--grid", "30"]
        assert run_cli(capsys, *argv)[0] == 0
        assert math.pi in scans[0].axes["theta"] and math.pi in scans[0].axes["phi"]

    def test_f_zeta_order_one_asymptote_is_nan(self, capsys):
        code, out, _ = run_cli(capsys, "opt-gamma", "--target", "f_zeta", "--zeta", "1", "--n-range", "1:2:2")
        assert code == 0
        rows = [line.split(",") for line in out.splitlines() if not line.startswith("#")][1:]
        assert [row[-1] for row in rows] == ["nan", "nan"]

    @staticmethod
    def emit(capsys, scan):
        cli._emit(argparse.Namespace(json=False, out=None), scan)
        return capsys.readouterr().out

    def test_axis_coordinates_print_as_themselves(self, capsys):
        # 0.0 == -0.0 and 1 == 1.0, yet each coordinate keeps its own form
        xs = [0.0, -0.0, 1, 1.0, float("nan")]
        ys = [-0.0, 0.0]
        scan = cli.ScanResult({"x": xs, "y": ys}, {"value": [0.5] * 10}, ("x", "y", "value"), "value", {"k": -0.0})
        out = self.emit(capsys, scan)
        assert out == per_row_csv(scan)
        cells = [f"{x},{y},0.5" for x in ("0.0", "-0.0", "1", "1.0", "nan") for y in ("-0.0", "0.0")]
        assert out.splitlines()[2:] == cells
        with pytest.raises(InternalConsistencyError, match="column value has 9 values for 10 points"):
            cli.ScanResult({"x": xs, "y": ys}, {"value": [0.5] * 9}, ("x", "y", "value"), "value")

    def test_value_cells_print_as_themselves(self, capsys):
        # equal values that print differently keep their own form; only the column of floats alone and no
        # zero formats each distinct value once. Every float is an object of its own, NaNs included
        shown = {
            "mixed": ["0.0", "-0.0", "1", "1.0", "True", "nan", "nan", "inf", "-inf", "0.25", "0.25",
                      "0.30000000000000004"],
            "ones": ["1", "1.0", "True", "1.0", "1", "True", "2", "2.0", "nan", "nan", "0.25", "0.25"],
            "zeros": ["0.0", "-0.0", "-0.0", "0.0", "nan", "nan", "inf", "-inf", "0.25", "0.25", "0.5", "0.25"],
            "floats": ["nan", "nan", "nan", "inf", "-inf", "inf", "0.25", "0.25", "0.30000000000000004", "0.3",
                       "1e-300", "0.25"],
        }

        def value(text):
            return True if text == "True" else int(text) if text.isdigit() else float(text)

        columns = {name: [value(text) for text in texts] for name, texts in shown.items()}
        scan = cli.ScanResult({"x": list(range(12))}, columns, ("x", *columns), "mixed")
        out = self.emit(capsys, scan)
        assert out == per_row_csv(scan)
        assert [line.split(",") for line in out.splitlines()[1:]] == [
            [str(x), *cells] for x, cells in zip(range(12), zip(*shown.values()))]
        for i, values in enumerate(columns.values(), start=1):
            assert all(row[i] is v for row, v in zip(scan.rows, values, strict=True))
        counted = []
        scan.cells(lambda v: counted.append(v) or str(v))
        # 12 axis coordinates, the 3 x 12 cells of the columns that keep no memo and 9 distinct floats
        assert len(counted) == 12 + 3 * 12 + 9


def _capture(capsys, argv, out_path):
    """(exit code, stdout, stderr, bytes of the --out file) of one in-process call."""
    argv = [str(out_path) if a == "{out}" else a for a in argv]
    out_path.unlink(missing_ok=True)
    return (*_exit_and_output(capsys, argv), out_path.read_bytes() if out_path.exists() else None)


class TestInProcessCalls:
    CALLS = [
        ["qfi", "--n", "1", "--gamma", "0.3", "--theta", "0.4", "--zeta", "2", "--lambda", "1"],
        ["scan-phase", "--n", "2", "--gamma", "0.5", "--zeta", "3", "--target", "f_lambda", "--grid", "4", "--json"],
        ["scan-gamma", "--n", "1", "--zeta", "2", "--target", "f_lambda", "--grid", "1"],  # argparse: exit 2
        ["scan-gamma", "--n", "1", "--zeta", "2", "--target", "joint", "--grid", "5", "--out", "{out}"],
        ["opt-gamma", "--target", "joint", "--zeta", "2", "--lambda", "3", "--n-range", "0.5:5:3"],
        ["opt-gamma", "--target", "joint", "--zeta", "2", "--n-range", "0.5:5:3", "--json"],
        ["threshold", "--target", "f_lambda", "--zeta", "2", "--json", "--out", "{out}"],
        ["qfi", "--n", "1", "--gamma", "0.5", "--theta", "inf", "--zeta", "2", "--lambda", "1"],  # DomainError: exit 2
        ["selftest", "--jobs", "3"],
        ["qfi", "--n", "1", "--gamma", "0.3", "--zeta", "2", "--lambda", "1", "--jobs", "x"],  # argparse: exit 2
        ["threshold", "--target", "f_zeta", "--zeta", "3", "--lambda", "2", "--samples", "7"],
        ["scan-phase", "--n", "2", "--gamma", "0.5", "--zeta", "3", "--target", "f_zeta", "--grid", "3", "--extended"],  # exit 2
        ["opt-gamma", "--target", "f_lambda", "--zeta", "2", "3", "--n-range", "0.01:100:4", "--out", "{out}"],
    ]

    def test_a_call_does_not_depend_on_the_calls_before_it(self, capsys, tmp_path):
        out_path = tmp_path / "out.txt"
        forward = [_capture(capsys, argv, out_path) for argv in self.CALLS]
        assert forward[2][0] == forward[7][0] == forward[9][0] == forward[11][0] == 2
        assert "argument --jobs: invalid int value: 'x'" in forward[9][2]
        assert "unrecognized arguments: --extended" in forward[11][2]
        assert "# lambdas=3.0\n" in forward[4][1]
        assert all(result[0] == 0 for i, result in enumerate(forward) if i not in (2, 7, 9, 11))
        for i in reversed(range(len(self.CALLS))):
            assert _capture(capsys, self.CALLS[i], out_path) == forward[i], self.CALLS[i]
