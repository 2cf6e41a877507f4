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
            pytest.param(["threshold", "--target", "f_lambda", "--zeta", "2", "--rel-tol", "0"], id="rel-tol-0"),
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
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err

    def test_time_that_carries_an_entry_beyond_the_range_exits_three(self, capsys):
        # t^2 = 1e308 is a normal double, t^2 f_ll is not: this printed f_ll=inf
        argv = ["qfi", "--n", "1", "--gamma", "0.5", "--zeta", "2", "--lambda", "1", "--time", "1e154"]
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
        assert float(rec["n_th"]) == pytest.approx((3 * math.sqrt(2) - 4) / 8, abs=5e-4)
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


class TestSelftest:
    def test_passes(self, capsys):
        code, out, _ = run_cli(capsys, "selftest")
        assert code == 0
        assert "FAIL" not in out
        assert "INFO moments.default-family-vs-state-delta" in out


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

    def test_numerical_overflow_exits_three(self, capsys):
        code, out, err = run_cli(
            capsys,
            "opt-gamma", "--target", "f_lambda", "--zeta", "12", "--n-range", "1e39:1e40:2",
        )
        assert code == 3
        assert json.loads(err)["error"] == "NumericalRangeError"

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

    @pytest.mark.parametrize("n_range", ["1e15:1e16:2", "1e28:1e29:2"], ids=["power-overflows", "entry-overflows"])
    def test_opt_gamma_overflow_on_the_coarse_grid(self, capsys, n_range):
        code, out, err = run_cli(capsys, "opt-gamma", "--target", "joint", "--zeta", "12", "--n-range", n_range)
        assert (code, out) == (3, "")
        assert json.loads(err) == {
            "error": "NumericalRangeError",
            "message": "objective overflowed double precision; reduce the probe energy, the order or the coupling",
        }

    @pytest.mark.parametrize(
        "n_range, code, err",
        [
            ("1:inf:3", 2, '{"error": "DomainError", "message": "mean photon number must be finite and >= 0, got inf"}\n'),
            ("1e30:1e40:3", 3, '{"error": "NumericalRangeError", "message": "objective overflowed double precision; '
             'reduce the probe energy, the order or the coupling"}\n'),
        ],
        ids=["infinite-energy", "overflow"],
    )
    def test_opt_gamma_errors_keep_their_bytes(self, capsys, n_range, code, err):
        # the stderr of the row-by-row optimizer that the batched pass replaced
        assert run_cli(capsys, "opt-gamma", "--target", "f_lambda", "--zeta", "12", "--n-range", n_range) == (code, "", err)

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
         ["scan-phase", "--n", "1e300", "--gamma", "0", "--zeta", "12", "--target", "f_zeta", "--grid", "2"]],
        ids=["qfi", "scan-gamma", "scan-phase"],
    )
    def test_power_beyond_the_range_is_an_entry_overflow(self, capsys, argv):
        # u ** (zeta - 2) overflows here: these printed "(34, 'Numerical result out of range')"
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
    golden section, and the joint cases with (lambda zeta)^2 > 1 when the
    joint bound came to divide u V by it."""

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
            "2cc8442c05d982c84aeabf4259f516195fbbe939536428f7d3ad1822db406676",
        ),
        "threshold-f_zeta-7": (
            ["threshold", "--target", "f_zeta", "--zeta", "7"],
            "89567e40fc7e8bb7d770aba2638beebfe676361ce78136832563b99afc526a7e",
        ),
        "threshold-f_lambda-12": (
            ["threshold", "--target", "f_lambda", "--zeta", "12"],
            "3dcb49596375bcb178a52bb3f329b32ed87170bfc0847fc4433be3b578f1d325",
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
            "c666390b929094b8232e87a89a1bce05ff18d4e9837ad5cb67dc9b4e8c44352b",
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
    printed at 80 columns, under CPython 3.11, when build_parser still added
    every subcommand's options up front. argparse's wording and layout
    change between Python versions, so other interpreters skip these."""

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
            ["threshold", "--help"], 0, "c72b1cab07e2532e6ab16f76cc83642a83cd25eb6fa98083d451f58bd596d451", EMPTY,
        ),
        "selftest-help": (
            ["selftest", "--help"], 0, "499be9ce1657f9852b791a2d852efce58bb99ca0e3dba5b7b53f775ec8b13e93", EMPTY,
        ),
        "missing-required": (
            ["qfi", "--n", "1"], 2, EMPTY, "aaeddd78fc913b173d0136e0f32351fdcd8e8a1121b4c74061ce204582a49330",
        ),
        "bad-choice": (
            ["threshold", "--target", "x", "--zeta", "2"], 2, EMPTY,
            "ad203d695adcbbc79663198f81fdaa3e3d1a6460582068d07c11c272ad7ffce7",
        ),
        "bad-checked-type": (
            ["threshold", "--target", "joint", "--zeta", "3", "--samples", "1"], 2, EMPTY,
            "0f25b356b96229ff16847b27f9e44359a6d7053749234534a2f072dad8416481",
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

    @staticmethod
    def subcommands(parser):
        (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        return action.choices

    def test_only_the_chosen_subcommand_gets_its_options(self, capsys, monkeypatch):
        parser = cli.build_parser()
        assert parser.parse_args(self.QFI).func is cli.cmd_qfi
        subcommands = dict(self.subcommands(parser))
        assert [a.option_strings for a in subcommands.pop("qfi")._actions] == [
            ["-h", "--help"], ["--n"], ["--gamma"], ["--theta"], ["--phi"], ["--zeta"], ["--lambda"], ["--time"],
            ["--oracle"], ["--jobs"], ["--json"], ["--out"],
        ]
        # the other five were never constructed: they hold no actions, not even -h
        assert sorted(subcommands) == ["opt-gamma", "scan-gamma", "scan-phase", "selftest", "threshold"]
        assert not any("_actions" in vars(p) for p in subcommands.values())
        # one call constructs the top-level parser and the chosen subcommand's
        constructed = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            constructed.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        assert run_cli(capsys, *self.QFI)[0] == 0
        assert constructed == ["nlprobe", "nlprobe qfi"]

    def test_a_subcommand_adds_its_options_once(self):
        selftest = self.subcommands(cli.build_parser())["selftest"]
        assert selftest.parse_args([]) == selftest.parse_args([])  # a second add_argument would conflict

    def test_two_calls_in_one_process_print_the_same_bytes(self, capsys):
        calls = [self.QFI, ["qfi", "--help"], ["threshold", "--target", "f_lambda", "--zeta", "2", "--samples", "1"]]
        results = []
        for argv in calls * 2:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            results.append((code, *capsys.readouterr()))
        assert [r[0] for r in results] == [0, 0, 2] * 2
        assert results[:3] == results[3:]

    def test_the_terminal_size_is_looked_up_once_per_call(self, capsys, monkeypatch):
        calls = []
        size = shutil.get_terminal_size
        monkeypatch.setattr(shutil, "get_terminal_size", lambda *a: calls.append(a) or size(*a))
        argv = ["scan-phase", "--n", "3", "--gamma", "0.5", "--zeta", "3", "--target", "f_lambda", "--grid", "4"]
        assert run_cli(capsys, *argv)[0] == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("columns", ["60", "133", None])
    @pytest.mark.parametrize("argv", [["--help"], ["qfi", "--help"], ["threshold", "--zeta", "2"]])
    def test_help_width_is_the_formatters_own(self, capsys, monkeypatch, columns, argv):
        # build_parser hands the width to HelpFormatter; left to itself, each
        # formatter looks up the same width
        if columns is None:
            monkeypatch.delenv("COLUMNS", raising=False)
        else:
            monkeypatch.setenv("COLUMNS", columns)
        results = []
        for formatter in (cli.partial, lambda cls, width: cls):
            monkeypatch.setattr(cli, "partial", formatter)
            with pytest.raises(SystemExit) as exc:
                main(argv)
            results.append((exc.value.code, *capsys.readouterr()))
        assert results[0] == results[1]
        assert any(len(line) > 40 for line in (results[0][1] + results[0][2]).splitlines())  # the width matters


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
            ["scan-gamma", "--n", "3", "--zeta", "2", "--target", "joint", "--grid", "2"],
            ["scan-gamma", "--n", "0.37", "--zeta", "7", "--target", "f_lambda", "--grid", "1601"],
            ["scan-gamma", "--n", "2", "--zeta", "3", "--target", "f_zeta", "--grid", "6"],
            ["opt-gamma", "--target", "joint", "--zeta", "2", "3", "--lambda", "0.5", "1", "7", "--n-range", "0.1:10:4"],
            ["opt-gamma", "--target", "joint", "--zeta", "3", "--n-range", "1:100:3"],
            ["opt-gamma", "--target", "f_zeta", "--zeta", "1", "3", "5", "--n-range", "0.01:100:5"],
            ["opt-gamma", "--target", "f_lambda", "--zeta", "2", "4", "--n-range", "1e-3:1e3:7"],
        ],
        ids=["phase-1", "phase-30", "phase-32", "phase-5", "gamma-2", "gamma-1601", "gamma-6",
             "opt-zetas-lambdas", "opt-default-lambdas", "opt-f_zeta-nan-asymptote", "opt-f_lambda-7"],
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


def _capture(capsys, argv, out_path):
    """(exit code, stdout, stderr, bytes of the --out file) of one in-process call."""
    argv = [str(out_path) if a == "{out}" else a for a in argv]
    out_path.unlink(missing_ok=True)
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejected the arguments
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err, out_path.read_bytes() if out_path.exists() else None


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
