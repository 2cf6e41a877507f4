import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import nlprobe
from nlprobe.cli import main
from nlprobe.moments import moment_real_axis
from nlprobe.optimizer import OptTarget, TargetKind, objective
from nlprobe.probe import bogoliubov_view, make_probe
from nlprobe.qfi_core import ModelSpec, qfi_lambda


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
    # the 80-digit normal law (tests/test_properties.py), with the determinant
    # of the time-reparametrized matrix formed before rounding
    WANT = {
        "found": {"f_ll": 5.3988768310296563e-30, "f_zz": 9.4744623333310874e-26, "f_lz": 1.078927583008031e-36,
                  "scalar_bound_inverse": 5.3985692018559978e-30},
        "high_n": {"f_ll": 7.7309652920295425e45, "f_zz": 3.7748806778920548e27, "f_lz": 5.4021728500975167e36,
                   "scalar_bound_inverse": 737280921598800.08},
        "timed": {"f_ll": 10322218.317007631, "f_zz": 59282.451628199217, "f_lz": 775409.75692172786,
                  "scalar_bound_inverse": 1027.4157062654912},
    }

    @pytest.mark.parametrize(
        "argv, want",
        [
            # entries 1e-30 where the moments summed are far larger: the
            # double moment sums printed an exit 2 "trace is zero" here
            pytest.param(FOUND_REPRO, "found", id="entries-far-below-the-terms"),
            # det F cancels 18 digits: subtracting rounded entries printed 1.19e24
            pytest.param(HIGH_N, "high_n", id="determinant-cancels"),
            pytest.param(HIGH_N + ["--extended"], "high_n", id="determinant-cancels-extended"),
            pytest.param(TIMED, "timed", id="time-reparametrized"),
            pytest.param(TIMED + ["--extended"], "timed", id="time-reparametrized-extended"),
        ],
    )
    def test_matches_the_80_digit_normal_law(self, capsys, argv, want):
        code, out, _ = run_cli(capsys, "qfi", *argv)
        assert code == 0
        rec = parse_record(out)
        for key, value in self.WANT[want].items():
            assert float(rec[key]) == pytest.approx(value, rel=1e-12), key

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["qfi", "--n", "1"], id="missing-flags"),
            pytest.param(["threshold", "--target", "f_lambda", "--zeta", "2", "--samples", "1"], id="samples-1"),
            pytest.param(["threshold", "--target", "f_lambda", "--zeta", "2", "--n-hi", "1e-5"], id="n-hi-below-n-lo"),
            pytest.param(["threshold", "--target", "f_lambda", "--zeta", "2", "--rel-tol", "0"], id="rel-tol-0"),
            pytest.param(["scan-gamma", "--n", "1", "--zeta", "2", "--target", "f_lambda", "--grid", "1"], id="gamma-grid-1"),
            pytest.param(
                ["scan-phase", "--n", "1", "--gamma", "0.5", "--zeta", "2", "--target", "f_lambda", "--grid", "0"],
                id="phase-grid-0",
            ),
        ],
    )
    def test_usage_error_exits_two(self, argv):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2


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

    def test_jobs_do_not_change_extended_bytes(self, tmp_path):
        # mpmath's working precision is process-wide: worker threads leaving
        # their 40-digit blocks used to cut the digits of the others
        args = ["scan-phase", "--n", "2", "--gamma", "0.3", "--zeta", "4", "--target", "f_zeta", "--grid", "12",
                "--extended"]
        outs = [tmp_path / f"{i}.csv" for i in range(3)]
        for out, jobs in zip(outs, ("1", "4", "4")):
            assert main(args + ["--jobs", jobs, "--out", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes() == outs[2].read_bytes()


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
            expected = qfi_lambda(probe, model, extended=True)
            # double precision is accurate relative to the summed term
            # magnitudes eta^k sum|C| |beta|^(k-2j), not to the value itself
            view = bogoliubov_view(probe)
            size = [view.eta**k * moment_real_axis(abs(view.beta), 0.0, k) for k in (12, 6)]
            tol = 1e-12 * 4 * (size[0] + size[1] ** 2)
            assert values[(i * step, j * step)] == pytest.approx(expected, rel=0, abs=tol)

    def test_extended_subtracts_before_rounding(self, capsys):
        # at N = 1e8 the variance cancels ~16 digits; rounding each moment to
        # double before the subtraction printed 0.0 here
        code, out, _ = run_cli(
            capsys,
            "scan-phase", "--n", "1e8", "--gamma", "0.5", "--zeta", "2",
            "--target", "f_lambda", "--grid", "8", "--extended",
        )
        assert code == 0
        expected = qfi_lambda(make_probe(1e8, 0.5), ModelSpec(1.0, 2), extended=True)
        assert self.scan_values(out)[(0.0, 0.0)] == expected


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


class TestSelftest:
    def test_passes(self, capsys):
        code, out, _ = run_cli(capsys, "selftest")
        assert code == 0
        assert "FAIL" not in out
        assert "INFO moments.default-family-vs-state-delta" in out


class TestErrorPaths:
    def test_numerical_overflow_exits_three(self, capsys):
        code, out, err = run_cli(
            capsys,
            "opt-gamma", "--target", "f_lambda", "--zeta", "12", "--n-range", "1e39:1e40:2",
        )
        assert code == 3
        assert json.loads(err)["error"] == "NumericalRangeError"

    @pytest.mark.parametrize(
        "n, message",
        [("1e15", "(34, 'Numerical result out of range')"), ("1e28", "QFI entries exceed the double-precision range")],
        ids=["power-overflows", "entry-overflows"],
    )
    @pytest.mark.parametrize("target", ["f_lambda", "f_zeta", "joint"])
    def test_scan_gamma_overflow_is_the_point_loop_error(self, capsys, n, message, target):
        # the whole grid is one pass, but the error is the one the first
        # failing point raises on its own: at 1e15 gamma = 0 still fits
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
            "message": "objective overflowed double precision; reduce the probe energy "
            "or use the extended-precision mode",
        }

    def test_jobs_env_default(self, capsys, monkeypatch):
        monkeypatch.setenv("NLPROBE_JOBS", "4")
        from nlprobe.cli import build_parser

        args = build_parser().parse_args(["selftest"])
        assert args.jobs == 4

    def test_extended_mode_matches_double_on_scan(self, capsys):
        base = ["scan-gamma", "--n", "1", "--zeta", "2", "--target", "f_lambda", "--grid", "5"]
        _, out_d, _ = run_cli(capsys, *base)
        _, out_e, _ = run_cli(capsys, *base, "--extended")
        rows_d = [l for l in out_d.splitlines() if not l.startswith("#")][1:]
        rows_e = [l for l in out_e.splitlines() if not l.startswith("#")][1:]
        for rd, re_ in zip(rows_d, rows_e):
            vd, ve = float(rd.split(",")[1]), float(re_.split(",")[1])
            assert ve == pytest.approx(vd, rel=1e-12)


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
    # only the oracle needs scipy; perfbench's tracer still finds the oracle module loaded
    code = (
        "import sys, nlprobe.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), 'nlprobe.fock_oracle' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(nlprobe.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]", "True"]
