"""Command-line front end: single evaluations, parameter scans, self tests.

Scans emit CSV with '#'-prefixed metadata lines followed by a header row;
floats are written with repr (shortest round-trip form), newlines are LF,
and the decimal separator is always '.', so identical invocations produce
byte-identical output regardless of locale or --jobs (accepted, no effect).
"""

import argparse
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .combinatorics import coeff_row_sum, normal_order_coeff
from .errors import InternalConsistencyError, NlprobeError, NumericalRangeError, ThresholdAmbiguousError
from .asymptotics import gamma_opt_high_n
from .fock_oracle import converged_moments, qfi_matrix_oracle, sld_operator
from .moments import moment_general
from .optimizer import THRESHOLD_N_LO, OptTarget, TargetKind, find_threshold, objective_grid, optimize_gamma_grid
from .probe import make_probe
from .qfi_core import OVERFLOW, ModelSpec, QfiMatrix, _probe_qfi, normal_law_grid, reparametrize_physical

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

ANALYTIC_THRESHOLD = (3.0 * math.sqrt(2.0) - 4.0) / 8.0
JOINT_LAMBDA_DEFAULTS = (0.01, 1.0, 100.0)


@dataclass(frozen=True)
class ScanResult:
    """One scan: named axes, row-major primary values, full CSV rows, metadata.

    The metadata records everything needed to reproduce the scan.
    """

    axes: dict
    header: tuple
    rows: list
    values: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        expected = 1
        for coords in self.axes.values():
            expected *= len(coords)
        if len(self.values) != expected:
            raise InternalConsistencyError(
                f"scan has {len(self.values)} values for {expected} grid points"
            )


def _axis_column(name, cells, coords):
    """[str(c) for c in cells] for a column of coordinates of one axis,
    formatting each coordinate of the axis once.

    The table is keyed on the value, under which 0.0 and -0.0 (or 1 and 1.0)
    are one key although they print differently. So a cell takes the
    table's string only if it is the very object that string was made
    from, and any other cell is formatted on its own. A cell that equals no
    coordinate of the axis raises.
    """
    table = {c: (c, str(c)) for c in coords}
    try:
        entries = list(map(table.__getitem__, cells))
    except KeyError as exc:
        raise InternalConsistencyError(f"a scan row holds {name}={exc.args[0]!r}, which is not on that axis") from None
    return [text if source is cell else str(cell) for (source, text), cell in zip(entries, cells)]


def _emit(args, scan: ScanResult):
    """Write a scan as metadata-prefixed CSV (default) or a JSON document.

    In CSV a column named after an axis takes its coordinates' strings from
    one table per axis (_axis_column); the other columns go through str
    cell by cell, which writes a float as its repr.
    """
    if args.json:
        doc = {
            "axes": scan.axes,
            "header": list(scan.header),
            "values": scan.values,
            "rows": [list(r) for r in scan.rows],
            "metadata": scan.metadata,
        }
        text = json.dumps(doc, sort_keys=True) + "\n"
    else:
        lines = [f"# {key}={scan.metadata[key]}" for key in sorted(scan.metadata)]
        lines.append(",".join(scan.header))
        columns = [
            _axis_column(name, cells, scan.axes[name]) if name in scan.axes else list(map(str, cells))
            for name, cells in zip(scan.header, zip(*scan.rows))
        ]
        lines.extend(map(",".join, zip(*columns)))
        text = "\n".join(lines) + "\n"
    _write(args, text)


def _write(args, text):
    """Write a command's whole output to the --out file, or else to stdout."""
    if args.out:
        with open(args.out, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _base_metadata(args, **extra):
    md = {"tool": "nlprobe", "version": __version__, "precision": "double"}
    md.update(extra)
    return md


def cmd_qfi(args) -> int:
    probe = make_probe(args.n, args.gamma, args.theta, args.phi)
    model = ModelSpec(lambda_eff=args.lam, zeta=args.zeta, time=args.time)
    # the bound is det F / tr F without the cancellation of f_ll f_zz - f_lz^2
    f_ll, f_zz, f_lz, bound = _probe_qfi(probe, model)
    fm = QfiMatrix(f_ll, f_zz, f_lz)
    t = args.time
    if t != 1.0:  # det and trace of diag(t, 1) F diag(t, 1); det = 0 where f_zz = 0, as at zeta = 1
        if bound:
            bound *= t * t * (f_ll + f_zz) / (t * t * f_ll + f_zz)
        fm = reparametrize_physical(fm, model)
        if not all(-math.inf < v < math.inf for v in (*fm.as_tuple(), bound)):
            raise OverflowError(OVERFLOW)
    record = {
        "f_ll": fm.f_ll,
        "f_zz": fm.f_zz,
        "f_lz": fm.f_lz,
        "u_lz": fm.u_lz,
        "scalar_bound_inverse": bound,
    }
    if args.oracle:
        om = qfi_matrix_oracle(probe, model)
        if args.time != 1.0:
            om = reparametrize_physical(om, model)
        record.update(
            {
                "oracle_f_ll": om.f_ll,
                "oracle_f_zz": om.f_zz,
                "oracle_f_lz": om.f_lz,
                "oracle_u_lz": om.u_lz,
                "delta_f_ll": fm.f_ll - om.f_ll,
                "delta_f_zz": fm.f_zz - om.f_zz,
                "delta_f_lz": fm.f_lz - om.f_lz,
            }
        )
    if args.json:
        _write(args, json.dumps(record, sort_keys=True) + "\n")
    else:
        _write(args, "".join(f"{key}={val}\n" for key, val in record.items()))
    return EXIT_OK


def cmd_scan_phase(args) -> int:
    target = TargetKind(args.target)
    k = args.grid
    step = 2.0 * math.pi / k
    thetas = [i * step for i in range(k)]
    phis = [j * step for j in range(k)]
    points = [(t, p) for t in thetas for p in phis]
    # at lambda = 1 the order QFI is divided by lambda^2, its only lambda dependence
    model = ModelSpec(lambda_eff=1.0, zeta=args.zeta)
    (grid,) = normal_law_grid(args.n, args.gamma, np.array(thetas)[:, None], phis, model,
                              entries=(0 if target is TargetKind.F_LAMBDA else 1,))
    vals = grid.ravel().tolist()
    rows = [(t, p, v) for (t, p), v in zip(points, vals)]
    md = _base_metadata(
        args,
        command="scan-phase",
        n=args.n,
        gamma=args.gamma,
        zeta=args.zeta,
        target=args.target,
        grid=k,
        normalization="lambda_squared" if target is TargetKind.F_ZETA else "none",
    )
    _emit(args, ScanResult({"theta": thetas, "phi": phis}, ("theta", "phi", "value"), rows, vals, md))
    return EXIT_OK


def cmd_scan_gamma(args) -> int:
    model = ModelSpec(lambda_eff=args.lam, zeta=args.zeta)
    target = OptTarget(TargetKind(args.target), model)
    gammas = [i / (args.grid - 1) for i in range(args.grid)]
    vals = objective_grid(gammas, args.n, target)
    rows = list(zip(gammas, vals))
    md = _base_metadata(
        args,
        command="scan-gamma",
        n=args.n,
        zeta=args.zeta,
        lam=args.lam,
        target=args.target,
        grid=args.grid,
    )
    _emit(args, ScanResult({"gamma": gammas}, ("gamma", "value"), rows, vals, md))
    return EXIT_OK


def _checked(convert, ok, rule):
    """argparse type: convert the text, then reject values that break the rule."""

    def parse(text):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{text!r} is not {rule}")
        return value

    parse.__name__ = convert.__name__  # argparse names the type in its messages
    return parse


def _parse_n_range(spec):
    try:
        lo_s, hi_s, count_s = spec.split(":")
        lo, hi, count = float(lo_s), float(hi_s), int(count_s)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad n-range {spec!r}, expected LO:HI:COUNT") from exc
    if not (0 < lo < hi and count >= 2):
        raise argparse.ArgumentTypeError(f"bad n-range {spec!r}")
    ratio = (hi / lo) ** (1.0 / (count - 1))
    return [lo * ratio**i for i in range(count)]


def cmd_opt_gamma(args) -> int:
    kind = TargetKind(args.target)
    ns = args.n_range
    lambdas = args.lam if kind is TargetKind.JOINT_BOUND else [1.0]
    rows = []
    for zeta in args.zeta:
        if kind is TargetKind.F_ZETA:
            asym = gamma_opt_high_n(zeta - 1) if zeta >= 2 else float("nan")
        else:
            asym = gamma_opt_high_n(zeta)
        for lam in lambdas:
            target = OptTarget(kind, ModelSpec(lambda_eff=lam, zeta=zeta))
            for res in optimize_gamma_grid(ns, target):
                rows.append((res.n_total, zeta, lam, res.gamma_opt, res.objective_value, asym))
    md = _base_metadata(
        args,
        command="opt-gamma",
        target=args.target,
        zetas=",".join(map(str, args.zeta)),
        lambdas=",".join(map(str, lambdas)),
        n_lo=ns[0],
        n_hi=ns[-1],
        n_count=len(ns),
    )
    header = ("n", "zeta", "lambda", "gamma_opt", "objective", "asymptote")
    axes = {"zeta": list(args.zeta), "lambda": list(lambdas), "n": ns}
    _emit(args, ScanResult(axes, header, rows, [r[3] for r in rows], md))
    return EXIT_OK


def cmd_threshold(args) -> int:
    kind = TargetKind(args.target)
    lambdas = args.lam or (list(JOINT_LAMBDA_DEFAULTS) if kind is TargetKind.JOINT_BOUND else [1.0])
    records = []
    for lam in lambdas:
        target = OptTarget(kind, ModelSpec(lambda_eff=lam, zeta=args.zeta))
        n_th = find_threshold(target, rel_tol=args.rel_tol, n_hi=args.n_hi, samples=args.samples)
        rec = {"target": args.target, "zeta": args.zeta, "lambda": lam, "rel_tol": args.rel_tol}
        if math.isinf(n_th):
            rec["n_th"] = "no-threshold"
        else:
            rec["n_th"] = n_th
            has_reference = (kind is TargetKind.F_LAMBDA and args.zeta % 2 == 0) or (
                kind is TargetKind.F_ZETA and args.zeta % 2 == 1
            )
            if has_reference:
                rec["analytic_reference"] = ANALYTIC_THRESHOLD
                rec["deviation"] = n_th - ANALYTIC_THRESHOLD
        records.append(rec)
    if args.json:
        _write(args, json.dumps(records, sort_keys=True) + "\n")
    else:
        _write(args, "".join(" ".join(f"{k}={v}" for k, v in rec.items()) + "\n" for rec in records))
    return EXIT_OK


def cmd_selftest(args) -> int:
    failures = 0
    lines = []

    def check(name, ok, detail=""):
        nonlocal failures
        status = "PASS" if ok else "FAIL"
        failures += 0 if ok else 1
        lines.append(f"{status} {name}{' ' + detail if detail else ''}\n")

    # exact row-sum identity
    ok = True
    for zeta in range(0, 21):
        for k in range(zeta // 2 + 1):
            direct = sum(normal_order_coeff(zeta, k, s) for s in range(zeta - 2 * k + 1))
            if coeff_row_sum(zeta, k) != direct:
                ok = False
    check("combinatorics.row-sum-identity", ok)

    # moments vs oracle where the closed-form family describes the built state
    worst_pure = 0.0
    for n in (0.5, 2.0):
        for gamma in (0.0, 1.0):
            for theta, phi in ((0.0, 0.0), (1.0, 2.0)):
                probe = make_probe(n, gamma, theta, phi)
                om = converged_moments(probe, 8)
                for k in range(9):
                    cm = moment_general(probe, k)
                    worst_pure = max(worst_pure, abs(cm - om[k]) / max(1.0, abs(om[k])))
    check("moments.oracle-agreement-pure-probes", worst_pure <= 1e-8, f"max_rel={worst_pure:.2e}")

    # state-exact amplitude convention against the oracle at mixed gamma
    worst_exact = 0.0
    worst_default = 0.0
    for n in (1.0, 3.0):
        probe = make_probe(n, 0.5, 0.7, 1.3)
        om = converged_moments(probe, 8)
        for k in range(9):
            exact = moment_general(probe, k, beta_sign=-1)
            default = moment_general(probe, k)
            worst_exact = max(worst_exact, abs(exact - om[k]) / max(1.0, abs(om[k])))
            worst_default = max(worst_default, abs(default - om[k]) / max(1.0, abs(om[k])))
    check("moments.oracle-agreement-state-exact-mode", worst_exact <= 1e-8, f"max_rel={worst_exact:.2e}")
    lines.append(
        f"INFO moments.default-family-vs-state-delta max_rel={worst_default:.2e} "
        "(expected large at mixed gamma; see README 'Moment conventions')\n"
    )

    # Uhlmann compatibility and SLD consistency from the oracle alone
    probe = make_probe(1.0, 0.5, 0.0, 0.0)
    model = ModelSpec(lambda_eff=0.1, zeta=2)
    om = qfi_matrix_oracle(probe, model)
    check("oracle.uhlmann-vanishes", abs(om.u_lz) <= 1e-10, f"u_lz={om.u_lz:.2e}")
    sld = sld_operator(probe, model)
    from scipy.linalg import expm

    from .fock_oracle import _x_sparse, build_state

    psi = build_state(probe, sld.dim).amplitudes
    gz = np.linalg.matrix_power(_x_sparse(sld.dim).toarray(), model.zeta)
    u = expm(-1j * model.lambda_eff * gz)
    psi_l = u @ psi
    rho = np.outer(psi_l, psi_l.conj())
    tr = float(np.real(np.trace(rho @ sld.entries @ sld.entries)))
    rel = abs(tr - om.f_ll) / max(1.0, abs(om.f_ll))
    check("oracle.sld-trace-consistency", rel <= 1e-6, f"rel={rel:.2e}")

    # threshold against the analytic reference
    target = OptTarget(TargetKind.F_LAMBDA, ModelSpec(lambda_eff=1.0, zeta=2))
    n_th = find_threshold(target)
    check(
        "optimizer.threshold-analytic-reference",
        abs(n_th - ANALYTIC_THRESHOLD) <= 5e-4,
        f"n_th={n_th:.6f} ref={ANALYTIC_THRESHOLD:.6f}",
    )

    lines.append(("OK" if failures == 0 else f"{failures} FAILURES") + "\n")
    _write(args, "".join(lines))
    return EXIT_OK if failures == 0 else 1


def common(p):
    p.add_argument("--jobs", type=int, default=1, help="no effect")
    p.add_argument("--json", action="store_true", help="emit a single JSON document instead of CSV/text")
    p.add_argument("--out", default=None, help="write output to a file instead of stdout")


def _qfi_arguments(p):
    p.add_argument("--n", type=float, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--theta", type=float, default=0.0)
    p.add_argument("--phi", type=float, default=0.0)
    p.add_argument("--zeta", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--time", type=float, default=1.0)
    p.add_argument("--oracle", action="store_true", help="also compute Fock-oracle values and deltas")
    common(p)
    p.set_defaults(func=cmd_qfi)


def _scan_phase_arguments(p):
    p.add_argument("--n", type=float, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--zeta", type=int, required=True)
    p.add_argument("--target", choices=["f_lambda", "f_zeta"], required=True)
    p.add_argument("--grid", type=_checked(int, lambda v: v >= 1, ">= 1"), required=True)
    common(p)
    p.set_defaults(func=cmd_scan_phase)


def _scan_gamma_arguments(p):
    p.add_argument("--n", type=float, required=True)
    p.add_argument("--zeta", type=int, required=True)
    p.add_argument("--target", choices=["f_lambda", "f_zeta", "joint"], required=True)
    p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p.add_argument("--grid", type=_checked(int, lambda v: v >= 2, ">= 2"), default=101)
    common(p)
    p.set_defaults(func=cmd_scan_gamma)


def _opt_gamma_arguments(p):
    p.add_argument("--target", choices=["f_lambda", "f_zeta", "joint"], required=True)
    p.add_argument("--zeta", type=int, nargs="+", required=True)
    p.add_argument("--lambda", dest="lam", type=float, nargs="+", default=list(JOINT_LAMBDA_DEFAULTS))
    p.add_argument("--n-range", dest="n_range", type=_parse_n_range, required=True, metavar="LO:HI:COUNT")
    common(p)
    p.set_defaults(func=cmd_opt_gamma)


def _threshold_arguments(p):
    p.add_argument("--target", choices=["f_lambda", "f_zeta", "joint"], required=True)
    p.add_argument("--zeta", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=float, nargs="*", default=None)
    p.add_argument("--rel-tol", dest="rel_tol", type=_checked(float, lambda v: 0 < v < math.inf, "finite and > 0"),
                   default=1e-4)
    p.add_argument("--n-hi", dest="n_hi", type=_checked(float, lambda v: v > THRESHOLD_N_LO, f"> {THRESHOLD_N_LO}"),
                   default=1e3, help="upper end of the searched energy range (joint targets may need more)")
    p.add_argument("--samples", type=_checked(int, lambda v: v >= 2, ">= 2"), default=15,
                   help="log-grid points used to bracket the crossing")
    common(p)
    p.set_defaults(func=cmd_threshold)


def _selftest_arguments(p):
    common(p)
    p.set_defaults(func=cmd_selftest)


class _Subcommand(argparse.ArgumentParser):
    """A subcommand's parser that adds its options when it first parses.

    argparse's subparsers action calls parse_known_args on the chosen
    subcommand only, so a call builds the options of that one; the
    top-level usage and help read only the subcommands' names and help.
    """

    def __init__(self, *, arguments, **kwargs):
        super().__init__(**kwargs)
        self._add_options = arguments

    def parse_known_args(self, args=None, namespace=None):
        if self._add_options is not None:
            self._add_options(self)
            self._add_options = None
        return super().parse_known_args(args, namespace)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlprobe",
        description="Precision bounds for probing optical nonlinearities with squeezed light",
    )
    parser.add_argument("--version", action="version", version=f"nlprobe {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Subcommand)
    sub.add_parser("qfi", help="QFI matrix, Uhlmann residual and joint bound at one point", arguments=_qfi_arguments)
    sub.add_parser("scan-phase", help="QFI over a (theta, phi) grid at fixed N, gamma, zeta",
                   arguments=_scan_phase_arguments)
    sub.add_parser("scan-gamma", help="figure of merit over gamma at fixed N", arguments=_scan_gamma_arguments)
    sub.add_parser("opt-gamma", help="optimal squeezing fraction over a log-spaced N range",
                   arguments=_opt_gamma_arguments)
    sub.add_parser("threshold", help="energy below which squeezed vacuum is the optimal probe",
                   arguments=_threshold_arguments)
    sub.add_parser("selftest", help="run the oracle-agreement suite", arguments=_selftest_arguments)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NumericalRangeError, OverflowError) as exc:
        sys.stderr.write(json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return EXIT_NUMERICAL
    except ThresholdAmbiguousError as exc:
        sys.stderr.write(
            json.dumps(
                {"error": "ThresholdAmbiguousError", "message": str(exc), "crossings": exc.crossings}
            )
            + "\n"
        )
        return EXIT_NUMERICAL
    except NlprobeError as exc:
        sys.stderr.write(json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
