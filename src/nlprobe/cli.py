"""Command-line front end: single evaluations, parameter scans, self tests.

Scans emit CSV with '#'-prefixed metadata lines followed by a header row;
floats are written with repr (shortest round-trip form), newlines are LF,
and the decimal separator is always '.', so identical invocations produce
byte-identical output regardless of locale or --jobs (accepted, no effect).
A scan is held as columns (ScanResult): its axes in row-major order and one
list per other column. CSV formats each axis coordinate once, and each
distinct value of a column of floats once, unless the column holds a zero
(0.0 and -0.0 are equal but print differently); any other column is
formatted cell by cell.
build_parser is cached: a process builds the parser once, and every later
main call only parses. argparse's formatter looks up the terminal width
each time it prints help, so the cached parser wraps at the current width.
Importing this module loads no numpy: the functions that build arrays
import it, so qfi without --oracle, help, --version and usage errors run
without it.
"""

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass, field

from . import __version__
from .combinatorics import coeff_row_sum, normal_order_coeff
from .errors import CutoffError, DomainError, InternalConsistencyError, NlprobeError, ThresholdAmbiguousError
from .asymptotics import gamma_opt_high_n
from .fock_oracle import build_state, converged_moments, qfi_matrix_oracle, quadrature, sld_operator
from .moments import moment_vector
from .optimizer import _ENTRY, THRESHOLD_REL_TOL, OptTarget, TargetKind, _log_grid, find_threshold
from .optimizer import objective_grid, optimize_gamma_grid
from .probe import make_probe
from .qfi_core import ModelSpec, QfiMatrix, _probe_qfi, normal_law_grid, reparametrize_physical

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

ANALYTIC_THRESHOLD = 1.0 / (12.0 * math.sqrt(2.0) + 16.0)  # (3 sqrt 2 - 4)/8 without its cancellation


@dataclass(frozen=True)
class ScanResult:
    """One scan: its axes, one list per other column, and metadata.

    The grid's points run in row-major order over the axes, the first axis
    slowest; every column that is not an axis holds one value per point in
    that order. header orders the columns for output, and the primary
    column is the one JSON also writes as "values". The metadata records
    everything needed to reproduce the scan.
    """

    axes: dict
    columns: dict
    header: tuple
    primary: str
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        expected = math.prod(map(len, self.axes.values()))
        for name, values in self.columns.items():
            if len(values) != expected:
                raise InternalConsistencyError(f"scan column {name} has {len(values)} values for {expected} points")

    def _in_header_order(self, axis, value):
        """The columns in header order, one cell per grid point: axis maps an
        axis's coordinates, each result repeated down its column, and value
        maps every other column."""
        sizes = [len(coords) for coords in self.axes.values()]
        spans = {name: (math.prod(sizes[:i]), math.prod(sizes[i + 1:])) for i, name in enumerate(self.axes)}
        out = []
        for name in self.header:
            if name in spans:
                outer, inner = spans[name]
                out.append([cell for cell in axis(self.axes[name]) for _ in range(inner)] * outer)
            else:
                out.append(value(self.columns[name]))
        return out

    def cells(self, convert):
        """The columns in header order, one cell per grid point, each through
        convert. Each axis coordinate goes through it once and is repeated
        down its column, and so does each distinct value of a column of
        floats with no zero; every other value goes through it on its own
        (_each_distinct_once). The memo lives in this call alone."""
        return self._in_header_order(functools.partial(map, convert), functools.partial(_each_distinct_once, convert))

    @property
    def rows(self):
        """The grid's points as tuples in header order, of the columns' own objects."""
        return list(zip(*self._in_header_order(iter, iter)))


def _each_distinct_once(convert, values):
    """convert of every value, each distinct value converted once. Only a
    column of floats alone with repeats and no zero takes the memo: equal
    floats other than 0.0 and -0.0 have the same bits, and each NaN object
    is a key of its own, while 1, 1.0 and True are equal keys that print
    differently."""
    if {*map(type, values)} == {float}:
        distinct = dict.fromkeys(values)
        if len(distinct) < len(values) and 0.0 not in distinct:
            converted = dict(zip(distinct, map(convert, distinct)))
            return list(map(converted.__getitem__, values))
    return list(map(convert, values))


def _emit(args, scan: ScanResult):
    """Write a scan as metadata-prefixed CSV (default) or a JSON document.

    CSV cells go through str, which writes a float as its repr; an axis
    coordinate, and a distinct value of a column of floats without a zero,
    is formatted once for all the rows that hold it. The JSON rows are the
    columns' own objects.
    """
    if args.json:
        doc = {
            "axes": scan.axes,
            "header": list(scan.header),
            "values": scan.columns[scan.primary],
            "rows": scan.rows,
            "metadata": scan.metadata,
        }
        text = json.dumps(doc, sort_keys=True) + "\n"
    else:
        lines = [f"# {key}={scan.metadata[key]}" for key in sorted(scan.metadata)]
        lines.append(",".join(scan.header))
        lines.extend(map(",".join, zip(*scan.cells(str))))
        text = "\n".join(lines) + "\n"
    _write(args, text)


def _write(args, text):
    """Write a command's whole output to the --out file, or else to stdout."""
    if args.out:
        try:
            fh = open(args.out, "w", newline="\n")
        except OSError as exc:
            raise DomainError(f"--out cannot be opened: {type(exc).__name__}: {exc}") from exc
        with fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _base_metadata(**extra):
    return {"tool": "nlprobe", "version": __version__, "precision": "double", **extra}


def cmd_qfi(args) -> int:
    probe = make_probe(args.n, args.gamma, args.theta, args.phi)
    model = ModelSpec(lambda_eff=args.lam, zeta=args.zeta, time=args.time)
    fm = reparametrize_physical(QfiMatrix(*_probe_qfi(probe, model, +1, (0, 1, 2))), model)
    # det F / tr F of diag(t, 1) F diag(t, 1), without the cancellation of f_ll f_zz - f_lz^2: t^2 times
    # the kernel's bound at the coupling lambda / t. That coupling is finite wherever f_zz is, since
    # (lambda zeta)^2 <= 1.8e308 and t^2 >= 2.2e-308 keep it below 9e307, and the bound is at most the
    # rescaled f_ll, which fits
    t = args.time
    bound = t * t * _probe_qfi(probe, ModelSpec(lambda_eff=args.lam / t, zeta=args.zeta), +1, (3,))[0]
    record = {
        "f_ll": fm.f_ll,
        "f_zz": fm.f_zz,
        "f_lz": fm.f_lz,
        "u_lz": fm.u_lz,
        "scalar_bound_inverse": bound,
    }
    if args.oracle:
        om = reparametrize_physical(qfi_matrix_oracle(probe, model), model)
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
    # at lambda = 1 the order QFI is divided by lambda^2, its only lambda dependence
    model = ModelSpec(lambda_eff=1.0, zeta=args.zeta)
    thetas_column = [[theta] for theta in thetas]  # a k x 1 column against the k phis
    (grid,) = normal_law_grid(args.n, args.gamma, thetas_column, phis, model, entries=(_ENTRY[target],))
    md = _base_metadata(
        command="scan-phase",
        n=args.n,
        gamma=args.gamma,
        zeta=args.zeta,
        target=args.target,
        grid=k,
        normalization="lambda_squared" if target is TargetKind.F_ZETA else "none",
    )
    _emit(args, ScanResult({"theta": thetas, "phi": phis}, {"value": grid.ravel().tolist()},
                           ("theta", "phi", "value"), "value", md))
    return EXIT_OK


def cmd_scan_gamma(args) -> int:
    model = ModelSpec(lambda_eff=args.lam, zeta=args.zeta)
    target = OptTarget(TargetKind(args.target), model)
    gammas = [i / (args.grid - 1) for i in range(args.grid)]
    vals = objective_grid(gammas, args.n, target)
    md = _base_metadata(
        command="scan-gamma",
        n=args.n,
        zeta=args.zeta,
        lam=args.lam,
        target=args.target,
        grid=args.grid,
    )
    _emit(args, ScanResult({"gamma": gammas}, {"value": vals}, ("gamma", "value"), "value", md))
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
    try:
        return _log_grid(lo, hi, count)
    except DomainError as exc:
        raise argparse.ArgumentTypeError(f"bad n-range {spec!r}") from exc


def _couplings(given, kind):
    """opt-gamma's and threshold's couplings: those given, else 0.01, 1 and 100 for joint and 1 otherwise."""
    return given or ([0.01, 1.0, 100.0] if kind is TargetKind.JOINT_BOUND else [1.0])


def cmd_opt_gamma(args) -> int:
    kind = TargetKind(args.target)
    ns = args.n_range
    lambdas = _couplings(args.lam, kind)
    columns = {"gamma_opt": [], "objective": [], "asymptote": []}
    for zeta in args.zeta:
        for lam in lambdas:
            target = OptTarget(kind, ModelSpec(lambda_eff=lam, zeta=zeta))
            for res in optimize_gamma_grid(ns, target):
                columns["gamma_opt"].append(res.gamma_opt)
                columns["objective"].append(res.objective_value)
        order = zeta - 1 if kind is TargetKind.F_ZETA else zeta  # >= 0 once the model has checked zeta
        asym = gamma_opt_high_n(order) if order >= 1 else float("nan")
        columns["asymptote"] += [asym] * (len(lambdas) * len(ns))
    md = _base_metadata(
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
    _emit(args, ScanResult(axes, columns, header, "gamma_opt", md))
    return EXIT_OK


def cmd_threshold(args) -> int:
    kind = TargetKind(args.target)
    lambdas = _couplings(args.lam, kind)
    records = []
    for lam in lambdas:
        target = OptTarget(kind, ModelSpec(lambda_eff=lam, zeta=args.zeta))
        n_th = find_threshold(target, n_hi=args.n_hi, samples=args.samples)
        rec = {"target": args.target, "zeta": args.zeta, "lambda": lam, "rel_tol": THRESHOLD_REL_TOL}
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
    checks, lines = [], []

    def check(name, ok, detail=""):
        checks.append({"name": name, "status": "PASS" if ok else "FAIL", "detail": detail})
        lines.append(f"{checks[-1]['status']} {name}{' ' + detail if detail else ''}\n")

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
                cm = moment_vector(probe, 8)
                for k in range(9):
                    worst_pure = max(worst_pure, abs(cm[k] - om[k]) / max(1.0, abs(om[k])))
    check("moments.oracle-agreement-pure-probes", worst_pure <= 1e-8, f"max_rel={worst_pure:.2e}")

    # state-exact amplitude convention against the oracle at mixed gamma
    worst_exact = 0.0
    worst_default = 0.0
    for n in (1.0, 3.0):
        probe = make_probe(n, 0.5, 0.7, 1.3)
        om = converged_moments(probe, 8)
        exact, default = moment_vector(probe, 8, beta_sign=-1), moment_vector(probe, 8)
        for k in range(9):
            worst_exact = max(worst_exact, abs(exact[k] - om[k]) / max(1.0, abs(om[k])))
            worst_default = max(worst_default, abs(default[k] - om[k]) / max(1.0, abs(om[k])))
    check("moments.oracle-agreement-state-exact-mode", worst_exact <= 1e-8, f"max_rel={worst_exact:.2e}")
    info = (
        f"moments.default-family-vs-state-delta max_rel={worst_default:.2e} "
        "(expected large at mixed gamma; see README 'Moment conventions')"
    )
    lines.append(f"INFO {info}\n")

    # Uhlmann compatibility and SLD consistency from the oracle alone
    probe = make_probe(1.0, 0.5, 0.0, 0.0)
    model = ModelSpec(lambda_eff=0.1, zeta=2)
    om = qfi_matrix_oracle(probe, model)
    check("oracle.uhlmann-vanishes", abs(om.u_lz) <= 1e-10, f"u_lz={om.u_lz:.2e}")
    sld = sld_operator(probe, model)
    import numpy as np
    from scipy.linalg import expm

    psi = build_state(probe, sld.dim).amplitudes
    gz = np.linalg.matrix_power(quadrature(sld.dim).entries, model.zeta)
    u = expm(-1j * model.lambda_eff * gz)
    psi_l = u @ psi
    rho = np.outer(psi_l, psi_l.conj())
    tr = float(np.real(np.trace(rho @ sld.entries @ sld.entries)))
    rel = abs(tr - om.f_ll) / max(1.0, abs(om.f_ll))
    check("oracle.sld-trace-consistency", rel <= 1e-6, f"rel={rel:.2e}")

    # threshold against the analytic reference
    n_th = find_threshold(OptTarget(TargetKind.F_LAMBDA, ModelSpec(lambda_eff=1.0, zeta=2)))
    check(
        "optimizer.threshold-analytic-reference",
        abs(n_th - ANALYTIC_THRESHOLD) <= 1e-12 * ANALYTIC_THRESHOLD,  # the closed form lands 1 ulp (3.5e-18) away
        f"n_th={n_th:.6f} ref={ANALYTIC_THRESHOLD:.6f}",
    )

    failures = sum(c["status"] == "FAIL" for c in checks)
    if args.json:
        _write(args, json.dumps({"checks": checks, "info": info, "failures": failures}, sort_keys=True) + "\n")
    else:
        _write(args, "".join(lines) + ("OK" if failures == 0 else f"{failures} FAILURES") + "\n")
    return EXIT_OK if failures == 0 else 1


def _qfi_arguments(p):
    p.add_argument("--n", type=float, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--theta", type=float, default=0.0)
    p.add_argument("--phi", type=float, default=0.0)
    p.add_argument("--zeta", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--time", type=float, default=1.0)
    p.add_argument("--oracle", action="store_true", help="also compute Fock-oracle values and deltas")


def _scan_phase_arguments(p):
    p.add_argument("--n", type=float, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--zeta", type=int, required=True)
    p.add_argument("--target", choices=["f_lambda", "f_zeta"], required=True)
    p.add_argument("--grid", type=_checked(int, lambda v: v >= 1, ">= 1"), required=True)


def _scan_gamma_arguments(p):
    p.add_argument("--n", type=float, required=True)
    p.add_argument("--zeta", type=int, required=True)
    p.add_argument("--target", choices=["f_lambda", "f_zeta", "joint"], required=True)
    p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p.add_argument("--grid", type=_checked(int, lambda v: v >= 2, ">= 2"), default=101)


def _opt_gamma_arguments(p):
    p.add_argument("--target", choices=["f_lambda", "f_zeta", "joint"], required=True)
    p.add_argument("--zeta", type=int, nargs="+", required=True)
    p.add_argument("--lambda", dest="lam", type=float, nargs="+", default=None)
    p.add_argument("--n-range", dest="n_range", type=_parse_n_range, required=True, metavar="LO:HI:COUNT")


def _threshold_arguments(p):
    p.add_argument("--target", choices=["f_lambda", "f_zeta", "joint"], required=True)
    p.add_argument("--zeta", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=float, nargs="+", default=None)
    p.add_argument("--n-hi", dest="n_hi", type=float, default=1e3,
                   help="upper end of the searched energy range (joint targets may need more)")
    p.add_argument("--samples", type=int, default=15, help="log-grid points used to bracket the crossing")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The nlprobe parser with every subcommand. Cached, so that main
    builds it once per process; cache_clear makes the next call build it."""
    parser = argparse.ArgumentParser(
        prog="nlprobe",
        description="Precision bounds for probing optical nonlinearities with squeezed light",
    )
    parser.add_argument("--version", action="version", version=f"nlprobe {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, arguments, func in (
        ("qfi", "QFI matrix, Uhlmann residual and joint bound at one point", _qfi_arguments, cmd_qfi),
        ("scan-phase", "QFI over a (theta, phi) grid at fixed N, gamma, zeta", _scan_phase_arguments, cmd_scan_phase),
        ("scan-gamma", "figure of merit over gamma at fixed N", _scan_gamma_arguments, cmd_scan_gamma),
        ("opt-gamma", "optimal squeezing fraction over a log-spaced N range", _opt_gamma_arguments, cmd_opt_gamma),
        ("threshold", "energy below which squeezed vacuum is the optimal probe", _threshold_arguments, cmd_threshold),
        ("selftest", "run the oracle-agreement suite", lambda p: None, cmd_selftest),
    ):
        p = sub.add_parser(name, help=help_text)
        arguments(p)
        p.add_argument("--jobs", type=int, default=1, help="no effect")
        p.add_argument("--json", action="store_true", help="emit a single JSON document instead of CSV/text")
        p.add_argument("--out", default=None, help="write output to a file instead of stdout")
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NlprobeError, OverflowError, MemoryError) as exc:
        report = {"error": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, ThresholdAmbiguousError):
            report["crossings"] = exc.crossings
        sys.stderr.write(json.dumps(report) + "\n")
        numerical = (CutoffError, OverflowError, MemoryError, ThresholdAmbiguousError)
        return EXIT_NUMERICAL if isinstance(exc, numerical) else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
