"""The four workloads: operations generated from a seed, and their checks.

An operation is one `nlprobe.cli.main(argv)` invocation or one call of a
public library function. Its check compares the output with the 50-digit
reference in `reference.py`, or with a property the method must have, and
returns the problems it found (an empty list when the output is correct).
The seed only moves probe energies, squeezing fractions, phases and
couplings inside ranges where the amount of work stays the same; the list
of operations and their order never change.
"""

import contextlib
import importlib
import math
import random
from dataclasses import dataclass
from decimal import Decimal

import reference as R

# Double-precision results may carry a few ulps of the terms they add up
# and subtract: 4 M_(2 zeta) for the coupling QFI, the analogue for the
# order QFI, with M the moment of term magnitudes (reference.objective_scale).
# 1e-12 is about 4500 ulps.
SCALED_TOL = 1e-12
# The program keeps a double-precision determinant only while it retains 9
# of 16 digits (optimizer._joint_bound), so a correct joint bound carries up
# to ~1e-7 relative error; 1e-6 leaves a factor of ten.
JOINT_REL_TOL = 1e-6
# A maximizer that is correct to the tolerance of its objective loses at
# most about twice that tolerance from the maximum; the golden-section
# step (1e-6 in gamma) adds < 1e-9 for these targets.
ATTAIN_TOL = {R.F_LAMBDA: 1e-8, R.F_ZETA: 1e-8, R.JOINT: 2 * JOINT_REL_TOL}
# The oracle accepts a result once doubling the cutoff moves it by < 1e-9.
ORACLE_TOL = 1e-9

WORKLOADS = ("phase_scan", "gamma_opt", "joint_high_n", "oracle_verify")

# nlprobe modules each workload calls directly (imported for setup_s)
IMPORTS = {
    "phase_scan": ("nlprobe.cli", "nlprobe.optimizer", "nlprobe.qfi_core"),
    "gamma_opt": ("nlprobe.cli",),
    "joint_high_n": ("nlprobe.cli",),
    "oracle_verify": ("nlprobe.cli", "nlprobe.fock_oracle", "nlprobe.probe", "nlprobe.qfi_core"),
}

JOINT_FAULT = "joint-bound determinant trusted in double precision at N >= 1e3"
RESIDUE_FAULT = "moment_general's imaginary-residue test scaled by |Re| instead of the term magnitudes"


class WrongOptimum(str):
    """A problem: gamma_opt misses the reference maximum, or the objective
    reported with it is off."""


class SpuriousThreshold(str):
    """A problem: a finite n_th above which the reference keeps gamma = 1
    optimal."""


class ConsistencyAlarm(str):
    """A problem: exit code 2 with InternalConsistencyError."""


@dataclass(frozen=True)
class Op:
    label: str
    call: object  # () -> output
    check: object  # output -> list of problems
    fault: str = ""  # known program fault that makes this operation fail
    # the kind of problem that fault produces; any other problem of this
    # operation is unexpected
    symptom: type = None

    def known(self, problems):
        """True when every problem is the known fault's symptom."""
        return bool(self.fault) and all(isinstance(p, self.symptom) for p in problems)


# ---------------------------------------------------------------- outputs


# nlprobe is looked up when an operation runs, not imported here: run.py
# imports this module without the program on its path, and a traced run
# replaces the public functions after the operations are built.
def _cli_main(argv):
    return importlib.import_module("nlprobe.cli").main(argv)


class Cli:
    """Builds CLI operations whose output goes to files under tmpdir."""

    SCANS = ("scan-phase", "scan-gamma", "opt-gamma")

    def __init__(self, tmpdir):
        self.tmpdir = tmpdir
        self.count = 0

    def op(self, argv, check, fault="", symptom=None):
        self.count += 1
        stem = self.tmpdir / f"op{self.count:03d}"
        argv = [str(a) for a in argv]
        out = stem.with_suffix(".out")
        if argv[0] in self.SCANS:
            argv += ["--out", str(out)]

        def call():
            with open(stem.with_suffix(".stdout"), "w") as so, open(stem.with_suffix(".stderr"), "w") as se:
                with contextlib.redirect_stdout(so), contextlib.redirect_stderr(se):
                    try:
                        rc = _cli_main(argv)
                    except SystemExit as exc:  # argparse rejected the arguments
                        rc = exc.code
            if rc != 0:
                source = stem.with_suffix(".stderr")
            elif argv[0] in self.SCANS:
                source = out
            else:
                source = stem.with_suffix(".stdout")
            return rc, source.read_text() if source.exists() else ""

        label = " ".join(argv[:-2] if argv[0] in self.SCANS else argv)
        return Op(label, call, _exit_ok(check), fault, symptom)


def _exit_ok(check):
    """Check the output of a zero exit; otherwise report the exit and the
    error the program wrote to stderr."""

    def wrapped(out):
        rc, text = out
        if rc == 0:
            return check(text)
        error = text.strip().splitlines()[-1:] or ["nothing on stderr"]
        kind = ConsistencyAlarm if rc == 2 and '"error": "InternalConsistencyError"' in text else str
        return [kind(f"exit code {rc}: {error[0]}")]

    return wrapped


def parse_csv(text):
    """(metadata, header, rows of floats) of a metadata-prefixed CSV scan."""
    lines = text.splitlines()
    meta = dict(line[2:].split("=", 1) for line in lines if line.startswith("# "))
    body = [line for line in lines if not line.startswith("#")]
    header = body[0].split(",")
    rows = [[float(x) for x in line.split(",")] for line in body[1:]]
    return meta, header, rows


def parse_records(text):
    """Lines of space-separated key=value pairs."""
    return [dict(item.split("=", 1) for item in line.split()) for line in text.splitlines() if line]


# ---------------------------------------------------------------- checks


def value_problem(kind, gamma, n, zeta, lam, value, theta=0.0, phi=0.0):
    """'' when value is the target at (gamma, n, theta, phi) to tolerance."""
    ref = R.objective(kind, gamma, n, zeta, lam, theta, phi)
    err = abs(Decimal(value) - ref)
    if kind == R.JOINT:
        ok = err <= Decimal(JOINT_REL_TOL) * ref
    else:
        ok = err <= Decimal(SCALED_TOL) * R.objective_scale(kind, gamma, n, zeta, lam, theta, phi)
    if ok:
        return ""
    return f"{kind} at gamma={gamma!r} N={n!r} zeta={zeta} lambda={lam!r}: {value!r} vs reference {float(ref)!r}"


def optimum_problems(kind, n, zeta, lam, gamma_opt, value):
    """The reported optimum must attain the reference maximum and carry the
    reference objective value at the reported gamma."""
    problems = []
    g_ref, f_max = R.argmax(kind, n, zeta, lam)
    f_at = R.objective(kind, gamma_opt, n, zeta, lam)
    if f_at < f_max * (1 - Decimal(ATTAIN_TOL[kind])):
        problems.append(WrongOptimum(
            f"{kind} N={n!r} zeta={zeta} lambda={lam!r}: gamma_opt={gamma_opt!r} reaches "
            f"{float(f_at / f_max)!r} of the maximum at gamma={float(g_ref):.6f}"
        ))
    bad = value_problem(kind, gamma_opt, n, zeta, lam, value)
    if bad:
        problems.append(WrongOptimum(bad))
    return problems


def boundary_optimal(kind, n, zeta, lam):
    """True when the squeezed vacuum gamma = 1 is the reference optimum."""
    g, f = R.argmax(kind, n, zeta, lam)
    return g == 1


def threshold_problems(kind, zeta, lam, rel_tol, n_hi, n_th):
    """Reference optimum is gamma = 1 just below n_th and interior just above;
    with no threshold reported, gamma = 1 stays optimal up to n_hi."""
    if n_th == "no-threshold":
        probe_ns = [1e-4 * (n_hi / 1e-4) ** (i / 4) for i in range(5)]
        bad = [n for n in probe_ns if not boundary_optimal(kind, n, zeta, lam)]
        return [f"{kind} zeta={zeta} lambda={lam!r}: no threshold reported, but gamma=1 is not optimal at N={bad}"] if bad else []
    n_th = float(n_th)
    problems = []
    if not boundary_optimal(kind, n_th * (1 - rel_tol), zeta, lam):
        problems.append(f"{kind} zeta={zeta} lambda={lam!r}: gamma=1 not optimal just below n_th={n_th!r}")
    if boundary_optimal(kind, n_th * (1 + rel_tol), zeta, lam):
        problems.append(SpuriousThreshold(f"{kind} zeta={zeta} lambda={lam!r}: gamma=1 still optimal just above n_th={n_th!r}"))
    analytic = (kind == R.F_LAMBDA and zeta % 2 == 0) or (kind == R.F_ZETA and zeta % 2 == 1)
    if analytic and abs(Decimal(n_th) - R.ANALYTIC_THRESHOLD) > Decimal(rel_tol) * R.ANALYTIC_THRESHOLD:
        problems.append(f"{kind} zeta={zeta}: n_th={n_th!r} misses (3 sqrt 2 - 4)/8 by more than rel_tol={rel_tol}")
    return problems


def check_threshold(kind, zeta, lambdas, rel_tol, n_hi):
    def check(text):
        recs = parse_records(text)
        if len(recs) != len(lambdas):
            return [f"{len(recs)} threshold records for {len(lambdas)} couplings"]
        problems = []
        for rec, lam in zip(recs, lambdas):
            if rec.get("target") != kind or int(rec["zeta"]) != zeta or float(rec["lambda"]) != lam:
                problems.append(f"record {rec} does not echo its inputs")
                continue
            problems += threshold_problems(kind, zeta, lam, rel_tol, n_hi, rec["n_th"])
        return problems

    return check


def log_grid(lo, hi, count):
    ratio = (hi / lo) ** (1.0 / (count - 1))
    return [lo * ratio**i for i in range(count)]


def check_opt_gamma(kind, zetas, lambdas, lo, hi, count):
    ns = log_grid(lo, hi, count)

    def asymptote(z):
        z_eff = z - 1 if kind == R.F_ZETA else z
        return (2 * z_eff - 1) / (3 * z_eff - 2)

    def check(text):
        _, header, rows = parse_csv(text)
        expected = [(z, lam, n) for z in zetas for lam in lambdas for n in ns]
        if header != ["n", "zeta", "lambda", "gamma_opt", "objective", "asymptote"] or len(rows) != len(expected):
            return [f"opt-gamma output has header {header} and {len(rows)} rows, expected {len(expected)}"]
        problems = []
        for (z, lam, n), (n_out, z_out, lam_out, g, v, asym) in zip(expected, rows):
            if z_out != z or lam_out != lam or abs(n_out - n) > 1e-12 * n:
                problems.append(f"row {(n_out, z_out, lam_out)} where {(n, z, lam)} was due")
                continue
            if abs(asym - asymptote(z)) > 1e-15:
                problems.append(f"asymptote {asym!r} at zeta={z}")
            problems += optimum_problems(kind, n, z, lam, g, v)
        return problems

    return check


def check_scan_gamma(kind, n, zeta, lam, grid):
    def check(text):
        _, header, rows = parse_csv(text)
        if header != ["gamma", "value"] or len(rows) != grid:
            return [f"scan-gamma output has header {header} and {len(rows)} rows, expected {grid}"]
        problems = []
        for i, (g, v) in enumerate(rows):
            if abs(g - i / (grid - 1)) > 1e-15:
                problems.append(f"gamma {g!r} in row {i}")
            elif bad := value_problem(kind, g, n, zeta, lam, v):
                problems.append(bad)
        return problems

    return check


def check_scan_phase(kind, n, gamma, zeta, grid):
    step = 2 * math.pi / grid

    def check(text):
        _, header, rows = parse_csv(text)
        if header != ["theta", "phi", "value"] or len(rows) != grid * grid:
            return [f"scan-phase output has header {header} and {len(rows)} rows, expected {grid * grid}"]
        problems = []
        for idx, (theta, phi, v) in enumerate(rows):
            i, j = divmod(idx, grid)
            if abs(theta - i * step) > 1e-12 or abs(phi - j * step) > 1e-12:
                problems.append(f"row {idx} at ({theta!r}, {phi!r})")
            elif bad := value_problem(kind, gamma, n, zeta, 1.0, v, theta, phi):
                problems.append(bad)
        return problems

    return check


def zero_phase_expected(kind, n, gamma, zeta, grid):
    """Reference verdict: no phase on the grid beats theta = phi = 0."""
    step = 2 * math.pi / grid
    f0 = R.objective(kind, gamma, n, zeta, 1.0)
    slack = f0 * Decimal("1e-30")  # 50-digit rounding at symmetric grid points
    return all(
        R.objective(kind, gamma, n, zeta, 1.0, i * step, j * step) <= f0 + slack
        for i in range(grid)
        for j in range(grid)
    )


def oracle_problems(label, got, ref, scale):
    return [
        f"{label}[{i}]: {g!r} vs reference {float(r)!r}"
        for i, (g, r) in enumerate(zip(got, ref))
        if abs(Decimal(g) - r) > Decimal(ORACLE_TOL) * scale
    ]


def check_qfi_oracle(n, gamma, theta, phi, zeta, lam):
    def check(text):
        rec = {key: value for line in parse_records(text) for key, value in line.items()}
        closed = R.qfi_entries(R.probe_moments(n, gamma, 2 * zeta, theta, phi), zeta, lam)
        exact = R.qfi_entries(R.probe_moments(n, gamma, 2 * zeta, theta, phi, -1), zeta, lam)
        scale = max(Decimal(1), *(abs(x) for x in exact))
        problems = oracle_problems(
            "oracle (f_ll, f_zz, f_lz)", [float(rec[f"oracle_{k}"]) for k in ("f_ll", "f_zz", "f_lz")], exact, scale
        )
        if abs(float(rec["oracle_u_lz"])) > ORACLE_TOL * float(scale):
            problems.append(f"oracle u_lz={rec['oracle_u_lz']} is not ~0")
        if float(rec["u_lz"]) != 0.0:
            problems.append(f"closed-form u_lz={rec['u_lz']}")
        for key, kind in (("f_ll", R.F_LAMBDA), ("f_zz", R.F_ZETA)):
            if bad := value_problem(kind, gamma, n, zeta, lam, float(rec[key]), theta, phi):
                problems.append(bad)
        joint = R.joint_bound(*closed)
        if abs(Decimal(rec["scalar_bound_inverse"]) - joint) > Decimal(JOINT_REL_TOL) * joint:
            problems.append(f"scalar_bound_inverse={rec['scalar_bound_inverse']} vs reference {float(joint)!r}")
        return problems

    return check


def check_selftest(text):
    lines = text.splitlines()
    if not lines or lines[-1] != "OK":
        return [f"selftest ended with {lines[-1:] or 'nothing'}"]
    return [line for line in lines[:-1] if not line.startswith(("PASS ", "INFO "))]


# ---------------------------------------------------------------- workloads


def _logu(rng, lo, hi):
    return 10 ** rng.uniform(math.log10(lo), math.log10(hi))


def phase_scan(rng, cli):
    """scan-phase for both targets at zeta 2-5 and gamma in {0, mixed, 1};
    the mixed-gamma scans run at --jobs 2. Plus zero-phase optimality, and
    one fixed scan on whose grid moment_general raises a false consistency
    error (theta = pi, phi = pi/3 at k = 12). The seeded energies stay in
    [1, 4], where no order up to 10 trips that error on these grids."""
    grid = 30  # holds theta = pi and phi = pi/3
    argv = ["scan-phase", "--n", 10.0, "--gamma", 0.5, "--zeta", 6, "--target", R.F_LAMBDA, "--grid", grid]
    ops = [cli.op(argv, check_scan_phase(R.F_LAMBDA, 10.0, 0.5, 6, grid), RESIDUE_FAULT, ConsistencyAlarm)]
    for kind in (R.F_LAMBDA, R.F_ZETA):
        for zeta in (2, 3, 4, 5):
            for gamma, jobs in ((0.0, 1), (rng.uniform(0.35, 0.65), 2), (1.0, 1)):
                n = _logu(rng, 1.0, 4.0)
                grid = 32
                argv = ["scan-phase", "--n", repr(n), "--gamma", repr(gamma), "--zeta", zeta,
                        "--target", kind, "--grid", grid, "--jobs", jobs]
                ops.append(cli.op(argv, check_scan_phase(kind, n, gamma, zeta, grid)))
    for kind, zeta in ((R.F_LAMBDA, 2), (R.F_LAMBDA, 5), (R.F_ZETA, 3), (R.F_ZETA, 4)):
        n, gamma, grid = _logu(rng, 1.0, 4.0), rng.uniform(0.35, 0.65), 24
        ops.append(_zero_phase_op(kind, n, gamma, zeta, grid))
    return ops


def _zero_phase_op(kind, n, gamma, zeta, grid):
    def call():
        opt = importlib.import_module("nlprobe.optimizer")
        qfi = importlib.import_module("nlprobe.qfi_core")
        model = qfi.ModelSpec(lambda_eff=1.0, zeta=zeta)
        return opt.verify_zero_phase_optimality(n, gamma, model, grid, opt.TargetKind(kind))

    def check(out):
        want = zero_phase_expected(kind, n, gamma, zeta, grid)
        return [] if out is want else [f"verify_zero_phase_optimality returned {out}, reference says {want}"]

    return Op(f"verify_zero_phase_optimality({n!r}, {gamma!r}, zeta={zeta}, grid={grid}, {kind})", call, check)


def gamma_opt(rng, cli):
    """opt-gamma, threshold and scan-gamma for f_lambda / f_zeta inside the
    documented double-precision envelope (zeta <= 12, N <= 1e3). Threshold
    searches keep their default range: how many bisection steps they take
    depends on it."""
    ops = []
    for kind in (R.F_LAMBDA, R.F_ZETA):
        for zeta in range(2, 13):
            lo, hi, count = _logu(rng, 1e-3, 2e-3), _logu(rng, 5e2, 1e3), 17
            argv = ["opt-gamma", "--target", kind, "--zeta", zeta, "--n-range", f"{lo!r}:{hi!r}:{count}"]
            ops.append(cli.op(argv, check_opt_gamma(kind, [zeta], [1.0], lo, hi, count)))
    for kind in (R.F_LAMBDA, R.F_ZETA):
        for zeta in range(2, 13):
            argv = ["threshold", "--target", kind, "--zeta", zeta]
            ops.append(cli.op(argv, check_threshold(kind, zeta, [1.0], 1e-4, 1e3)))
    for kind, zeta in ((R.F_LAMBDA, 2), (R.F_LAMBDA, 7), (R.F_LAMBDA, 12), (R.F_ZETA, 3), (R.F_ZETA, 8), (R.F_ZETA, 12)):
        n, grid = _logu(rng, 1e-2, 1e2), 1601
        argv = ["scan-gamma", "--n", repr(n), "--zeta", zeta, "--target", kind, "--grid", grid]
        ops.append(cli.op(argv, check_scan_gamma(kind, n, zeta, 1.0, grid)))
    return ops


def joint_high_n(rng, cli):
    """threshold and opt-gamma for the joint bound up to N = 1e6, where the
    optimizer re-assembles the bound at 40 digits. Every operation does
    about the same work (about 1.4 s at the reference speed), so that op_p50_s
    falls inside one size: thresholds over 1e-4..1e6 with their sample
    counts, opt-gamma with its row counts set to match.

    The first two operations are the fixed inputs on which the joint-bound
    fault shows; every row of the opt-gamma one is wrong today. How often
    the 40-digit path runs depends on N, so only the double-precision
    operation (N <= 1e2) takes its energies from the seed."""
    lambdas = [0.01, 1.0, 100.0]

    def threshold(zeta, lam, samples, fault="", symptom=None):
        argv = ["threshold", "--target", "joint", "--zeta", zeta, "--lambda", lam, "--n-hi", 1e6, "--samples", samples]
        return cli.op(argv, check_threshold(R.JOINT, zeta, [lam], 1e-4, 1e6), fault, symptom)

    def opt_gamma(zetas, lams, lo, hi, count, fault="", symptom=None):
        argv = ["opt-gamma", "--target", "joint", "--zeta", *zetas, "--lambda", *lams, "--n-range", f"{lo!r}:{hi!r}:{count}"]
        return cli.op(argv, check_opt_gamma(R.JOINT, zetas, lams, lo, hi, count), fault, symptom)

    lo, hi = _logu(rng, 1e-2, 2e-2), _logu(rng, 50.0, 100.0)
    return [
        threshold(3, 1.0, 21, JOINT_FAULT, SpuriousThreshold),
        opt_gamma([4], [1.0], 1e3, 1e6, 7, JOINT_FAULT, WrongOptimum),
        threshold(4, 1.0, 21),
        threshold(5, 100.0, 15),
        threshold(6, 1.0, 12),
        threshold(2, 0.01, 51),
        opt_gamma([2], lambdas, 1e4, 1e6, 4),
        opt_gamma([3, 4, 5, 6], lambdas, lo, hi, 32),
    ]


def oracle_verify(rng, cli):
    """Fock-space oracle: qfi --oracle, selftest, and direct oracle calls at
    probes of a few photons, pure and mixed, against the beta_sign = -1
    reference (the family that describes the state the oracle builds).

    The oracle's cost is set by the cutoffs it reaches, which jump by powers
    of two with the probe. The seed therefore only rotates each probe as a
    whole (theta + 2 delta, phi + delta), which leaves its photon-number
    distribution, and so the cutoffs, unchanged. Nine of the thirteen
    operations take 25-40 ms, so that op_p50_s falls inside that group and
    not next to the few larger ones (selftest, the 3-4 photon probes)."""

    def rotated(theta, phi):
        delta = rng.uniform(0, 2 * math.pi)
        return (theta + 2 * delta) % (2 * math.pi), (phi + delta) % (2 * math.pi)

    ops = []
    for n, gamma, theta, phi, zeta, lam in (
        (1.0, 0.0, 0.0, 0.0, 2, 1.0),
        (2.0, 1.0, 0.9, 0.0, 2, 0.1),
        (1.5, 0.5, 0.2, 5.8, 2, 0.1),
        (2.0, 0.5, 0.1, 5.7, 3, 0.05),
        (1.0, 0.0, 0.3, 0.0, 3, 1.0),
        (1.0, 0.5, 0.2, 5.8, 2, 0.1),
    ):
        theta, phi = rotated(theta, phi)
        argv = ["qfi", "--n", repr(n), "--gamma", repr(gamma), "--theta", repr(theta), "--phi", repr(phi),
                "--zeta", zeta, "--lambda", lam, "--oracle"]
        ops.append(cli.op(argv, check_qfi_oracle(n, gamma, theta, phi, zeta, lam)))
    ops.append(cli.op(["selftest"], check_selftest))
    for n, gamma, theta, phi, k_max in (
        (1.0, 0.42, 1.5, 1.3, 8),
        (3.0, 0.48, 3.7, 5.8, 12),
        (1.5, 0.45, 2.0, 1.0, 8),
        (2.0, 0.4, 2.0, 1.0, 8),
    ):
        ops.append(_moments_op(n, gamma, *rotated(theta, phi), k_max))
    for n, gamma, theta, zeta, lam in ((3.0, 0.37, 1.0, 2, 0.1), (4.0, 0.35, 1.3, 2, 0.1)):
        ops.append(_oracle_qfi_op(n, gamma, *rotated(theta, 0.0), zeta, lam))
    return ops


def _moments_op(n, gamma, theta, phi, k_max):
    def call():
        probe = importlib.import_module("nlprobe.probe")
        oracle = importlib.import_module("nlprobe.fock_oracle")
        return [float(x) for x in oracle.converged_moments(probe.make_probe(n, gamma, theta, phi), k_max)]

    def check(out):
        ref = R.probe_moments(n, gamma, k_max, theta, phi, -1)
        return [p for k, (g, r) in enumerate(zip(out, ref)) for p in oracle_problems(f"M_{k}", [g], [r], max(Decimal(1), abs(r)))]

    return Op(f"converged_moments({n!r}, {gamma!r}, {theta!r}, {phi!r}, k_max={k_max})", call, check)


def _oracle_qfi_op(n, gamma, theta, phi, zeta, lam):
    def call():
        probe = importlib.import_module("nlprobe.probe")
        oracle = importlib.import_module("nlprobe.fock_oracle")
        qfi = importlib.import_module("nlprobe.qfi_core")
        return oracle.qfi_matrix_oracle(probe.make_probe(n, gamma, theta, phi), qfi.ModelSpec(lam, zeta)).as_tuple()

    def check(out):
        exact = R.qfi_entries(R.probe_moments(n, gamma, 2 * zeta, theta, phi, -1), zeta, lam)
        scale = max(Decimal(1), *(abs(x) for x in exact))
        problems = oracle_problems("qfi_matrix_oracle", out[:3], exact, scale)
        if abs(out[3]) > ORACLE_TOL * float(scale):
            problems.append(f"u_lz={out[3]!r} is not ~0")
        return problems

    return Op(f"qfi_matrix_oracle({n!r}, {gamma!r}, {theta!r}, {phi!r}, zeta={zeta}, lambda={lam})", call, check)


BUILDERS = {
    "phase_scan": phase_scan,
    "gamma_opt": gamma_opt,
    "joint_high_n": joint_high_n,
    "oracle_verify": oracle_verify,
}


def build(workload, seed, tmpdir):
    rng = random.Random(f"{workload}:{seed}")
    return BUILDERS[workload](rng, Cli(tmpdir))
