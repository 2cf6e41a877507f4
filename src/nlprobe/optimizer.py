"""Numerical search for the optimal squeezing fraction at fixed probe energy.

The figures of merit are unimodal in gamma in every regime we have probed,
but unimodality is never assumed blindly: the coarse grid is scanned for
all local maxima and up to three of them are refined before the best is
accepted.
"""

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalRangeError, ThresholdAmbiguousError
from .probe import make_probe
from .qfi_core import ModelSpec, _joint_bound_mp, normal_law_grid, normal_law_qfi, qfi_lambda, qfi_zeta

__all__ = [
    "TargetKind",
    "OptTarget",
    "GammaOptResult",
    "objective",
    "objective_grid",
    "optimize_gamma",
    "find_threshold",
    "verify_zero_phase_optimality",
]

BOUNDARY_TOL = 1e-6  # gamma_opt >= 1 - BOUNDARY_TOL counts as the squeezed-vacuum boundary
THRESHOLD_N_LO = 1e-4  # default lower end of the threshold search
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
OVERFLOW_MESSAGE = (
    "objective overflowed double precision; reduce the probe energy or use the extended-precision mode"
)


class TargetKind(enum.Enum):
    F_LAMBDA = "f_lambda"
    F_ZETA = "f_zeta"
    JOINT_BOUND = "joint"


_ENTRY = {TargetKind.F_LAMBDA: 0, TargetKind.F_ZETA: 1, TargetKind.JOINT_BOUND: 2}  # in normal_law_qfi


@dataclass(frozen=True)
class OptTarget:
    kind: TargetKind
    model: ModelSpec

    def __post_init__(self):
        if self.kind is TargetKind.JOINT_BOUND and self.model.lambda_eff <= 0:
            raise DomainError(
                "joint-bound optimization needs lambda > 0, otherwise the order "
                "carries no information and the bound degenerates"
            )


@dataclass(frozen=True)
class GammaOptResult:
    gamma_opt: float
    objective_value: float
    at_boundary: bool
    n_total: float


def objective(
    gamma: float,
    n_total: float,
    target: OptTarget,
    theta: float = 0.0,
    phi: float = 0.0,
    *,
    extended: bool = False,
) -> float:
    """Figure of merit as a function of the squeezing fraction.

    In double precision every phase and target goes through
    qfi_core.normal_law_qfi; extended mode sums the general-phase moments
    at 40 digits.
    """
    kind, model = target.kind, target.model
    probe = make_probe(n_total, gamma, theta, phi)
    if not extended:
        return normal_law_qfi(probe, model)[_ENTRY[kind]]
    if kind is TargetKind.F_LAMBDA:
        return qfi_lambda(probe, model, extended=True)
    if kind is TargetKind.F_ZETA:
        return qfi_zeta(probe, model, extended=True)
    return _joint_bound_mp(probe, model)


def objective_grid(gammas, n_total: float, target: OptTarget, theta: float = 0.0, phi: float = 0.0) -> list:
    """The double-precision objective at every squeezing fraction of gammas, in one pass.

    Bit for bit the values objective gives point by point, and at the first
    point where it raises, the same error (qfi_core.normal_law_grid).
    """
    return normal_law_grid(n_total, gammas, theta, phi, target.model)[_ENTRY[target.kind]].tolist()


def _golden_max(fun, lo, hi, tol):
    c = hi - GOLDEN * (hi - lo)
    d = lo + GOLDEN * (hi - lo)
    fc, fd = fun(c), fun(d)
    while hi - lo > tol:
        if fc > fd:
            hi, d, fd = d, c, fc
            c = hi - GOLDEN * (hi - lo)
            fc = fun(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + GOLDEN * (hi - lo)
            fd = fun(d)
    return 0.5 * (lo + hi)


def optimize_gamma(
    n_total: float,
    target: OptTarget,
    theta: float = 0.0,
    phi: float = 0.0,
    *,
    coarse: int = 129,
    gamma_tol: float = 1e-6,
    extended: bool = False,
) -> GammaOptResult:
    """Maximize the target over gamma in [0, 1] to absolute tolerance 1e-6.

    Strategy: a coarse bracketing grid (at least 64 points, in double
    precision evaluated in one pass by objective_grid), then golden-section
    refinement of up to three local-maximum brackets; the
    best refined point wins. Guaranteed for unimodal objectives, and the
    multi-bracket restart guards against undetected multimodality.
    """
    if n_total <= 0:
        raise DomainError("optimize_gamma requires n_total > 0")
    if coarse < 64:
        raise DomainError("coarse grid must have at least 64 points")

    def fun(g):
        try:
            return objective(g, n_total, target, theta, phi, extended=extended)
        except OverflowError as exc:
            raise NumericalRangeError(OVERFLOW_MESSAGE) from exc

    grid = [i / (coarse - 1) for i in range(coarse)]
    if extended:
        vals = [fun(g) for g in grid]
    else:
        try:
            vals = objective_grid(grid, n_total, target, theta, phi)
        except OverflowError as exc:
            raise NumericalRangeError(OVERFLOW_MESSAGE) from exc
    if not all(math.isfinite(v) for v in vals):
        raise NumericalRangeError(
            "objective is not finite on the coarse grid; the probe energy or "
            "order likely exceeds the double-precision budget (try extended mode)"
        )

    def is_local_max(i):
        left_ok = i == 0 or vals[i] >= vals[i - 1]
        right_ok = i == coarse - 1 or vals[i] >= vals[i + 1]
        return left_ok and right_ok

    candidates = sorted(
        (i for i in range(coarse) if is_local_max(i)),
        key=lambda i: vals[i],
        reverse=True,
    )[:3]

    best_g, best_v = None, -math.inf
    for i in candidates:
        lo = grid[max(i - 1, 0)]
        hi = grid[min(i + 1, coarse - 1)]
        g = _golden_max(fun, lo, hi, gamma_tol) if hi > lo else grid[i]
        v = fun(g)
        if v > best_v:
            best_g, best_v = g, v
    # grid endpoints can beat the refined interior value when the maximum
    # sits exactly on the boundary
    for edge in (0, coarse - 1):
        if vals[edge] >= best_v:
            best_g, best_v = grid[edge], vals[edge]

    return GammaOptResult(
        gamma_opt=best_g,
        objective_value=best_v,
        at_boundary=best_g >= 1.0 - BOUNDARY_TOL,
        n_total=n_total,
    )


def find_threshold(
    target: OptTarget,
    theta: float = 0.0,
    phi: float = 0.0,
    *,
    n_lo: float = THRESHOLD_N_LO,
    n_hi: float = 1e3,
    rel_tol: float = 1e-4,
    samples: int = 15,
    extended: bool = False,
) -> float:
    """Energy below which pure squeezed vacuum (gamma = 1) is optimal.

    Returns sup{N : gamma_opt(N) = 1}, located by geometric bisection on the
    boundary indicator. The indicator is first sampled on a log grid to
    validate that it crosses from True to False exactly once; several
    crossings raise ThresholdAmbiguousError listing them all. If the
    indicator never turns False the target has no threshold in the searched
    range and math.inf is returned as a sentinel. The bisection stops at
    rel_tol (finite, > 0) or when the bracket is two adjacent doubles.
    """
    if samples < 2 or not 0 < n_lo < n_hi:
        raise DomainError(f"threshold search needs samples >= 2 and 0 < n_lo < n_hi, got {samples} {n_lo} {n_hi}")
    if not 0 < rel_tol < math.inf:
        raise DomainError(f"threshold search needs a finite rel_tol > 0, got {rel_tol}")

    def at_boundary(n):
        return optimize_gamma(n, target, theta, phi, extended=extended).at_boundary

    ratio = (n_hi / n_lo) ** (1.0 / (samples - 1))
    ns = [n_lo * ratio**i for i in range(samples)]
    flags = [at_boundary(n) for n in ns]

    if not flags[0]:
        raise ThresholdAmbiguousError(
            f"gamma_opt already interior at N={n_lo}; lower n_lo to bracket the threshold"
        )
    crossings = [
        (ns[i], ns[i + 1]) for i in range(samples - 1) if flags[i] != flags[i + 1]
    ]
    if len(crossings) > 1:
        raise ThresholdAmbiguousError(
            "boundary indicator is not monotone on the sampling grid", crossings=crossings
        )
    if not crossings:
        return math.inf  # squeezed vacuum optimal everywhere sampled

    lo, hi = crossings[0]
    while hi / lo - 1.0 > rel_tol:
        mid = math.sqrt(lo * hi)
        if not lo < mid < hi:  # lo and hi are adjacent doubles: the bracket cannot shrink
            break
        if at_boundary(mid):
            lo = mid
        else:
            hi = mid
    return math.sqrt(lo * hi)


def verify_zero_phase_optimality(
    n_total: float,
    gamma: float,
    model: ModelSpec,
    grid: int,
    kind: TargetKind = TargetKind.F_LAMBDA,
) -> bool:
    """True iff the zero-phase probe maximizes the QFI element on a phase grid.

    Checks F(theta=0, phi=0) >= F(theta_i, phi_j) - 1e-9 over a grid x grid
    sweep of both phases across [0, 2 pi), in double precision, the whole
    grid in one pass (qfi_core.normal_law_grid).
    """
    if grid < 8:
        raise DomainError("phase grid must have at least 8 points per axis")
    if kind is TargetKind.JOINT_BOUND:
        raise DomainError("phase-optimality check applies to individual QFI elements")
    ref = normal_law_qfi(make_probe(n_total, gamma), model)[_ENTRY[kind]]
    phases = np.arange(grid) * (2.0 * math.pi / grid)
    vals = normal_law_grid(n_total, gamma, phases[:, None], phases, model)[_ENTRY[kind]]
    return not np.any(vals > ref + 1e-9)
