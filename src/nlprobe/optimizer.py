"""Numerical search for the optimal squeezing fraction at fixed probe energy.

The figures of merit are unimodal in gamma in every regime we have probed,
but unimodality is never assumed blindly: the coarse grid is scanned for
all local maxima and up to three of them are refined before the best is
accepted. An interior candidate is refined by Brent's method (golden and
parabolic steps; R. P. Brent, Algorithms for Minimization without
Derivatives, 1973) between its grid neighbours. A candidate at a grid end
costs one kernel call GAMMA_TOL inside the end; where the objective there
is not higher than at the end, the end takes the candidate, and only
otherwise is its cell refined. The joint bound's end cells are always
refined: it can dip within GAMMA_TOL of gamma = 1 and peak inside the
last cell. The objective, the optimizer and the threshold search work at
zero phases, where the optimal probe lies (verify_zero_phase_optimality).
"""

import enum
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalRangeError, ThresholdAmbiguousError
from .qfi_core import ModelSpec, _normal_law_arrays, _normal_law_kernel, normal_law_grid

__all__ = [
    "TargetKind",
    "OptTarget",
    "GammaOptResult",
    "objective",
    "objective_grid",
    "optimize_gamma",
    "optimize_gamma_grid",
    "find_threshold",
    "verify_zero_phase_optimality",
]

THRESHOLD_N_LO = 1e-4  # lower end of the threshold search
COARSE = 129  # points of the coarse gamma grid
# absolute tolerance on gamma: Brent's method ends within GAMMA_TOL / 5 of the maximum
# (its tol is GAMMA_TOL / 10), and the end test calls the kernel GAMMA_TOL inside an end
GAMMA_TOL = 1e-6
_GRID = tuple(i / (COARSE - 1) for i in range(COARSE))  # Python floats, which GammaOptResult may hold
CGOLD = (3.0 - math.sqrt(5.0)) / 2.0  # Brent's golden-section fraction
SQRT_EPS = math.sqrt(sys.float_info.epsilon)  # Brent's relative tolerance on gamma
BISECTION_LEVELS = 3  # find_threshold fills the 2**3 - 1 = 7 midpoints of three levels in one table
OVERFLOW_MESSAGE = "objective overflowed double precision; reduce the probe energy, the order or the coupling"


class TargetKind(enum.Enum):
    F_LAMBDA = "f_lambda"
    F_ZETA = "f_zeta"
    JOINT_BOUND = "joint"


# the objective's index in the entries (f_ll, f_zz, f_lz, det F / tr F) of qfi_core._normal_law_kernel
_ENTRY = {TargetKind.F_LAMBDA: 0, TargetKind.F_ZETA: 1, TargetKind.JOINT_BOUND: 3}


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


def objective(gamma: float, n_total: float, target: OptTarget) -> float:
    """Figure of merit as a function of the squeezing fraction, at zero phases.

    Every target goes through the scalar kernel
    qfi_core._normal_law_kernel, the one that Brent's method and the end
    test of optimize_gamma_grid call, asked for the target's entry alone:
    f_lambda evaluates V, f_zeta W, and the joint bound V, W and G. It raises
    OverflowError only where that entry does not fit in double.
    """
    kernel = _normal_law_kernel(float(n_total), 0.0, 0.0, target.model, entry=_ENTRY[target.kind])
    return kernel(float(gamma))


def objective_grid(gammas, n_total: float, target: OptTarget) -> list:
    """The objective at every squeezing fraction of gammas, in one pass.

    Bit for bit the values objective gives point by point, and at the first
    point where it raises, the same error (qfi_core.normal_law_grid).
    """
    return normal_law_grid(n_total, gammas, 0.0, 0.0, target.model, entries=(_ENTRY[target.kind],))[0].tolist()


def _brent_max(fun, a, b, x, fx):
    """(x, fun(x)) at the maximum of fun on [a, b] by Brent's method,
    started at a point x of [a, b] where fun(x) = fx is known.

    Brent (1973), chapter 5, for a maximum: each step takes the vertex of
    the parabola through the three best points x, w and v if it lies inside
    [a, b] and moves less than half the step before last, and otherwise a
    golden-section step into the larger part of [a, b]. No step is shorter
    than tol = SQRT_EPS |x| + GAMMA_TOL / 10, and it stops once [a, b] lies
    within 2 tol of x. A tenth of GAMMA_TOL, not the third of scipy's
    fminbound: near gamma = 1 the joint bound can peak so sharply that
    missing its maximum by GAMMA_TOL / 2 costs more than 1e-10 of it.
    """
    v = w = x
    fv = fw = fx
    d = e = 0.0
    while True:
        m = 0.5 * (a + b)
        tol = SQRT_EPS * abs(x) + GAMMA_TOL / 10.0
        tol2 = 2.0 * tol
        if abs(x - m) <= tol2 - 0.5 * (b - a):
            return x, fx
        if abs(e) > tol:  # the parabola through x, w and v
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            e_prev, e = e, d
            parabolic = abs(p) < abs(0.5 * q * e_prev) and q * (a - x) < p < q * (b - x)
        else:
            parabolic = False
        if parabolic:
            d = p / q
            u = x + d
            if u - a < tol2 or b - u < tol2:  # too close to an end: tol towards the middle
                d = tol if x <= m else -tol
        else:
            e = (a if x >= m else b) - x
            d = CGOLD * e
        u = x + d if abs(d) >= tol else x + (tol if d >= 0.0 else -tol)
        fu = fun(u)
        if fu >= fx:
            if u < x:
                b = x
            else:
                a = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu >= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu >= fv or v == x or v == w:
                v, fv = u, fu


def _local_maxima(table):
    """Flags of the points of each row that are >= both neighbours (the ends need one)."""
    flags = np.ones(table.shape, dtype=bool)
    flags[:, 1:] &= table[:, 1:] >= table[:, :-1]
    flags[:, :-1] &= table[:, :-1] >= table[:, 1:]
    return flags


def _row_solver(ns, target):
    """solve(i) = optimize_gamma(ns[i], ...), with the coarse grids of all
    energies in one table that raises nothing: solve(i) checks ns[i] and
    raises optimize_gamma's errors, so rows never solved may hold bad points.
    A row with a bad point goes to qfi_core.normal_law_grid, which raises the
    error that a loop over its points meets first.
    """
    model, entry = target.model, _ENTRY[target.kind]
    one_sided = target.kind is not TargetKind.JOINT_BOUND  # the end test, which the joint bound's dip defeats
    (table,), ok = _normal_law_arrays(np.array(ns, dtype=float)[:, None], _GRID, 0.0, 0.0, model, (entry,))
    rows_ok = ok.all(axis=1).tolist()
    flags = _local_maxima(table)

    def solve(i):
        n = ns[i]
        if n <= 0:
            raise DomainError("optimize_gamma requires n_total > 0")
        try:
            if not rows_ok[i]:  # normal_law_grid raises the error that a loop over the row meets first
                normal_law_grid(n, _GRID, 0.0, 0.0, model, entries=(entry,))
            kernel = _normal_law_kernel(float(n), 0.0, 0.0, model, entry=entry)
            vals = table[i].tolist()
            candidates = sorted(np.flatnonzero(flags[i]).tolist(), key=vals.__getitem__, reverse=True)[:3]

            best_g, best_v = None, -math.inf
            for j in candidates:
                if 0 < j < COARSE - 1:  # Brent starts CGOLD into the bracket of the grid neighbours
                    lo, hi = _GRID[j - 1], _GRID[j + 1]
                    x = lo + CGOLD * (hi - lo)
                    fx = kernel(x)
                else:  # an end: one call GAMMA_TOL inside it, where Brent starts if the cell is refined
                    lo, hi = _GRID[:2] if j == 0 else _GRID[-2:]
                    x = lo + GAMMA_TOL if j == 0 else hi - GAMMA_TOL
                    fx = kernel(x)
                    if one_sided and fx <= vals[j]:
                        continue  # the objective rises into the end: the endpoint comparison takes it
                g, v = _brent_max(kernel, lo, hi, x, fx)
                if v > best_v:
                    best_g, best_v = g, v
        except OverflowError as exc:
            raise NumericalRangeError(OVERFLOW_MESSAGE) from exc
        # grid endpoints can beat the refined interior value when the maximum
        # sits exactly on the boundary
        for edge in (0, COARSE - 1):
            if vals[edge] >= best_v:
                best_g, best_v = _GRID[edge], vals[edge]
        return GammaOptResult(best_g, best_v, best_g == 1.0, n)

    return solve


def optimize_gamma_grid(ns, target: OptTarget) -> list:
    """optimize_gamma at every energy of ns, as a list of GammaOptResult.

    One pass of qfi_core.normal_law_grid fills the len(ns) x COARSE table
    of the coarse grids and numpy flags the local maxima of every row at
    once. Each row's candidates are then refined through the scalar kernel
    of that row's energy (qfi_core._normal_law_kernel): an interior one by
    Brent's method between its grid neighbours, an end by one call
    GAMMA_TOL inside it, and by Brent's method on its cell only where that
    call is higher than the end or the target is the joint bound. Table
    and refinement evaluate the target's entry alone (objective). Results
    and errors are those of a loop over the energies: the rows are checked
    and refined in order, and a row on which the table holds a bad point
    goes to normal_law_grid, which raises the error that point raises on
    its own.
    """
    ns = list(ns)
    if not ns:
        return []
    solve = _row_solver(ns, target)
    return [solve(i) for i in range(len(ns))]


def optimize_gamma(n_total: float, target: OptTarget) -> GammaOptResult:
    """Maximize the target over gamma in [0, 1] to absolute tolerance GAMMA_TOL.

    Strategy: a coarse bracketing grid of COARSE points, then Brent's
    method on up to three local-maximum brackets, an end candidate costing
    one kernel call GAMMA_TOL inside the end where the objective rises into
    it (f_lambda and f_zeta); the best refined point wins, unless a grid
    endpoint is at least as good. Guaranteed for objectives unimodal on each
    bracket, and the multi-bracket restart guards against undetected
    multimodality. at_boundary is True exactly when the gamma = 1 endpoint
    won that comparison (gamma_opt == 1.0). This is
    optimize_gamma_grid([n_total], ...)[0].
    """
    return optimize_gamma_grid([n_total], target)[0]


def find_threshold(target: OptTarget, *, n_hi: float = 1e3, rel_tol: float = 1e-4, samples: int = 15) -> float:
    """Energy below which pure squeezed vacuum (gamma = 1) is optimal.

    Returns sup{N : gamma_opt(N) = 1} in [THRESHOLD_N_LO, n_hi], located by
    geometric bisection on the boundary indicator GammaOptResult.at_boundary
    (the gamma = 1 endpoint wins the final comparison of optimize_gamma).
    The indicator is first sampled on a log grid, all samples in one
    optimize_gamma_grid call, to validate that it crosses from True to False
    exactly once; several crossings raise ThresholdAmbiguousError listing
    them all. If the
    indicator never turns False the target has no threshold in the searched
    range and math.inf is returned as a sentinel. The bisection stops at
    rel_tol (finite, > 0) or when the bracket is two adjacent doubles. It
    fills the midpoints of its next BISECTION_LEVELS steps in one table and
    refines only those it visits, so its brackets and result are those of
    one optimize_gamma per step.
    """
    if samples < 2 or not THRESHOLD_N_LO < n_hi:
        raise DomainError(f"threshold search needs samples >= 2 and n_hi > {THRESHOLD_N_LO}, got {samples} {n_hi}")
    if not 0 < rel_tol < math.inf:
        raise DomainError(f"threshold search needs a finite rel_tol > 0, got {rel_tol}")

    ratio = (n_hi / THRESHOLD_N_LO) ** (1.0 / (samples - 1))
    ns = [THRESHOLD_N_LO * ratio**i for i in range(samples)]
    flags = [res.at_boundary for res in optimize_gamma_grid(ns, target)]

    if not flags[0]:
        raise ThresholdAmbiguousError(f"gamma_opt already interior at N={THRESHOLD_N_LO}, the lower end of the search")
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
        # the midpoints of the next BISECTION_LEVELS steps in heap order: node j
        # bisects brackets[j], its children are 2j+1 (lo = mid) and 2j+2 (hi = mid)
        brackets, mids = [(lo, hi)], []
        while len(mids) < 2**BISECTION_LEVELS - 1:
            a, b = brackets[len(mids)]
            mids.append(math.sqrt(a * b))
            brackets += [(mids[-1], b), (a, mids[-1])]
        solve = _row_solver(mids, target)
        j = 0
        while j < len(mids) and hi / lo - 1.0 > rel_tol:
            mid = mids[j]
            if not lo < mid < hi:  # lo and hi are adjacent doubles: the bracket cannot shrink
                return math.sqrt(lo * hi)
            if solve(j).at_boundary:
                lo, j = mid, 2 * j + 1
            else:
                hi, j = mid, 2 * j + 2
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
    sweep of both phases across [0, 2 pi), the whole grid in one pass
    (qfi_core.normal_law_grid); the reference is its zero-phase cell.
    """
    if grid < 8:
        raise DomainError("phase grid must have at least 8 points per axis")
    if kind is TargetKind.JOINT_BOUND:
        raise DomainError("phase-optimality check applies to individual QFI elements")
    phases = np.arange(grid) * (2.0 * math.pi / grid)
    (vals,) = normal_law_grid(n_total, gamma, phases[:, None], phases, model, entries=(_ENTRY[kind],))
    return not np.any(vals > vals[0, 0] + 1e-9)
