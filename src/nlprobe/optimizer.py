"""Numerical search for the optimal squeezing fraction at fixed probe energy.

The figures of merit are unimodal in gamma in every regime we have probed,
but unimodality is never assumed blindly: the coarse grid is scanned for
all local maxima and up to three of them are refined before the best is
accepted. An interior candidate is refined by Brent's method (golden and
parabolic steps; R. P. Brent, Algorithms for Minimization without
Derivatives, 1973) between its grid neighbours. One end test serves both
ends and every target (_screen): a few kernel calls next to the end, and
the end's cell refined from the best of them only where it beats the end.
At gamma = 0 that is one call GAMMA_TOL inside the end, and Brent's method
on the first cell. At gamma = 1 it is that call and one at y = Y0 =
sqrt(7/48) coherent photons, y = (1 - gamma) N, where that lies inside the
last cell, which is refined in log y: an objective can dip within
GAMMA_TOL of gamma = 1 and still peak in the last cell, as the joint bound
does at zeta = 3, where its peak tends to y = Y0 as N grows, about 1/N
wide in gamma. A maximum that the bracket next to gamma = 1 finds in the
last cell is refined in log y too. The better grid end, gamma = 1 on a
tie, is the incumbent, and a refined point replaces it only where it is
strictly higher. The objective, the optimizer and the threshold search
work at zero phases. For f_lambda and f_zeta the optimal probe lies there,
which verify_zero_phase_optimality checks on a grid of phases; that check
refuses the joint bound, whose zero phase is unchecked (ROADMAP item 14).
numpy is imported by the functions that build arrays, so that a scalar call
never loads it.
"""

import contextlib
import enum
import math
import sys
from dataclasses import dataclass

from .combinatorics import normal_law_polynomials
from .errors import DomainError, ThresholdAmbiguousError
from .qfi_core import _ENTRIES, ModelSpec, _normal_law_arrays, _normal_law_kernel, normal_law_grid

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
SQRT_EPS = math.sqrt(sys.float_info.epsilon)  # Brent's relative tolerance on its variable
BISECTION_LEVELS = 3  # the joint target's bisection fills the 2**3 - 1 = 7 midpoints of three levels in one table
THRESHOLD_REL_TOL = 1e-4  # relative bracket width at which the joint target's bisection stops
# coherent photons y = (1 - gamma) N at the joint bound's maximum inside its last grid cell as N -> inf at
# zeta = 3, where the bound over its value at gamma = 1 is 1 - (2 y + 7 / (24 y)) / N + O(N^-2)
Y0 = math.sqrt(7.0 / 48.0)


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
    missing its maximum by GAMMA_TOL / 2 costs more than 1e-10 of it. In
    _refine_in_y, x is log y, and tol bounds the relative error in y.
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


def _refine_in_y(kernel, n, x, fx):
    """(gamma, value) at a maximum of the objective in its last grid cell
    [1 - 1/(COARSE - 1), 1] at energy n, by Brent's method from a point x of
    the cell where kernel(x) = fx.

    Brent runs in s = log y, y = (1 - gamma) n the coherent photon number,
    over y from n 2**-53 (the double below 1) to the cell's other end, so
    that a peak about 1/n wide in gamma is resolved to a relative tolerance
    in y.
    """
    s0 = math.log((1.0 - x) * n)
    s, v = _brent_max(
        lambda s: kernel(1.0 - math.exp(s) / n), math.log(n * 2.0**-53), math.log(n * (1.0 - _GRID[-2])), s0, fx
    )
    return (x if s == s0 else 1.0 - math.exp(s) / n), v


def _screen(kernel, points, end):
    """(x, kernel(x)) at the best of the screening points, the first of equal
    values, where that value beats end, the objective at the grid end they
    lie next to, and None otherwise: the end test of both grid ends."""
    x, fx = max(((g, kernel(g)) for g in points), key=lambda point: point[1])
    return (x, fx) if fx > end else None


def _local_maxima(table):
    """Flags of the points of each row that are > their left neighbour and >= their right one (the ends
    need one): a plateau is flagged at its first point alone, so a flat row has one candidate, gamma = 0."""
    import numpy as np

    flags = np.ones(table.shape, dtype=bool)
    flags[:, 1:] &= table[:, 1:] > table[:, :-1]
    flags[:, :-1] &= table[:, :-1] >= table[:, 1:]
    return flags


class _EndLost(Exception):
    """Raised by an indicator row's kernel at a value above the gamma = 1 end, which settles the row as False."""


def _row_solver(ns, target, indicator=False):
    """solve(i) = optimize_gamma(ns[i], ...), with the coarse grids of all
    energies in one table that raises nothing: solve(i) checks ns[i] and
    raises optimize_gamma's errors, so rows never solved may hold bad points.
    A row with a bad point goes to qfi_core.normal_law_grid, which raises the
    error that a loop over its points meets first.

    With indicator, solve(i) = optimize_gamma(ns[i], ...).at_boundary, the
    one bit find_threshold reads, which stops once the gamma = 1 end has
    lost: the incumbent is the better grid end, a refined point replaces it
    only where strictly higher, no refinement returns gamma = 1, and each
    returns at least every value it evaluates. So after the same checks a
    row is False where vals[0] > vals[-1], with no kernel call, or at the
    first kernel value above vals[-1]; it is True only after its full
    refinement.
    """
    import numpy as np

    model, entry = target.model, _ENTRY[target.kind]
    (table,), ok = _normal_law_arrays(np.array(ns, dtype=float)[:, None], _GRID, 0.0, 0.0, model, (entry,))
    rows_ok = ok.all(axis=1).tolist()
    flags = _local_maxima(table)

    def solve(i):
        n = ns[i]
        if n <= 0:
            raise DomainError("optimize_gamma requires n_total > 0")
        if not rows_ok[i]:  # normal_law_grid raises the error that a loop over the row meets first
            normal_law_grid(n, _GRID, 0.0, 0.0, model, entries=(entry,))
        vals = table[i].tolist()
        if indicator and vals[0] > vals[-1]:  # gamma = 1 is not the incumbent
            return False
        kernel = _normal_law_kernel(float(n), 0.0, 0.0, model, entry=entry)
        if indicator:
            kernel = _losing_end(kernel, vals[-1])
        candidates = sorted(np.flatnonzero(flags[i]).tolist(), key=vals.__getitem__, reverse=True)[:3]

        best_v, best_g = max((vals[0], 0.0), (vals[-1], 1.0))  # the better grid end, gamma = 1 on a tie
        try:
            for j in candidates:
                if j == 0:  # Brent on the first cell from one call GAMMA_TOL inside the end
                    found = _screen(kernel, [GAMMA_TOL], vals[0])
                    found = found and _brent_max(kernel, 0.0, _GRID[1], *found)
                elif j == COARSE - 1:  # the last cell in log y from one call GAMMA_TOL inside the end or at y = Y0
                    screen = [1.0 - GAMMA_TOL] + ([1.0 - Y0 / n] if _GRID[-2] < 1.0 - Y0 / n < 1.0 else [])
                    found = _screen(kernel, screen, vals[-1])
                    found = found and _refine_in_y(kernel, n, *found)
                else:  # Brent starts CGOLD into the bracket of the grid neighbours
                    lo, hi = _GRID[j - 1], _GRID[j + 1]
                    x = lo + CGOLD * (hi - lo)
                    found = _brent_max(kernel, lo, hi, x, kernel(x))
                    if found[0] > _GRID[-2]:  # a peak in the last cell, resolved in y
                        found = _refine_in_y(kernel, n, *found)
                if found and found[1] > best_v:  # strictly: an end keeps a tie
                    best_g, best_v = found
        except _EndLost:
            return False
        return best_g == 1.0 if indicator else GammaOptResult(best_g, best_v, best_g == 1.0, n)

    return solve


def _losing_end(kernel, end):
    """kernel, raising _EndLost at the first value above end."""

    def guarded(gamma):
        value = kernel(gamma)
        if value > end:
            raise _EndLost
        return value

    return guarded


def optimize_gamma_grid(ns, target: OptTarget) -> list:
    """optimize_gamma at every energy of ns, as a list of GammaOptResult.

    One pass of qfi_core.normal_law_grid fills the len(ns) x COARSE table
    of the coarse grids and numpy flags the local maxima of every row at
    once. Each row's candidates are then refined, and the end rule applied,
    as the module docstring says, through the scalar kernel of that row's
    energy (qfi_core._normal_law_kernel), which evaluates the target's entry
    alone (objective). Results and errors are those of a loop over the
    energies: the rows are checked and refined in order, and a row on which
    the table holds a bad point goes to normal_law_grid, which raises the
    error that point raises on its own.
    """
    ns = list(ns)
    solve = _row_solver(ns, target)
    return [solve(i) for i in range(len(ns))]


def optimize_gamma(n_total: float, target: OptTarget) -> GammaOptResult:
    """Maximize the target over gamma in [0, 1] to absolute tolerance GAMMA_TOL.

    Strategy: a coarse bracketing grid of COARSE points, then Brent's
    method on up to three local-maximum brackets, with the one end test
    and the incumbent grid end of the module docstring. Guaranteed for
    objectives unimodal on each bracket, and the multi-bracket restart
    guards against undetected multimodality. at_boundary is True exactly
    when the gamma = 1 end won (gamma_opt == 1.0). This is
    optimize_gamma_grid([n_total], ...)[0].
    """
    return optimize_gamma_grid([n_total], target)[0]


def _end_slope_root(target: OptTarget) -> float:
    """The energy at which the one-sided slope of f_lambda or f_zeta at
    gamma = 1 changes sign, or math.inf where it has none.

    At zero phases in the default family, sigma^2 = E = e^(2r) with
    sinh^2 r = gamma N and x = mu^2 / sigma^2 = 4 (1 - gamma) N E, so the
    objective is a constant times E^k P(x): P = V and k = zeta for f_lambda,
    P = W and k = zeta - 1 for f_zeta (combinatorics.normal_law_polynomials).
    At gamma = 1, x = 0, dE/dgamma = 2 E N / sinh 2r and dx/dgamma = -4 N E,
    so the slope is 2 N E^k (k P[0] / sinh 2r - 2 E P[1]); it vanishes where
    e^(4r) = 1 + q with q = k P[0] / P[1], that is at
    N = sinh^2 r = (s - 1)^2 / (4 s) with s = sqrt(1 + q), taken here as
    (q / (1 + s))^2 / (4 s), which does not cancel. Without an x^1 term
    (P constant or zero) the slope is positive at every energy.
    """
    zeta = target.model.zeta
    k = zeta if target.kind is TargetKind.F_LAMBDA else zeta - 1
    (j,), _ = _ENTRIES[_ENTRY[target.kind]]  # the one polynomial the entry reads
    p = normal_law_polynomials(zeta)[j]
    if len(p) < 2:
        return math.inf
    q = k * p[0] / p[1]  # exact integers, one rounding
    s = math.sqrt(1.0 + q)
    return (q / (1.0 + s)) ** 2 / (4.0 * s)


def _log_grid(lo: float, hi: float, count: int) -> list:
    """count energies lo * ratio**i, ratio = (hi / lo) ** (1 / (count - 1)), of opt-gamma's --n-range and the
    threshold samples. DomainError unless 0 < lo < hi, count >= 2 and every point is finite."""
    if 0 < lo < hi and count >= 2:
        ratio = (hi / lo) ** (1.0 / (count - 1))
        with contextlib.suppress(OverflowError):  # float ** raises where a power leaves the double range
            grid = [lo * ratio**i for i in range(count)]
            if grid[-1] < math.inf:  # the grid rises, so its last point is its largest
                return grid
    raise DomainError(f"a log grid needs 0 < lo < hi, count >= 2 and finite points, got {lo!r}, {hi!r}, {count!r}")


def find_threshold(target: OptTarget, *, n_hi: float = 1e3, samples: int = 15) -> float:
    """Energy below which pure squeezed vacuum (gamma = 1) is optimal.

    Returns sup{N : gamma_opt(N) = 1} in [THRESHOLD_N_LO, n_hi]. The
    boundary indicator GammaOptResult.at_boundary (the gamma = 1 endpoint
    wins the final comparison of optimize_gamma) is first sampled on the
    log grid _log_grid(THRESHOLD_N_LO, n_hi, samples), all samples in one
    table, to validate that it crosses from True to False exactly once;
    several crossings raise ThresholdAmbiguousError listing them all. If
    the indicator never turns False the target has no threshold in the
    searched range and math.inf is returned as a sentinel. Every sample and
    bisection row is an indicator row (_row_solver with indicator): the bit
    or the error of optimize_gamma, from a refinement that stops once the
    gamma = 1 end has lost.

    For f_lambda and f_zeta the threshold is where the one-sided slope at
    gamma = 1 changes sign, returned in closed form (_end_slope_root) where
    it lies below the crossing's upper sample and above the sample before
    its lower one (at_boundary stays True up to 1.7e-6 relative above the
    root at zeta <= 12, since the end test calls the kernel GAMMA_TOL
    inside the end), and ThresholdAmbiguousError otherwise. The joint
    bound's threshold is a jump between two local maxima: it is found by
    geometric bisection on the indicator, which stops once the bracket is
    at most THRESHOLD_REL_TOL wide (relative); a wider one holds its
    midpoint strictly inside, and lo * hi is finite, as the samples raise
    OverflowError by N = 1e150. Each round tabulates the sorted list of
    nested geometric midpoints sqrt(a * b) of its next BISECTION_LEVELS
    steps in one table and bisects the list by index, solving only the
    indicator rows it visits, so its brackets and result are those of one
    optimize_gamma per step.
    """
    ns = _log_grid(THRESHOLD_N_LO, n_hi, samples)
    at_boundary = _row_solver(ns, target, indicator=True)
    flags = [at_boundary(i) for i in range(samples)]

    if not flags[0]:
        raise ThresholdAmbiguousError(f"gamma_opt already interior at N={THRESHOLD_N_LO}, the lower end of the search")
    crossings = [(ns[i], ns[i + 1]) for i in range(samples - 1) if flags[i] != flags[i + 1]]
    if len(crossings) > 1:
        raise ThresholdAmbiguousError("boundary indicator is not monotone on the sampling grid", crossings=crossings)
    if not crossings:
        return math.inf  # squeezed vacuum optimal everywhere sampled

    if target.kind is not TargetKind.JOINT_BOUND:
        i = flags.index(False)  # the crossing is (ns[i - 1], ns[i])
        root = _end_slope_root(target)
        if not (ns[i - 2] if i > 1 else 0.0) < root < ns[i]:
            raise ThresholdAmbiguousError(
                f"the end slope's root N={root!r} lies outside the sampled crossing", crossings=crossings
            )
        return root
    lo, hi = crossings[0]
    while hi / lo - 1.0 > THRESHOLD_REL_TOL:
        # one table per BISECTION_LEVELS steps: one optimize_gamma per step took 1.37x as long
        points = [lo, hi]
        for _ in range(BISECTION_LEVELS):  # each neighbour pair's geometric midpoint goes between them
            points[1:] = [x for a, b in zip(points, points[1:]) for x in (math.sqrt(a * b), b)]
        at_boundary = _row_solver(points[1:-1], target, indicator=True)
        i, k = 0, len(points) - 1  # lo = points[i], hi = points[k]
        while k - i > 1 and hi / lo - 1.0 > THRESHOLD_REL_TOL:
            m = (i + k) // 2
            if at_boundary(m - 1):
                i, lo = m, points[m]
            else:
                k, hi = m, points[m]
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
    import numpy as np

    if grid < 8:
        raise DomainError("phase grid must have at least 8 points per axis")
    if kind is TargetKind.JOINT_BOUND:
        raise DomainError("phase-optimality check applies to individual QFI elements")
    phases = np.arange(grid) * (2.0 * math.pi / grid)
    (vals,) = normal_law_grid(n_total, gamma, phases[:, None], phases, model, entries=(_ENTRY[kind],))
    return not np.any(vals > vals[0, 0] + 1e-9)
