import math
import random

import mpmath
import numpy as np
import pytest

import mp_reference
import nlprobe.optimizer as opt
from nlprobe.asymptotics import gamma_opt_high_n
from nlprobe.combinatorics import normal_law_polynomials
from nlprobe.errors import DomainError, NlprobeError, ThresholdAmbiguousError
from nlprobe.optimizer import (
    GammaOptResult,
    OptTarget,
    TargetKind,
    find_threshold,
    objective,
    objective_grid,
    optimize_gamma,
    optimize_gamma_grid,
    verify_zero_phase_optimality,
)
from nlprobe.qfi_core import OVERFLOW, ModelSpec, _normal_law_kernel, normal_law_grid

ANALYTIC_NTH = (3.0 * math.sqrt(2.0) - 4.0) / 8.0
# joint rows at zeta 3 that peak in the last grid cell at y = (1 - gamma) N of
# about Y0, a peak about 1/N wide in gamma, which a search in gamma missed by
# 2.4e-10, 6.4e-10 and 2.3e-9 of the maximum
END_CELL_PEAKS = [
    (20749.911726839895, 3.108234710900458),
    (46676.25901063073, 2.7538106619825578),
    (95864.27595062337, 2.3796635145394553),
]
# joint rows at zeta 3 whose maximum Brent's method on the bracket next to
# gamma = 1 finds inside the last grid cell, where its search in gamma stops
# 1.08e-10, 1.38e-10, 1.53e-10 and 1.19e-10 below the maximum
BRACKET_PEAKS = [
    (21471.00897404323, 39.68808675646849),
    (36563.09378919882, 52.59807353318259),
    (52961.92536899009, 52.97242473793411),
    (51049.402304723844, 82.03976859386175),
]


def target(kind, zeta, lam=1.0):
    return OptTarget(TargetKind(kind), ModelSpec(lambda_eff=lam, zeta=zeta))


class TestOptTarget:
    def test_joint_requires_positive_coupling(self):
        with pytest.raises(DomainError):
            OptTarget(TargetKind.JOINT_BOUND, ModelSpec(lambda_eff=0.0, zeta=2))


class TestObjective:
    def test_zero_phase_fast_path_matches_general(self):
        t = target("f_lambda", 3)
        slow = _normal_law_kernel(2.0, 2 * math.pi, 0.0, t.model, entry=0)  # same probe, through the phase terms
        for gamma in (0.0, 0.4, 1.0):
            assert objective(gamma, 2.0, t) == pytest.approx(slow(gamma), rel=1e-10)

    def test_joint_objective_positive(self):
        assert objective(0.5, 1.0, target("joint", 3)) > 0.0

    def test_joint_objective_fits_where_its_entries_products_do_not(self):
        # f_ll f_zz ~ 1.5e417 overflows, det F / tr F does not; the value is
        # from an 80-digit normal-law moment recursion
        assert objective(0.5, 1e6, target("joint", 12)) == pytest.approx(1.870925172296251859e187, rel=1e-12)

    def test_joint_bound_at_order_one_is_zero_where_its_divided_denominator_underflows(self):
        # at zeta = 1, G = W = 0 and the bound is 0 / (u V / (lambda zeta)^2),
        # whose divisor underflows to 0 here: a float 0 / 0 raised, numpy gave nan
        t, gammas = target("joint", 1, lam=1e200), [0.0, 0.5, 1.0]
        assert [objective(g, 1.0, t) for g in gammas] == objective_grid(gammas, 1.0, t) == [0.0] * 3
        assert [mp_reference.objective(g, 1.0, t) for g in gammas] == [0.0] * 3

    def test_joint_matches_40_digits_at_high_energy(self):
        # the double determinant cancels about 2 log10(N) digits; the exact
        # polynomials lose none of them
        t = target("joint", 4)
        for n in (1e3, 1e6):
            assert objective(0.8, n, t) == pytest.approx(mp_reference.objective(0.8, n, t), rel=1e-12)


class TestObjectiveGrid:
    KINDS = ("f_lambda", "f_zeta", "joint")

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n", [0.3, 5.0, 1e4, 1e6])
    def test_equals_objective_point_by_point(self, kind, n):
        t = target(kind, 3)
        gammas = [i / 64.0 for i in range(65)] + [0.123456789, 0.987654321]
        expected = [objective(g, n, t) for g in gammas]
        assert objective_grid(gammas, n, t) == expected

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("gammas", [[0.0, 0.5, 1.0], [0.0, 1.0, 0.5]])
    def test_overflow_raises_the_first_failing_points_error(self, kind, gammas):
        # at N = 1e25 and zeta 12, gamma = 0 fits in double, 0.5 overflows in
        # a float power and (for two targets) 1.0 in the entry check: the two
        # orders must give the errors of different points
        t = target(kind, 12)
        for g in gammas:
            try:
                objective(g, 1e25, t)
            except OverflowError as exc:
                first = exc
                break
        with pytest.raises(OverflowError) as info:
            objective_grid(gammas, 1e25, t)
        assert info.value.args == first.args


class TestOptimizeGamma:
    def test_low_energy_squeezed_vacuum_wins(self):
        res = optimize_gamma(0.01, target("f_lambda", 3))
        assert res.at_boundary
        assert res.gamma_opt == pytest.approx(1.0, abs=1e-6)

    def test_high_energy_matches_analytic_asymptote(self):
        for zeta in (2, 3, 4):
            res = optimize_gamma(1e4, target("f_lambda", zeta))
            assert abs(res.gamma_opt - gamma_opt_high_n(zeta)) <= 0.02

    def test_order_target_tracks_coupling_target_one_order_down(self):
        for zeta in (3, 4, 5):
            res = optimize_gamma(1e4, target("f_zeta", zeta))
            assert abs(res.gamma_opt - gamma_opt_high_n(zeta - 1)) <= 0.02

    def test_order_two_always_squeezed_vacuum(self):
        for n in (0.01, 1.0, 100.0, 1e4):
            res = optimize_gamma(n, target("f_zeta", 2))
            assert res.at_boundary

    def test_result_is_self_consistent(self):
        t = target("f_lambda", 2)
        res = optimize_gamma(5.0, t)
        assert res.objective_value == objective(res.gamma_opt, 5.0, t)
        vals = [objective(i / 999.0, 5.0, t) for i in range(1000)]
        assert res.objective_value >= max(vals) - 1e-9 * abs(max(vals))

    def test_rejects_bad_input(self):
        with pytest.raises(DomainError):
            optimize_gamma(0.0, target("f_lambda", 2))

    def test_overflow_is_the_entry_overflow(self):
        with pytest.raises(OverflowError, match=OVERFLOW):
            optimize_gamma(1e40, target("f_lambda", 12))


C = (3.0 - math.sqrt(5.0)) / 2.0
ZEPS = math.sqrt(2.0**-52)


def loop_optimize(n, t, coarse):
    """Frozen copy of the scalar optimizer that optimize_gamma_grid batches,
    over the public objective point by point: the candidates are the grid
    points above their left neighbour and not below their right one, and
    Brent's minimization (as in Numerical Recipes' brent) of -objective runs
    on each candidate's bracket; the gamma = 0 candidate only where the
    objective GAMMA_TOL inside the end beats the end. The last cell is
    searched in s = log y, y = (1 - gamma) n: the gamma = 1 candidate only
    where the objective
    GAMMA_TOL inside the end or at y = Y0 beats the end, from the better of
    them, and a maximum that the bracket next to the end finds in that cell
    once more from there. at_boundary in its current meaning,
    gamma_opt == 1.0."""

    def cost(g):
        return -objective(g, n, t)

    def brent(a, b, x, fx, gamma=float):
        """Minimum (x, cost(gamma(x))) of cost(gamma(x)) on [a, b] from x, where cost(gamma(x)) = fx."""
        w = v = x
        fw = fv = fx
        d = e = 0.0
        for _ in range(200):
            xm = (a + b) / 2.0
            tol1 = ZEPS * abs(x) + 1e-7
            tol2 = 2.0 * tol1
            if abs(x - xm) <= tol2 - (b - a) / 2.0:
                return x, fx
            golden = True
            if abs(e) > tol1:
                r = (x - w) * (fx - fv)
                q = (x - v) * (fx - fw)
                p = (x - v) * q - (x - w) * r
                q = 2.0 * (q - r)
                if q > 0.0:
                    p = -p
                q = abs(q)
                etemp, e = e, d
                golden = abs(p) >= abs(0.5 * q * etemp) or p <= q * (a - x) or p >= q * (b - x)
                if not golden:
                    d = p / q
                    u = x + d
                    if u - a < tol2 or b - u < tol2:
                        d = math.copysign(tol1, xm - x)
            if golden:
                e = a - x if x >= xm else b - x
                d = C * e
            u = x + d if abs(d) >= tol1 else x + math.copysign(tol1, d)
            fu = cost(gamma(u))
            if fu <= fx:
                if u >= x:
                    a = x
                else:
                    b = x
                v, w, x = w, x, u
                fv, fw, fx = fw, fx, fu
            else:
                if u < x:
                    a = u
                else:
                    b = u
                if fu <= fw or w == x:
                    v, w = w, u
                    fv, fw = fw, fu
                elif fu <= fv or v == x or v == w:
                    v, fv = u, fu
        raise AssertionError("Brent's method did not converge")

    def in_y(g, c):
        """brent in s = log y on the last cell from gamma g, where cost(g) = c, as (gamma, cost)."""
        s0 = math.log((1.0 - g) * n)
        s, c = brent(math.log(n * 2.0**-53), math.log(n * (1.0 - grid[-2])), s0, c, lambda s: 1.0 - math.exp(s) / n)
        return (g if s == s0 else 1.0 - math.exp(s) / n), c

    grid = [i / (coarse - 1) for i in range(coarse)]
    vals = [-cost(g) for g in grid]
    assert all(math.isfinite(v) for v in vals)

    def is_local_max(i):
        return (i == 0 or vals[i] > vals[i - 1]) and (i == coarse - 1 or vals[i] >= vals[i + 1])

    candidates = sorted((i for i in range(coarse) if is_local_max(i)), key=lambda i: vals[i], reverse=True)[:3]
    best_g, best_v = None, -math.inf
    for i in candidates:
        if i == 0:
            g, c = 0.0, -vals[0]
            if -cost(1e-6) > vals[0]:
                g, c = brent(grid[0], grid[1], 1e-6, cost(1e-6))
        elif i == coarse - 1:
            g, c = 1.0, -vals[-1]
            screen = [1.0 - 1e-6] + [1.0 - opt.Y0 / n] * (grid[-2] < 1.0 - opt.Y0 / n < 1.0)
            start = min(screen, key=cost)  # the first of equal values
            if -cost(start) > vals[-1]:
                g, c = in_y(start, cost(start))
        else:
            start = grid[i - 1] + C * (grid[i + 1] - grid[i - 1])
            g, c = brent(grid[i - 1], grid[i + 1], start, cost(start))
            if g > grid[-2]:
                g, c = in_y(g, c)
        if -c > best_v:
            best_g, best_v = g, -c
    for edge in (0, coarse - 1):
        if vals[edge] >= best_v:
            best_g, best_v = grid[edge], vals[edge]
    return GammaOptResult(best_g, best_v, best_g == 1.0, n)


def bits(results):
    return [(r.gamma_opt.hex(), r.objective_value.hex(), r.at_boundary, r.n_total) for r in results]


class TestEnergyScaling:
    # claim iv in the default family: the optimized probe's log-log slope from
    # N = 1e4 to 1e5 beats the coherent probe's, at zero phase and lambda = 1.
    # There an entry is t^k P(x) up to constants, with t = e^(2r),
    # x = mu^2 / sigma^2 and P a polynomial of normal_law_polynomials: V and
    # k = zeta for f_lambda, W and k = zeta - 1 for f_zeta. The coherent probe
    # (t = 1, x = 4 N) grows as N^deg P and the optimum (t and x / t of order
    # N) as N^(k + 2 deg P); the coherent joint bound, G / V in x, as
    # N^(deg G - deg V). The joint optimum's slopes at zeta 2-5 are tabulated.
    JOINT_OPTIMIZED = (1, 2, 5, 8)

    def slopes(self, kind, zeta):
        """(optimized, coherent) log-log slopes of the target at order zeta."""
        v, w, g, _ = normal_law_polynomials(zeta)
        if kind == "joint":
            return self.JOINT_OPTIMIZED[zeta - 2], len(g) - len(v)
        k, p = (zeta, v) if kind == "f_lambda" else (zeta - 1, w)
        return k + 2 * (len(p) - 1), len(p) - 1

    @pytest.mark.parametrize("kind", ["f_lambda", "f_zeta", "joint"])
    def test_log_log_slopes(self, kind):
        for zeta in (2, 3, 4, 5):
            optimized, coherent = self.slopes(kind, zeta)
            t = target(kind, zeta)
            best = [optimize_gamma(n, t).objective_value for n in (1e4, 1e5)]
            plain = [objective(0.0, n, t) for n in (1e4, 1e5)]
            assert math.log10(best[1] / best[0]) == pytest.approx(optimized, abs=1e-3), zeta
            assert math.log10(plain[1] / plain[0]) == pytest.approx(coherent, abs=1e-3), zeta

    # claims iii and iv in the state-exact family (beta_sign = -1), which the
    # optimizer does not take: there squeezed vacuum is optimal for every target
    # at N = 1e4 and 1e5, and its slope beats the coherent probe's by one
    EXACT_SLOPES = {  # entry: (optimized, coherent) as functions of zeta
        0: lambda zeta: (zeta, zeta - 1),  # f_lambda
        1: lambda zeta: (zeta - 1, zeta - 2),  # f_zeta
        3: lambda zeta: (zeta - 1, zeta - 3),  # joint
    }

    @pytest.mark.parametrize("k", sorted(EXACT_SLOPES))
    @pytest.mark.parametrize("zeta", (2, 3, 4, 5))
    def test_state_exact_family(self, zeta, k):
        gammas = [i / 400 for i in range(401)]
        best, plain = [], []
        for n in (1e4, 1e5):
            kernel = _normal_law_kernel(n, 0.0, 0.0, ModelSpec(1.0, zeta), -1, entry=k)
            values = [kernel(g) for g in gammas]
            assert max(range(len(gammas)), key=values.__getitem__) == len(gammas) - 1
            best.append(values[-1])
            plain.append(values[0])
        optimized, coherent = self.EXACT_SLOPES[k](zeta)
        assert math.log10(best[1] / best[0]) == pytest.approx(optimized, abs=1e-3)
        assert math.log10(plain[1] / plain[0]) == pytest.approx(coherent, abs=1e-3)


class TestOptimizeGammaGrid:
    @pytest.mark.parametrize("seed", range(24))
    def test_equals_the_scalar_loop_bit_for_bit(self, seed):
        rng = random.Random(seed)
        kind = ("f_lambda", "f_zeta", "joint")[seed % 3]
        t = target(kind, rng.randint(2, 12), 10 ** rng.uniform(-2, 2))
        ns = sorted(10 ** rng.uniform(-3, 6) for _ in range(6))
        assert bits(optimize_gamma_grid(ns, t)) == bits(loop_optimize(n, t, 129) for n in ns)

    def test_zero_phase_rows_equal_the_scalar_loop(self):
        ns = [10 ** (k / 4) for k in range(-12, 25)]
        for kind, zeta in (("f_lambda", 2), ("f_zeta", 5), ("joint", 4)):
            t = target(kind, zeta)
            assert bits(optimize_gamma_grid(ns, t)) == bits(loop_optimize(n, t, 129) for n in ns)

    def test_joint_last_cell_rows_equal_the_scalar_loop(self):
        # end cells refined in y, and maxima that the bracket next to the end
        # finds in the last cell, refined once more
        for n, lam in END_CELL_PEAKS + BRACKET_PEAKS:
            t = target("joint", 3, lam)
            assert bits(optimize_gamma_grid([n], t)) == bits([loop_optimize(n, t, 129)])

    # objectives of gamma alone, exact in both forms: a spike that only the
    # third-best coarse maximum brackets; the same with a higher spike beside
    # a fourth-best maximum, which is not refined; and a five-point plateau
    # whose first point's bracket hides a spike (ties: a plateau is a maximum
    # at its first point alone)
    SPIKE = ((3.0, 40.0, 0.2), (2.0, 40.0, 0.5), (1.0, 40.0, 0.8), (5.0, 2000.0, 0.80078))
    FOURTH = SPIKE + ((0.5, 40.0, 0.95), (6.0, 2000.0, 0.94921875))
    PLATEAU = ((4.0, 1500.0, 0.48828125),)

    @pytest.mark.parametrize(
        "peaks, cap", [(SPIKE, None), (FOURTH, None), (PLATEAU, 2.35)], ids=["third-candidate", "fourth", "plateau"]
    )
    def test_candidates_on_multimodal_rows(self, monkeypatch, peaks, cap):
        def f(g):
            v = max(h - s * abs(g - c) for h, s, c in peaks)
            return v if cap is None else max(v, min(cap, 3.0 - 40.0 * abs(g - 0.5)))

        def f_array(g):
            v = np.max([h - s * np.abs(g - c) for h, s, c in peaks], axis=0)
            return v if cap is None else np.maximum(v, np.minimum(cap, 3.0 - 40.0 * np.abs(g - 0.5)))

        def arrays(n, g, theta, phi, model, entries):
            table = f_array(np.broadcast_to(np.asarray(g, dtype=float), np.broadcast_shapes(np.shape(n), np.shape(g))))
            return (table,) * len(entries), np.ones(table.shape, dtype=bool)

        def kernel(n, theta, phi, model, beta_sign=+1, *, entry):
            return f

        monkeypatch.setattr(opt, "_normal_law_kernel", kernel)  # the kernel of Brent's method and objective
        monkeypatch.setattr(opt, "_normal_law_arrays", arrays)
        t = target("f_lambda", 2)
        got = optimize_gamma_grid([1.0, 2.0], t)
        assert bits(got) == bits(loop_optimize(n, t, 129) for n in (1.0, 2.0))
        assert got[0].objective_value > 3.5  # the spike, not the best coarse point

    @pytest.mark.parametrize(
        "kind, zeta, ns", [("f_lambda", 3, [0.02, 3.0, 200.0]), ("f_zeta", 5, [0.5, 50.0]), ("joint", 4, [1e3, 1e5])]
    )
    def test_rows_agree_with_the_40_digit_path(self, kind, zeta, ns):
        t = target(kind, zeta)
        fast = optimize_gamma_grid(ns, t)
        slow = mp_reference.optimize_gamma_grid(ns, t)
        for f, s in zip(fast, slow):
            assert f.gamma_opt == pytest.approx(s.gamma_opt, abs=2e-6)
            assert f.objective_value == pytest.approx(s.objective_value, rel=1e-10)
            assert f.at_boundary is s.at_boundary

    def test_single_energy_is_optimize_gamma(self):
        t = target("f_lambda", 3)
        assert optimize_gamma(5.0, t) == optimize_gamma_grid([5.0], t)[0]
        assert optimize_gamma_grid([], t) == []

    @pytest.mark.parametrize(
        "ns, error, message",
        [
            ([1.0, -1.0, 1e40], DomainError, "optimize_gamma requires n_total > 0"),
            ([1.0, 1e40, -1.0], OverflowError, OVERFLOW),
            ([1.0, math.inf, -1.0], DomainError, "mean photon number must be finite and >= 0, got inf"),
            ([1.0, math.nan], DomainError, "mean photon number must be finite and >= 0, got nan"),
        ],
        ids=["negative-first", "overflow-first", "infinite", "nan"],
    )
    def test_first_failing_row_raises(self, ns, error, message):
        # the error is the one a loop over the energies meets first
        with pytest.raises(error, match=message):
            optimize_gamma_grid(ns, target("f_lambda", 12))
        with pytest.raises(error, match=message):
            for n in ns:
                optimize_gamma(n, target("f_lambda", 12))

    def test_interior_optimum_next_to_one_is_not_the_boundary(self):
        # at N = 1e6 the joint optimum is interior but within 1e-6 of gamma = 1
        res = optimize_gamma(1e6, target("joint", 3, lam=100.0))
        assert 1.0 - 1e-6 < res.gamma_opt < 1.0
        assert not res.at_boundary


class TestRefinement:
    """Brent's method refines interior brackets. One end test serves both
    ends: one kernel call GAMMA_TOL inside the end, and at gamma = 1 one more
    at Y0 = sqrt(7/48) coherent photons (the joint bound's maximum in the
    last cell at zeta 3 as N -> inf), and the end's cell refined only where
    one beats the end, the last cell in log y, y = (1 - gamma) N, as is a
    maximum that the bracket next to gamma = 1 finds there. The better grid
    end, gamma = 1 on a tie, is the incumbent, which a refined point
    replaces only where it is strictly higher. The rule is the same for
    every target."""

    @staticmethod
    def count_calls(monkeypatch):
        """The points at which the optimizer's kernels are called, in order."""
        calls, kernel = [], opt._normal_law_kernel

        def counting(*args, **kwargs):
            f = kernel(*args, **kwargs)

            def counted(g):
                calls.append(g)
                return f(g)

            return counted

        monkeypatch.setattr(opt, "_normal_law_kernel", counting)
        return calls

    @pytest.mark.parametrize("kind, zeta, n", [("f_lambda", 2, 0.01), ("f_lambda", 6, 0.01), ("f_zeta", 5, 0.01),
                                               ("joint", 3, 0.01), ("joint", 4, 0.01)])
    def test_a_row_rising_into_one_costs_one_call(self, monkeypatch, kind, zeta, n):
        assert 1.0 - opt.Y0 / n < 127 / 128  # y = Y0 lies outside the last cell
        calls = self.count_calls(monkeypatch)
        res = optimize_gamma(n, target(kind, zeta))
        assert res.at_boundary and res.gamma_opt == 1.0
        assert calls == [1.0 - opt.GAMMA_TOL]

    @pytest.mark.parametrize("kind, zeta", [("f_lambda", z) for z in range(2, 7)] + [("f_zeta", z) for z in range(3, 7)]
                             + [("joint", z) for z in range(4, 7)])
    def test_an_interior_row_costs_at_most_twelve_calls_a_candidate(self, monkeypatch, kind, zeta):
        t = target(kind, zeta)
        vals = objective_grid([i / 128 for i in range(129)], 1e3, t)
        candidates = min(3, sum((i == 0 or vals[i] > vals[i - 1]) and (i == 128 or vals[i] >= vals[i + 1])
                                for i in range(129)))
        calls = self.count_calls(monkeypatch)
        assert 0.0 < optimize_gamma(1e3, t).gamma_opt < 1.0
        assert 0 < len(calls) <= 12 * candidates

    @pytest.mark.parametrize("peak", [0.996, 0.004], ids=["next-to-one", "next-to-zero"])
    def test_a_maximum_inside_an_end_cell_is_refined(self, monkeypatch, peak):
        # the objective climbs steeply from the grid to the peak and falls gently
        # to the end, so the end beats its grid neighbour and is the only candidate
        outward = 1.0 if peak > 0.5 else -1.0

        def f(g):
            return -max(outward * (g - peak), 40.0 * outward * (peak - g))

        def arrays(n, g, theta, phi, model, entries):
            g = np.broadcast_to(np.asarray(g, dtype=float), np.broadcast_shapes(np.shape(n), np.shape(g)))
            table = -np.maximum(outward * (g - peak), 40.0 * outward * (peak - g))
            return (table,) * len(entries), np.ones(table.shape, dtype=bool)

        monkeypatch.setattr(opt, "_normal_law_kernel", lambda *args, **kwargs: f)
        monkeypatch.setattr(opt, "_normal_law_arrays", arrays)
        res = optimize_gamma(1.0, target("f_lambda", 2))
        assert res.gamma_opt == pytest.approx(peak, abs=opt.GAMMA_TOL)
        assert res.at_boundary is False
        assert res.objective_value > f(1.0 if peak > 0.5 else 0.0)

    @pytest.mark.parametrize("end", [1.0, 0.0])
    def test_a_refined_point_that_ties_the_better_end_loses_to_it(self, monkeypatch, end):
        # a plateau of height 1 around gamma = 0.5, which Brent's method on its
        # bracket reaches, and an end of height 1 above a low neighbour, whose
        # call inside the end is low: the end keeps the tie
        def f(g):
            return 1.0 if g == end else min(1.0, 1.02 - 2.0 * abs(g - 0.5))

        def arrays(n, g, theta, phi, model, entries):
            table = np.array([[f(x) for x in g]] * len(n))
            return (table,) * len(entries), np.ones(table.shape, dtype=bool)

        monkeypatch.setattr(opt, "_normal_law_kernel", lambda *args, **kwargs: f)
        monkeypatch.setattr(opt, "_normal_law_arrays", arrays)
        calls = self.count_calls(monkeypatch)
        res = optimize_gamma(1.0, target("f_lambda", 2))
        assert (res.gamma_opt, res.objective_value, res.at_boundary) == (end, 1.0, end == 1.0)
        assert any(0.48 < g < 0.5 for g in calls)  # the plateau was refined

    def test_the_joint_bound_is_refined_at_an_end_it_dips_into(self):
        # the bound peaks at 7.2369e9 near gamma = 0.999381, falls to 3.99e9 at
        # 1 - GAMMA_TOL and climbs back to 7.20e9 at gamma = 1: the call inside
        # the end is lower than the end, yet the maximum lies inside the last cell
        t, n = target("joint", 3, lam=4.0554788240976505), 618.293559167307
        assert objective(1.0 - opt.GAMMA_TOL, n, t) < objective(1.0, n, t)
        res = optimize_gamma(n, t)
        gamma, value = mp_reference.argmax(n, t)
        assert not res.at_boundary
        assert res.gamma_opt == pytest.approx(gamma, abs=2e-6)
        assert res.objective_value == pytest.approx(value, rel=1e-10)

    @pytest.mark.parametrize("n, lam", END_CELL_PEAKS + BRACKET_PEAKS)
    def test_a_peak_in_the_joint_end_cell_reaches_the_40_digit_maximum(self, n, lam):
        t = target("joint", 3, lam)
        res = optimize_gamma(n, t)
        gamma, value = mp_reference.argmax(n, t)
        assert not res.at_boundary
        assert res.gamma_opt == pytest.approx(gamma, abs=2e-6)
        assert res.objective_value == pytest.approx(value, rel=1e-10)

    @pytest.mark.parametrize("seed", range(3))
    def test_zeta_three_rows_reach_the_40_digit_maximum(self, seed):
        # 20 joint rows a seed at zeta 3, lambda 2-100, N 1e4-2e5: the maximum
        # lies in the last cell at y near Y0, reached from the end or from the
        # bracket next to it, or on the end; the reference's golden section
        # in gamma (to 1e-9) resolves such a peak to about 1e-13 up to N = 1e6
        rng = random.Random(seed)
        for _ in range(20):
            t = target("joint", 3, 10 ** rng.uniform(math.log10(2.0), 2.0))
            n = 10 ** rng.uniform(4.0, math.log10(2e5))
            res = optimize_gamma(n, t)
            gamma, value = mp_reference.argmax(n, t)
            assert res.gamma_opt == pytest.approx(gamma, abs=2e-6), (n, t)
            assert res.objective_value == pytest.approx(value, rel=1e-10), (n, t)

    @pytest.mark.parametrize("kind, zeta", [("f_lambda", 1), ("f_zeta", 2), ("joint", 3)])
    def test_an_end_cell_without_a_maximum_costs_two_calls(self, monkeypatch, kind, zeta):
        # gamma = 1 is optimal and the only coarse maximum, and y = Y0 lies in
        # the last cell: the screen alone
        n = 1e4
        calls = self.count_calls(monkeypatch)
        res = optimize_gamma(n, target(kind, zeta))
        assert res.at_boundary and res.gamma_opt == 1.0
        assert calls == [1.0 - opt.GAMMA_TOL, 1.0 - opt.Y0 / n]

    @pytest.mark.parametrize("kind, lam", [("f_zeta", 1.0), ("joint", 1.0), ("f_zeta", 1e200), ("joint", 1e200)],
                             ids=["f_zeta", "joint", "f_zeta-coupling-square-overflows", "joint-coupling-square-overflows"])
    def test_a_flat_row_costs_one_call(self, monkeypatch, kind, lam):
        # at zeta = 1 both targets are 0 at every gamma, also where (lambda
        # zeta)^2 overflows: gamma = 0 is the one coarse maximum, its call
        # inside the end does not beat it, and gamma = 1 wins the tie of the ends
        calls = self.count_calls(monkeypatch)
        res = optimize_gamma(3.0, target(kind, 1, lam))
        assert (res.gamma_opt, res.objective_value, res.at_boundary) == (1.0, 0.0, True)
        assert calls == [opt.GAMMA_TOL]

    def test_the_joint_threshold_search_screens_its_end_cells(self, monkeypatch):
        # 21 samples from 1e-4 to 1e6, none past the threshold: at most two calls
        # in each end cell, and Brent's method on the interior candidates of a few
        calls = self.count_calls(monkeypatch)
        assert find_threshold(target("joint", 3), n_hi=1e6, samples=21) == math.inf
        assert len(calls) <= 120

    @pytest.mark.parametrize("kind, zeta, kw, want", [("joint", 4, dict(n_hi=1e6, samples=21), 92),
                                                      ("f_lambda", 7, {}, 15)])
    def test_threshold_rows_stop_once_the_end_has_lost(self, monkeypatch, kind, zeta, kw, want):
        # a full refinement of every row took 235 and 85 calls; f_lambda's 15
        # are one a sample row, its threshold being the closed form
        calls = self.count_calls(monkeypatch)
        find_threshold(target(kind, zeta), **kw)
        assert len(calls) == want

    @pytest.mark.parametrize("seed", range(7))
    def test_random_rows_reach_the_40_digit_maximum(self, seed):
        # 30 rows a seed: every target, zeta 2-12, N 1e-3..1e6, random coupling
        rng = random.Random(seed)
        for i in range(30):
            t = target(("f_lambda", "f_zeta", "joint")[i % 3], rng.randint(2, 12), 10 ** rng.uniform(-2, 2))
            n = 10 ** rng.uniform(-3, 6)
            res = optimize_gamma(n, t)
            gamma, value = mp_reference.argmax(n, t)
            assert res.gamma_opt == pytest.approx(gamma, abs=2e-6), (n, t)
            assert res.objective_value == pytest.approx(value, rel=1e-10), (n, t)


def raised_or(fn):
    """fn(), or the type and arguments of the error it raises."""
    try:
        return fn()
    except (NlprobeError, ArithmeticError) as exc:
        return type(exc), exc.args


class TestIndicator:
    """find_threshold reads one bit of each row, at_boundary, from
    _row_solver(..., indicator=True): the row's checks, then False where the
    gamma = 0 grid end beats the gamma = 1 one or at the first kernel value
    above the gamma = 1 end, else True after the full refinement. Its kernel
    calls are the first of optimize_gamma's, all of them on a True row."""

    @staticmethod
    def both(calls, n, t):
        """(indicator, its kernel calls, at_boundary of optimize_gamma, its calls), an error as raised_or's;
        calls is TestRefinement.count_calls's list."""
        calls.clear()
        flag = raised_or(lambda: opt._row_solver([n], t, indicator=True)(0))
        stopped = calls[:]
        calls.clear()
        return flag, stopped, raised_or(lambda: optimize_gamma(n, t).at_boundary), calls

    @pytest.mark.parametrize("seed", range(4))
    def test_the_indicator_is_at_boundary_on_random_rows(self, monkeypatch, seed):
        # 1500 rows a seed: every target, zeta 1-12, lambda 1e-2..1e2, and N
        # from 1e-4 to 10**(160 / zeta + 10), past the energy at which each order overflows
        rng, kinds, seen = random.Random(seed), ("f_lambda", "f_zeta", "joint"), set()
        counted = TestRefinement.count_calls(monkeypatch)
        for i in range(1500):
            t = target(kinds[i % 3], rng.randint(1, 12), 10 ** rng.uniform(-2, 2))
            n = 10 ** rng.uniform(-4, 160 / t.model.zeta + 10)
            flag, stopped, full, calls = self.both(counted, n, t)
            assert flag == full, (n, t)
            assert stopped == (calls if flag is True else calls[:len(stopped)]), (n, t)
            seen.add(flag if isinstance(flag, bool) else OverflowError)
        assert seen == {True, False, OverflowError}

    def test_a_row_whose_gamma_zero_end_is_higher_costs_no_call(self, monkeypatch):
        # no target has been seen to reach this: the objective 1 - gamma
        def arrays(n, g, theta, phi, model, entries):
            table = 1.0 - np.broadcast_to(np.asarray(g, dtype=float), np.broadcast_shapes(np.shape(n), np.shape(g)))
            return (table,) * len(entries), np.ones(table.shape, dtype=bool)

        monkeypatch.setattr(opt, "_normal_law_kernel", lambda *args, **kwargs: lambda g: 1.0 - g)
        monkeypatch.setattr(opt, "_normal_law_arrays", arrays)
        counted = TestRefinement.count_calls(monkeypatch)
        flag, stopped, full, calls = self.both(counted, 1.0, target("f_lambda", 2))
        assert (flag, full, stopped) == (False, False, [])
        assert calls == [opt.GAMMA_TOL]  # the end test at gamma = 0

    def test_a_row_stops_inside_brents_method(self, monkeypatch):
        # the bracket next to gamma = 1 holds the maximum: Brent's start is below
        # the end and its first step above it, of 38 calls in all
        n, lam = BRACKET_PEAKS[2]
        flag, stopped, full, calls = self.both(TestRefinement.count_calls(monkeypatch), n, target("joint", 3, lam))
        assert (flag, full, len(stopped), len(calls)) == (False, False, 2, 38)
        assert stopped == calls[:2] and all(126 / 128 < g < 1.0 for g in stopped)

    def test_a_row_on_which_the_end_wins_refines_in_full(self, monkeypatch):
        # the joint bound at zeta 3 and N = 1 has a lower interior maximum, which Brent's method refines
        flag, stopped, full, calls = self.both(TestRefinement.count_calls(monkeypatch), 1.0, target("joint", 3))
        assert flag is full is True
        assert stopped == calls and len(calls) == 9 and any(0.0 < g < 127 / 128 for g in calls)


class TestNonFinitePhases:
    """A non-finite phase is outside the probe domain in every layer, as a bad gamma or N is."""

    PHASES = [(math.inf, 0.0), (math.nan, 0.0), (0.0, -math.inf), (1.0, math.nan)]

    @pytest.mark.parametrize("theta, phi", PHASES)
    def test_normal_law_kernel(self, theta, phi):
        # the kernel of objective and the optimizers, which fix the phases at 0
        for kind in ("f_lambda", "f_zeta", "joint"):
            kernel = _normal_law_kernel(1.0, theta, phi, target(kind, 3).model, entry=opt._ENTRY[TargetKind(kind)])
            with pytest.raises(DomainError, match="phases must be finite"):
                kernel(0.5)

    @pytest.mark.parametrize("theta, phi", PHASES)
    def test_normal_law_grid(self, theta, phi):
        with pytest.raises(DomainError, match="phases must be finite"):
            normal_law_grid(1.0, [0.0, 0.5, 1.0], [[0.0], [theta]], phi, ModelSpec(lambda_eff=1.0, zeta=2), entries=(0, 1, 3))


class TestThresholdSlope:
    """For the individual targets the threshold is where the one-sided slope
    dF/dgamma at gamma = 1 changes sign: squeezed vacuum stops being a local
    maximum where the optimizer's global comparison first prefers an
    interior gamma."""

    @pytest.mark.parametrize(
        "kind, zeta", [("f_lambda", 2), ("f_lambda", 3), ("f_lambda", 4), ("f_zeta", 3), ("f_zeta", 5)]
    )
    def test_slope_changes_sign_inside_the_bracket(self, kind, zeta):
        t, step = target(kind, zeta), 1e-9
        n_th = find_threshold(t)
        assert mp_reference.end_slope(n_th * (1.0 - step), t) > 0.0 > mp_reference.end_slope(n_th * (1.0 + step), t)


class TestFindThreshold:
    """The thresholds of f_lambda and f_zeta against the 40-digit root of the
    end slope (mp_reference.end_slope_root), which bisects the sign of the
    objective's slope at gamma = 1 and shares no formula with the closed form."""

    ANALYTIC = [("f_lambda", z) for z in range(2, 13, 2)] + [("f_zeta", z) for z in range(3, 13, 2)]

    @pytest.mark.parametrize("kind, zeta", ANALYTIC)
    def test_analytic_value(self, kind, zeta):
        assert find_threshold(target(kind, zeta)) == pytest.approx(ANALYTIC_NTH, rel=1e-12)

    @pytest.mark.parametrize("kind, zeta", [("f_lambda", 2), ("f_zeta", 3), ("f_lambda", 12)])
    def test_reference_has_the_analytic_value(self, kind, zeta):
        with mpmath.workdps(mp_reference.DPS):
            exact = (3 * mpmath.sqrt(2) - 4) / 8
            assert abs(mp_reference.end_slope_root(target(kind, zeta)) / exact - 1) < 1e-38

    @pytest.mark.parametrize("kind, zeta", [("f_lambda", 3), ("f_zeta", 4)])
    def test_one_twenty_fourth(self, kind, zeta):
        n_th = find_threshold(target(kind, zeta))
        assert n_th == pytest.approx(1.0 / 24.0, rel=1e-12)
        with mpmath.workdps(mp_reference.DPS):
            assert abs(mp_reference.end_slope_root(target(kind, zeta)) * 24 - 1) < 1e-38

    @pytest.mark.parametrize(
        "kind, zeta, value",
        [("f_lambda", 5, 0.0325531005), ("f_lambda", 7, 0.0308520051), ("f_lambda", 9, 0.0304577553),
         ("f_zeta", 6, 0.0325531005), ("f_zeta", 8, 0.0308520051), ("f_zeta", 10, 0.0304577553)],
    )
    def test_odd_orders_of_the_coupling_match_the_reference(self, kind, zeta, value):
        # f_zeta at order zeta + 1 reads the polynomial and the power of f_lambda at zeta
        n_th = find_threshold(target(kind, zeta))
        assert n_th == pytest.approx(float(mp_reference.end_slope_root(target(kind, zeta))), rel=1e-12)
        assert n_th == pytest.approx(value, abs=1e-10)

    @pytest.mark.parametrize(
        "kw",
        [dict(samples=1), dict(n_hi=1e-5), dict(n_hi=opt.THRESHOLD_N_LO), dict(n_hi=1e305), dict(n_hi=math.nan)],
        ids=["samples-1", "n-hi-below-n-lo", "empty-range", "ratio-overflows", "n-hi-nan"],
    )
    def test_search_range_is_the_log_grids_rule(self, kw):
        # 1e305 / 1e-4 overflows: the grid held inf and the optimizer rejected
        # it as an infinite mean photon number
        with pytest.raises(DomainError, match="a log grid needs"):
            find_threshold(target("f_lambda", 2), **kw)

    def test_order_two_has_no_threshold(self):
        assert find_threshold(target("f_zeta", 2)) == math.inf

    def test_joint_exceeds_individual(self):
        # zeta = 4 has a finite joint threshold above the individual one; at
        # zeta = 3 squeezed vacuum stays optimal for the joint bound up to
        # N = 1e6, as the 40-digit reference confirms
        individual = find_threshold(target("f_lambda", 4))
        joint = find_threshold(target("joint", 4, lam=1.0), n_hi=1e6, samples=21)
        assert joint == pytest.approx(1.28139, abs=1e-3)
        assert joint > individual + 1e-4
        assert find_threshold(target("joint", 3, lam=1.0), n_hi=1e6, samples=21) == math.inf
        assert mp_reference.optimize_gamma(5.3e3, target("joint", 3, lam=1.0)).at_boundary

    def test_joint_no_threshold_in_narrow_range_is_a_sentinel(self):
        # a range without a crossing reports the documented no-threshold
        # sentinel rather than guessing
        assert find_threshold(target("joint", 3, lam=1.0), n_hi=1e3) == math.inf

    @pytest.mark.parametrize("lam, n_th", [(3.0, 3.1034277139786393), (100.0, 1.2579703648381177)])
    def test_joint_zeta_three_crosses_once_up_to_high_energy(self, lam, n_th):
        # at zeta 3 the joint bound at y = Y0 coherent photons beats its value at
        # gamma = 1 by about 1.2/N (lambda 3) and 3000/N (lambda 100) of it; a
        # search in gamma that missed this peak read at_boundary True again above
        # N of about 5e6 and raised ThresholdAmbiguousError (two crossings)
        t = target("joint", 3, lam)
        for n in (1e7, 1e12):
            assert mp_reference.objective(1.0 - opt.Y0 / n, n, t) > mp_reference.objective(1.0, n, t)
        assert find_threshold(t, n_hi=1e12, samples=25) == pytest.approx(n_th, rel=1e-4)

    def test_sample_just_above_the_root_is_inside_the_crossing(self):
        # a sample at root (1 + 5e-7), where at_boundary still reads True, is
        # the crossing's lower end: the root is below it, above the sample before
        t, n_lo = target("f_lambda", 2), opt.THRESHOLD_N_LO
        root = opt._end_slope_root(t)
        near = root * (1.0 + 5e-7)
        n_hi = near * near / n_lo  # the middle of three samples is near
        assert n_lo * (n_hi / n_lo) ** 0.5 == pytest.approx(near, rel=1e-15)
        assert optimize_gamma(near, t).at_boundary
        assert find_threshold(t, n_hi=n_hi, samples=3) == root

    @pytest.mark.parametrize(
        "kind, zeta, switch",
        [("f_lambda", 2, 1e-3), ("f_lambda", 2, 1.0), ("f_zeta", 2, 1.0)],
        ids=["root-above-the-crossing", "root-below-the-crossing", "no-root"],
    )
    def test_root_outside_the_sampled_crossing_raises(self, monkeypatch, kind, zeta, switch):
        # f_zeta at zeta = 2 reads a constant W: its end slope never changes sign
        def fake_indicator(ns, t, indicator):
            assert indicator
            return lambda i: ns[i] < switch

        monkeypatch.setattr(opt, "_row_solver", fake_indicator)
        with pytest.raises(ThresholdAmbiguousError, match="outside the sampled crossing") as info:
            opt.find_threshold(target(kind, zeta), n_hi=100.0, samples=7)
        assert len(info.value.crossings) == 1

    def test_non_monotone_indicator_raises(self, monkeypatch):
        flags = {0.001: True, 0.01: False, 0.1: True, 1.0: False}

        def fake_indicator(ns, t, indicator):
            assert indicator
            return lambda i: flags[min(flags, key=lambda key: abs(math.log(ns[i] / key)))]

        monkeypatch.setattr(opt, "_row_solver", fake_indicator)
        with pytest.raises(ThresholdAmbiguousError) as info:
            opt.find_threshold(target("f_lambda", 2), n_hi=1.0, samples=7)
        assert len(info.value.crossings) > 1

    def test_optimum_interior_at_the_lower_end_raises(self, monkeypatch):
        # no target is known to reach this: gamma = 1 has been optimal at
        # THRESHOLD_N_LO for every target, order and coupling tried
        def interior(ns, t, indicator):
            assert indicator
            return lambda i: False

        monkeypatch.setattr(opt, "_row_solver", interior)
        with pytest.raises(ThresholdAmbiguousError, match="already interior at N=0.0001") as info:
            opt.find_threshold(target("f_lambda", 2))
        assert info.value.crossings == []


class TestLogGrid:
    """_log_grid is the one log grid of opt-gamma's --n-range and of the
    threshold samples; it gives the floats of the formula both once wrote."""

    @staticmethod
    def formula(lo, hi, count):
        ratio = (hi / lo) ** (1.0 / (count - 1))
        return [lo * ratio**i for i in range(count)]

    @pytest.mark.parametrize(
        "lo, hi, count",
        # every --n-range of the tests and the README
        [(1e-3, 1e4, 6), (0.01, 100.0, 4), (0.01, 100.0, 5), (0.1, 10.0, 3), (0.1, 10.0, 4), (0.5, 5.0, 3),
         (1.0, 100.0, 3), (1.0, 2.0, 2), (1e-3, 1e3, 7), (1e-3, 1e3, 9), (1e15, 1e16, 2), (1e28, 1e29, 2),
         (1e30, 1e40, 3), (1e39, 1e40, 2), (1e3, 1e6, 7), (1e-3, 1e4, 25)]
        # and the threshold samples of the tests and the benchmark
        + [(opt.THRESHOLD_N_LO, n_hi, samples) for n_hi, samples in
           [(1e3, 15), (1e3, 3), (1e6, 21), (1e6, 15), (1e6, 12), (1e6, 51), (100.0, 7), (1.0, 7)]],
    )
    def test_equals_the_formula_bit_for_bit(self, lo, hi, count):
        assert [v.hex() for v in opt._log_grid(lo, hi, count)] == [v.hex() for v in self.formula(lo, hi, count)]

    @pytest.mark.parametrize(
        "lo, hi, count",
        [(0.0, 1.0, 3), (2.0, 1.0, 3), (1.0, 1.0, 3), (1.0, 2.0, 1), (math.nan, 1.0, 3), (1.0, math.nan, 3),
         (1.0, math.inf, 3), (1e-300, 1e10, 3), (1.0, 1.7976931348623157e308, 5), (1.5, 1.7976931348623157e308, 2)],
        ids=["zero", "descending", "empty", "one-point", "lo-nan", "hi-nan", "hi-inf", "ratio-overflows",
             "power-overflows", "last-point-overflows"],
    )
    def test_rejects_empty_ranges_and_points_beyond_the_double_range(self, lo, hi, count):
        # the power of "power-overflows" raised OverflowError from float **; the
        # last two held inf, which the optimizer rejected as an infinite energy
        with pytest.raises(DomainError, match="a log grid needs"):
            opt._log_grid(lo, hi, count)


def loop_threshold(t, *, n_hi=1e3, samples=15, visited=None):
    """Frozen copy of the joint target's find_threshold, bisecting with one
    optimize_gamma(mid) per step until the bracket is at most
    THRESHOLD_REL_TOL wide; each energy it refines is appended to visited."""
    n_lo = opt.THRESHOLD_N_LO
    ratio = (n_hi / n_lo) ** (1.0 / (samples - 1))
    ns = [n_lo * ratio**i for i in range(samples)]
    flags = [res.at_boundary for res in optimize_gamma_grid(ns, t)]
    if not flags[0]:
        raise ThresholdAmbiguousError(f"gamma_opt already interior at N={n_lo}, the lower end of the search")
    crossings = [(ns[i], ns[i + 1]) for i in range(samples - 1) if flags[i] != flags[i + 1]]
    if len(crossings) > 1:
        raise ThresholdAmbiguousError("boundary indicator is not monotone on the sampling grid", crossings=crossings)
    if not crossings:
        return math.inf
    lo, hi = crossings[0]
    while hi / lo - 1.0 > opt.THRESHOLD_REL_TOL:
        mid = math.sqrt(lo * hi)
        if visited is not None:
            visited.append(mid)
        if optimize_gamma(mid, t).at_boundary:
            lo = mid
        else:
            hi = mid
    return math.sqrt(lo * hi)


def outcome(fn, *args, **kwargs):
    """fn's result as a hex string, or its error's type, arguments and crossings."""
    try:
        return fn(*args, **kwargs).hex()
    except (NlprobeError, ArithmeticError) as exc:  # the same error, with the same message, on both sides
        return type(exc), exc.args, getattr(exc, "crossings", None)


class TestBatchedBisection:
    """The joint target's find_threshold solves the midpoints of
    BISECTION_LEVELS steps from one table; its lo, hi and result equal those
    of one optimize_gamma per step."""

    JOINT = [(3, 1.0, 21), (4, 1.0, 21), (5, 100.0, 15), (6, 1.0, 12), (2, 0.01, 51)]

    @pytest.mark.parametrize("lam", [0.01, 100.0])
    @pytest.mark.parametrize("zeta", range(2, 13))
    def test_joint_orders(self, lam, zeta):
        t = target("joint", zeta, lam)
        assert outcome(find_threshold, t) == outcome(loop_threshold, t)

    @pytest.mark.parametrize("zeta, lam, samples", JOINT)
    def test_joint_inputs(self, zeta, lam, samples):
        t = target("joint", zeta, lam)
        kw = dict(n_hi=1e6, samples=samples)
        assert outcome(find_threshold, t, **kw) == outcome(loop_threshold, t, **kw)

    @pytest.mark.parametrize(
        "width", [1e-9, opt.THRESHOLD_REL_TOL, 0.3, 50.0], ids=["fine", "constant", "coarse", "no-step"]
    )
    def test_both_stop_at_the_constant_width(self, monkeypatch, width):
        # both searches read opt.THRESHOLD_REL_TOL; other widths show where each stops
        monkeypatch.setattr(opt, "THRESHOLD_REL_TOL", width)
        for t in (target("joint", 4), target("joint", 7, 0.01)):
            visited = []
            want = outcome(loop_threshold, t, visited=visited)
            assert outcome(find_threshold, t) == want
            assert (len(visited) == 0) is (width == 50.0)

    def test_a_bad_point_on_a_row_never_visited_raises_nothing(self, monkeypatch):
        t, visited = target("joint", 5), []
        want = loop_threshold(t, visited=visited)
        unvisited, arrays, kernel = [], opt._normal_law_arrays, opt._normal_law_kernel

        def bad_unvisited_rows(n, *args):
            (table,), ok = arrays(n, *args)
            if len(n) == 2**opt.BISECTION_LEVELS - 1:  # a bisection table, not the samples'
                for i, e in enumerate(n[:, 0].tolist()):
                    if e not in visited:
                        table[i, 5], ok[i, 5] = math.nan, False
                        unvisited.append(e)
            return (table,), ok

        def raising_off_the_walk(n, *args, **kwargs):
            if n in unvisited:
                raise AssertionError(f"row N={n!r} is refined but the bisection never visits it")
            return kernel(n, *args, **kwargs)

        monkeypatch.setattr(opt, "_normal_law_arrays", bad_unvisited_rows)
        monkeypatch.setattr(opt, "_normal_law_kernel", raising_off_the_walk)
        assert find_threshold(t) == want
        assert len(unvisited) >= 4  # four of a table's seven rows are never visited


def record_tables(monkeypatch):
    """Wrap optimizer._row_solver, which find_threshold asks for indicators:
    each call appends its energies and the (row, at_boundary) of every row
    solved from them, in order."""
    tables, row_solver = [], opt._row_solver

    def recording(ns, t, indicator):
        assert indicator
        at_boundary, solved = row_solver(ns, t, indicator), []
        tables.append((list(ns), solved))

        def recorded(i):
            flag = at_boundary(i)
            solved.append((i, flag))
            return flag

        return recorded

    monkeypatch.setattr(opt, "_row_solver", recording)
    return tables


class TestNestedMidpoints:
    """Each joint bisection table holds the interior of the sorted list that
    BISECTION_LEVELS rounds of geometric midpoints make of the bracket [lo, hi],
    and the walk over it is a bisection of the list by index."""

    CASES = [(z, lam, {}) for lam in (0.01, 100.0) for z in range(4, 13)] + [
        (4, 1.0, dict(n_hi=1e6, samples=21)), (5, 100.0, dict(n_hi=1e6, samples=15)),
        (6, 1.0, dict(n_hi=1e6, samples=12)),
    ]

    @pytest.mark.parametrize("zeta, lam, kw", CASES)
    def test_each_table_is_the_sorted_list_of_nested_midpoints(self, monkeypatch, zeta, lam, kw):
        tables = record_tables(monkeypatch)
        n_th = find_threshold(target("joint", zeta, lam), **kw)
        (ns, solved), *rounds = tables
        i = [flag for _, flag in solved].index(False)  # the samples' crossing is (ns[i - 1], ns[i])
        lo, hi = ns[i - 1], ns[i]
        assert rounds
        for r, (rows, walk) in enumerate(rounds, 1):
            assert len(rows) == 2**opt.BISECTION_LEVELS - 1
            assert all(a < b for a, b in zip(rows, rows[1:])), "the rows are not in ascending order"
            points = [lo, *rows, hi]
            for m in range(1, len(points) - 1):
                h = m & -m  # the round that inserted points[m] put it between the points h places either side
                assert points[m] == math.sqrt(points[m - h] * points[m + h])
            # only the last round's walk stops inside its table, where the bracket reaches THRESHOLD_REL_TOL
            assert len(walk) == opt.BISECTION_LEVELS if r < len(rounds) else 1 <= len(walk) <= opt.BISECTION_LEVELS
            i, k = 0, len(points) - 1
            for row, at_boundary in walk:
                assert row + 1 == (i + k) // 2
                i, k = (row + 1, k) if at_boundary else (i, row + 1)
            lo, hi = points[i], points[k]
        assert hi / lo - 1.0 <= opt.THRESHOLD_REL_TOL and n_th == math.sqrt(lo * hi)


class TestZeroPhaseOptimality:
    def test_vacuum_trivially_optimal(self):
        assert verify_zero_phase_optimality(0.0, 0.0, ModelSpec(lambda_eff=1.0, zeta=2), 8)

    def test_representative_panels(self):
        assert verify_zero_phase_optimality(3.0, 0.5, ModelSpec(lambda_eff=1.0, zeta=3), 16)
        assert verify_zero_phase_optimality(
            3.0, 0.99, ModelSpec(lambda_eff=1.0, zeta=4), 16, kind=TargetKind.F_ZETA
        )

    def test_grid_too_small(self):
        with pytest.raises(DomainError):
            verify_zero_phase_optimality(1.0, 0.5, ModelSpec(lambda_eff=1.0, zeta=2), 4)

    def test_joint_not_supported(self):
        with pytest.raises(DomainError):
            verify_zero_phase_optimality(
                1.0, 0.5, ModelSpec(lambda_eff=1.0, zeta=2), 8, kind=TargetKind.JOINT_BOUND
            )
