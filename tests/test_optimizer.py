import math
import random

import numpy as np
import pytest

import mp_reference
import nlprobe.optimizer as opt
from nlprobe.asymptotics import gamma_opt_high_n
from nlprobe.errors import DomainError, NlprobeError, NumericalRangeError, ThresholdAmbiguousError
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
from nlprobe.qfi_core import ModelSpec, _normal_law_kernel, normal_law_grid

ANALYTIC_NTH = (3.0 * math.sqrt(2.0) - 4.0) / 8.0


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

    def test_overflow_becomes_numerical_range_error(self):
        with pytest.raises(NumericalRangeError):
            optimize_gamma(1e40, target("f_lambda", 12))


C = (3.0 - math.sqrt(5.0)) / 2.0
ZEPS = math.sqrt(2.0**-52)


def loop_optimize(n, t, coarse):
    """Frozen copy of the scalar optimizer that optimize_gamma_grid batches,
    over the public objective point by point: Brent's minimization (as in
    Numerical Recipes' brent) of -objective on each candidate's bracket; an
    end candidate of f_lambda or f_zeta only where the objective GAMMA_TOL
    inside the end beats the end. at_boundary in its current meaning,
    gamma_opt == 1.0."""

    def cost(g):
        try:
            return -objective(g, n, t)
        except OverflowError as exc:
            raise NumericalRangeError(opt.OVERFLOW_MESSAGE) from exc

    def brent(a, b, x, fx):
        """Minimum (x, cost(x)) of cost on [a, b] from x, where cost(x) = fx."""
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
            fu = cost(u)
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

    grid = [i / (coarse - 1) for i in range(coarse)]
    vals = [-cost(g) for g in grid]
    assert all(math.isfinite(v) for v in vals)

    def is_local_max(i):
        return (i == 0 or vals[i] >= vals[i - 1]) and (i == coarse - 1 or vals[i] >= vals[i + 1])

    candidates = sorted((i for i in range(coarse) if is_local_max(i)), key=lambda i: vals[i], reverse=True)[:3]
    best_g, best_v = None, -math.inf
    for i in candidates:
        if i == 0:
            g, c = 0.0, -vals[0]
            if t.kind is TargetKind.JOINT_BOUND or -cost(1e-6) > vals[0]:
                g, c = brent(grid[0], grid[1], 1e-6, cost(1e-6))
        elif i == coarse - 1:
            g, c = 1.0, -vals[-1]
            if t.kind is TargetKind.JOINT_BOUND or -cost(1.0 - 1e-6) > vals[-1]:
                g, c = brent(grid[-2], grid[-1], 1.0 - 1e-6, cost(1.0 - 1e-6))
        else:
            start = grid[i - 1] + C * (grid[i + 1] - grid[i - 1])
            g, c = brent(grid[i - 1], grid[i + 1], start, cost(start))
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
    # N = 1e4 to 1e5 beats the coherent probe's, at zero phase and lambda = 1
    SLOPES = {  # target: (optimized, coherent) at zeta 2, 3, 4, 5
        "f_lambda": ((4, 7, 10, 13), (1, 2, 3, 4)),  # 3 zeta - 2, zeta - 1
        "f_zeta": ((1, 4, 7, 10), (0, 1, 2, 3)),  # 3 zeta - 5, zeta - 2
        "joint": ((1, 2, 5, 8), (-1, 0, 1, 2)),  # zeta - 3 for the coherent probe
    }

    @pytest.mark.parametrize("kind", sorted(SLOPES))
    def test_log_log_slopes(self, kind):
        for zeta, optimized, coherent in zip((2, 3, 4, 5), *self.SLOPES[kind]):
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

    # objectives of gamma alone, exact in both forms: a spike that only the
    # third-best coarse maximum brackets; the same with a higher spike beside
    # a fourth-best maximum, which is not refined; and a five-point plateau
    # whose middle bracket hides a spike (ties: every plateau point is a maximum)
    SPIKE = ((3.0, 40.0, 0.2), (2.0, 40.0, 0.5), (1.0, 40.0, 0.8), (5.0, 2000.0, 0.80078))
    FOURTH = SPIKE + ((0.5, 40.0, 0.95), (6.0, 2000.0, 0.94921875))
    PLATEAU = ((4.0, 1500.0, 0.50390625),)

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
            ([1.0, 1e40, -1.0], NumericalRangeError, "objective overflowed double precision"),
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
    """Brent's method refines interior brackets; an end candidate costs one
    kernel call GAMMA_TOL inside the end, and its cell is refined only where
    that call is higher than the end, or for the joint bound."""

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

    @pytest.mark.parametrize("kind, zeta, n", [("f_lambda", 2, 0.01), ("f_lambda", 6, 0.01), ("f_zeta", 2, 1e4),
                                               ("f_zeta", 5, 0.01)])
    def test_a_row_rising_into_one_costs_one_call(self, monkeypatch, kind, zeta, n):
        calls = self.count_calls(monkeypatch)
        res = optimize_gamma(n, target(kind, zeta))
        assert res.at_boundary and res.gamma_opt == 1.0
        assert calls == [1.0 - opt.GAMMA_TOL]

    @pytest.mark.parametrize("kind, zeta", [("f_lambda", z) for z in range(2, 7)] + [("f_zeta", z) for z in range(3, 7)]
                             + [("joint", z) for z in range(4, 7)])
    def test_an_interior_row_costs_at_most_twelve_calls_a_candidate(self, monkeypatch, kind, zeta):
        t = target(kind, zeta)
        vals = objective_grid([i / 128 for i in range(129)], 1e3, t)
        candidates = min(3, sum((i == 0 or vals[i] >= vals[i - 1]) and (i == 128 or vals[i] >= vals[i + 1])
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
        t, rel_tol, h = target(kind, zeta), 1e-4, 1e-7
        n_th = find_threshold(t, rel_tol=rel_tol)

        def slope(n):  # 40-digit values, one rounding each
            return (mp_reference.objective(1.0, n, t) - mp_reference.objective(1.0 - h, n, t)) / h

        assert slope(n_th * (1.0 - rel_tol)) > 0.0 > slope(n_th * (1.0 + rel_tol))


class TestFindThreshold:
    def test_coupling_order_two_analytic_value(self):
        n_th = find_threshold(target("f_lambda", 2))
        assert n_th == pytest.approx(ANALYTIC_NTH, abs=5e-4)

    def test_coupling_order_four_shares_the_value(self):
        n_th = find_threshold(target("f_lambda", 4))
        assert n_th == pytest.approx(ANALYTIC_NTH, abs=5e-4)

    @pytest.mark.parametrize(
        "kw",
        [dict(samples=1), dict(n_hi=1e-5), dict(n_hi=opt.THRESHOLD_N_LO)],
        ids=["samples-1", "n-hi-below-n-lo", "empty-range"],
    )
    def test_empty_search_range_rejected(self, kw):
        with pytest.raises(DomainError):
            find_threshold(target("f_lambda", 2), **kw)

    def test_order_target_zeta_five(self):
        n_th = find_threshold(target("f_zeta", 5))
        assert n_th == pytest.approx(ANALYTIC_NTH, abs=1e-3)

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

    @pytest.mark.parametrize("rel_tol", [0.0, -1e-4, math.nan, math.inf])
    def test_rel_tol_must_be_finite_and_positive(self, rel_tol):
        with pytest.raises(DomainError):
            find_threshold(target("f_lambda", 2), rel_tol=rel_tol)

    def test_rel_tol_below_double_resolution_terminates(self):
        # the bracket stops shrinking once lo and hi are adjacent doubles
        n_th = find_threshold(target("f_lambda", 2), rel_tol=1e-20)
        assert n_th == pytest.approx(ANALYTIC_NTH, abs=5e-4)

    def test_non_monotone_indicator_raises(self, monkeypatch):
        flags = {0.001: True, 0.01: False, 0.1: True, 1.0: False}

        def fake_optimize_grid(ns, *a, **k):
            at_b = [min(flags, key=lambda key: abs(math.log(n / key))) for n in ns]
            return [GammaOptResult(1.0 if flags[b] else 0.5, 1.0, flags[b], n) for b, n in zip(at_b, ns)]

        monkeypatch.setattr(opt, "optimize_gamma_grid", fake_optimize_grid)
        with pytest.raises(ThresholdAmbiguousError) as info:
            opt.find_threshold(target("f_lambda", 2), n_hi=1.0, samples=7)
        assert len(info.value.crossings) > 1


def loop_threshold(t, *, n_hi=1e3, rel_tol=1e-4, samples=15, visited=None):
    """Frozen copy of find_threshold bisecting with one optimize_gamma(mid)
    per step; each energy it refines is appended to visited."""
    n_lo = opt.THRESHOLD_N_LO
    if samples < 2 or not n_lo < n_hi:
        raise DomainError(f"threshold search needs samples >= 2 and n_hi > {n_lo}, got {samples} {n_hi}")
    if not 0 < rel_tol < math.inf:
        raise DomainError(f"threshold search needs a finite rel_tol > 0, got {rel_tol}")
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
    while hi / lo - 1.0 > rel_tol:
        mid = math.sqrt(lo * hi)
        if not lo < mid < hi:
            break
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
    """find_threshold solves the midpoints of BISECTION_LEVELS steps from one
    table; its lo, hi and result equal those of one optimize_gamma per step."""

    JOINT = [(3, 1.0, 21), (4, 1.0, 21), (5, 100.0, 15), (6, 1.0, 12), (2, 0.01, 51)]

    @pytest.mark.parametrize("kind", ["f_lambda", "f_zeta"])
    @pytest.mark.parametrize("zeta", range(2, 13))
    def test_individual_targets(self, kind, zeta):
        t = target(kind, zeta)
        assert outcome(find_threshold, t) == outcome(loop_threshold, t)

    @pytest.mark.parametrize("zeta, lam, samples", JOINT)
    def test_joint_inputs(self, zeta, lam, samples):
        t = target("joint", zeta, lam)
        kw = dict(n_hi=1e6, samples=samples)
        assert outcome(find_threshold, t, **kw) == outcome(loop_threshold, t, **kw)

    @pytest.mark.parametrize("rel_tol", [1e-20, 1e-9, 0.3, 50.0], ids=["adjacent-doubles", "fine", "coarse", "no-step"])
    def test_stop_rules(self, rel_tol):
        for t in (target("f_lambda", 2), target("f_zeta", 5)):
            visited = []
            want = outcome(loop_threshold, t, rel_tol=rel_tol, visited=visited)
            assert outcome(find_threshold, t, rel_tol=rel_tol) == want
            assert (len(visited) == 0) is (rel_tol == 50.0)

    def test_a_bad_point_on_a_row_never_visited_raises_nothing(self, monkeypatch):
        t, visited = target("f_lambda", 3), []
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
