import math

import pytest

import nlprobe.optimizer as opt
from nlprobe.asymptotics import gamma_opt_high_n
from nlprobe.errors import DomainError, NumericalRangeError, ThresholdAmbiguousError
from nlprobe.optimizer import (
    GammaOptResult,
    OptTarget,
    TargetKind,
    find_threshold,
    objective,
    optimize_gamma,
    verify_zero_phase_optimality,
)
from nlprobe.qfi_core import ModelSpec

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
        for gamma in (0.0, 0.4, 1.0):
            fast = objective(gamma, 2.0, t)
            slow = objective(gamma, 2.0, t, theta=2 * math.pi, phi=0.0)  # same probe, through the phase terms
            assert fast == pytest.approx(slow, rel=1e-10)

    def test_joint_objective_positive(self):
        assert objective(0.5, 1.0, target("joint", 3)) > 0.0

    def test_joint_objective_fits_where_its_entries_products_do_not(self):
        # f_ll f_zz ~ 1.5e417 overflows, det F / tr F does not; the value is
        # from an 80-digit normal-law moment recursion
        assert objective(0.5, 1e6, target("joint", 12)) == pytest.approx(1.870925172296251859e187, rel=1e-12)

    def test_joint_matches_extended_at_high_energy(self):
        # the double determinant cancels about 2 log10(N) digits; the exact
        # polynomials lose none of them
        t = target("joint", 4)
        for n in (1e3, 1e6):
            assert objective(0.8, n, t) == pytest.approx(objective(0.8, n, t, extended=True), rel=1e-12)


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
        with pytest.raises(DomainError):
            optimize_gamma(1.0, target("f_lambda", 2), coarse=32)

    def test_overflow_becomes_numerical_range_error(self):
        with pytest.raises(NumericalRangeError):
            optimize_gamma(1e40, target("f_lambda", 12))


class TestFindThreshold:
    def test_coupling_order_two_analytic_value(self):
        n_th = find_threshold(target("f_lambda", 2))
        assert n_th == pytest.approx(ANALYTIC_NTH, abs=5e-4)

    def test_coupling_order_four_shares_the_value(self):
        n_th = find_threshold(target("f_lambda", 4))
        assert n_th == pytest.approx(ANALYTIC_NTH, abs=5e-4)

    @pytest.mark.parametrize(
        "kw",
        [dict(samples=1), dict(n_hi=1e-5), dict(n_lo=1.0, n_hi=1.0)],
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
        # N = 1e6, as the 40-digit path confirms
        individual = find_threshold(target("f_lambda", 4))
        joint = find_threshold(target("joint", 4, lam=1.0), n_hi=1e6, samples=21)
        assert joint == pytest.approx(1.28139, abs=1e-3)
        assert joint > individual + 1e-4
        assert find_threshold(target("joint", 3, lam=1.0), n_hi=1e6, samples=21) == math.inf
        assert optimize_gamma(5.3e3, target("joint", 3, lam=1.0), extended=True).at_boundary

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

        def fake_optimize(n, *a, **k):
            at_b = min(flags, key=lambda key: abs(math.log(n / key)))
            return GammaOptResult(1.0 if flags[at_b] else 0.5, 1.0, flags[at_b], n)

        monkeypatch.setattr(opt, "optimize_gamma", fake_optimize)
        with pytest.raises(ThresholdAmbiguousError) as info:
            opt.find_threshold(target("f_lambda", 2), n_lo=1e-3, n_hi=1.0, samples=7)
        assert len(info.value.crossings) > 1


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
