import math

import pytest

from nlprobe.asymptotics import (
    gamma_opt_high_n,
    qfi_high_n,
    qfi_lambda_low_n,
    qfi_zeta_low_n,
)
from nlprobe.combinatorics import scaling_B
from nlprobe.errors import DomainError
from nlprobe.probe import make_probe
from nlprobe.qfi_core import ModelSpec, qfi_lambda, qfi_zeta


class TestLowEnergy:
    def test_vacuum_limits(self):
        assert qfi_lambda_low_n(0.0, 0.3, 2) == pytest.approx(8.0)
        assert qfi_lambda_low_n(0.0, 0.9, 3) == pytest.approx(60.0)
        assert qfi_zeta_low_n(0.0, 0.5, 2, 1.0) == pytest.approx(16.0)
        assert qfi_zeta_low_n(0.0, 0.5, 3, 1.0) == pytest.approx(72.0)

    def test_coherent_has_no_sqrt_correction(self):
        assert qfi_lambda_low_n(0.7, 0.0, 2) == pytest.approx(8.0)
        assert qfi_zeta_low_n(0.5, 0.0, 2, 2.0) == pytest.approx(64.0)

    def test_vacuum_limit_matches_exact_qfi(self):
        # the N -> 0 value must agree with the exact vacuum QFI for every order
        vac = make_probe(0.0, 0.0)
        for zeta in (1, 2, 3, 4, 5):
            exact = qfi_lambda(vac, ModelSpec(lambda_eff=1.0, zeta=zeta))
            assert qfi_lambda_low_n(0.0, 0.0, zeta) == pytest.approx(exact, rel=1e-11)

    @pytest.mark.parametrize("n", [1e-4, 1e-3])
    @pytest.mark.parametrize("zeta", [2, 3, 4])
    @pytest.mark.parametrize("gamma", [0.25, 1.0])
    def test_accuracy_window(self, n, zeta, gamma):
        # one order beyond the retained sqrt(gamma N) term
        p = make_probe(n, gamma)
        exact = qfi_lambda(p, ModelSpec(lambda_eff=1.0, zeta=zeta))
        approx = qfi_lambda_low_n(n, gamma, zeta)
        assert abs(approx - exact) / exact <= 10.0 * math.sqrt(n)

    @pytest.mark.parametrize("n", [1e-4, 1e-3])
    @pytest.mark.parametrize("zeta", [2, 3, 4])
    @pytest.mark.parametrize("gamma", [0.25, 1.0])
    def test_accuracy_window_order_target(self, n, zeta, gamma):
        p = make_probe(n, gamma)
        exact = qfi_zeta(p, ModelSpec(lambda_eff=1.0, zeta=zeta))
        approx = qfi_zeta_low_n(n, gamma, zeta, 1.0)
        assert abs(approx - exact) / exact <= 10.0 * math.sqrt(n)

    def test_order_one_rejected(self):
        with pytest.raises(DomainError):
            qfi_zeta_low_n(0.1, 0.5, 1, 1.0)

    def test_negative_energy_rejected(self):
        with pytest.raises(DomainError, match="n_total must be >= 0"):
            qfi_lambda_low_n(-1e-3, 0.5, 2)
        with pytest.raises(DomainError, match="n_total must be >= 0"):
            qfi_zeta_low_n(-1e-3, 0.5, 2, 1.0)


class TestHighEnergy:
    def test_scaling_prefactor(self):
        got = qfi_high_n(100.0, 0.6, 2, "lambda")
        assert got == pytest.approx(scaling_B(2, 0.6) * 100.0**4, rel=1e-14)

    def test_endpoints_vanish(self):
        assert qfi_high_n(50.0, 1.0, 2, "lambda") == 0.0
        assert qfi_high_n(50.0, 0.0, 3, "lambda") == 0.0

    def test_order_target_shifts_down(self):
        got = qfi_high_n(100.0, 0.5, 3, "zeta", lambda_eff=2.0)
        assert got == pytest.approx(4.0 * 9.0 * scaling_B(2, 0.5) * 100.0**4, rel=1e-14)

    @pytest.mark.parametrize("zeta", [2, 3])
    @pytest.mark.parametrize("gamma", [0.4, 0.6])
    def test_exact_ratio_approaches_one(self, zeta, gamma):
        n = 1e4
        exact = qfi_lambda(make_probe(n, gamma), ModelSpec(lambda_eff=1.0, zeta=zeta))
        assert exact / qfi_high_n(n, gamma, zeta, "lambda") == pytest.approx(1.0, abs=0.1)

    def test_bad_which(self):
        with pytest.raises(DomainError):
            qfi_high_n(10.0, 0.5, 2, "both")

    @pytest.mark.parametrize("n", [0.0, -1.0])
    def test_energy_must_be_positive(self, n):
        with pytest.raises(DomainError, match="n_total must be > 0"):
            qfi_high_n(n, 0.5, 2, "lambda")

    def test_order_target_needs_order_two(self):
        with pytest.raises(DomainError, match="requires zeta >= 2"):
            qfi_high_n(10.0, 0.5, 1, "zeta", lambda_eff=1.0)


class TestGammaOptHighN:
    def test_order_zero_rejected(self):
        with pytest.raises(DomainError, match="requires zeta >= 1"):
            gamma_opt_high_n(0)

    def test_values(self):
        assert gamma_opt_high_n(1) == pytest.approx(1.0)
        assert gamma_opt_high_n(2) == pytest.approx(0.75)
        assert gamma_opt_high_n(3) == pytest.approx(5.0 / 7.0)

    def test_monotone_to_two_thirds(self):
        vals = [gamma_opt_high_n(z) for z in range(1, 30)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert all(v > 2.0 / 3.0 for v in vals)
        assert vals[-1] == pytest.approx(2.0 / 3.0, abs=0.01)

    @pytest.mark.parametrize("zeta", [2, 3, 4, 5, 6])
    def test_equals_argmax_of_scaling_law(self, zeta):
        grid = [i / 200000 for i in range(1, 200000)]
        best = max(grid, key=lambda g: qfi_high_n(10.0, g, zeta, "lambda"))
        assert abs(best - gamma_opt_high_n(zeta)) <= 1e-5
