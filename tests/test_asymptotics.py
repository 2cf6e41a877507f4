import math

import pytest

from mp_reference import high_energy_prefactor, vacuum_amplitude
from nlprobe.asymptotics import (
    gamma_opt_high_n,
    qfi_high_n,
    qfi_lambda_low_n,
    qfi_zeta_low_n,
)
from nlprobe.combinatorics import normal_law_polynomials
from nlprobe.errors import OVERFLOW, DomainError
from nlprobe.probe import make_probe
from nlprobe.qfi_core import ModelSpec, qfi_lambda, qfi_zeta

ENERGIES, GAMMAS = (0.0, 1e-6, 1e-3, 0.5, 1e4), (0.0, 0.3, 0.75, 1.0)


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

    @pytest.mark.parametrize("zeta", range(1, 25))
    def test_equals_the_hand_derived_law_bit_for_bit(self, zeta):
        # 4 A(zeta) / 2^zeta (1 + 2 zeta sqrt(gamma N)) and its order form, in
        # the order of operations written out here
        for n in ENERGIES:
            for g in GAMMAS:
                root = math.sqrt(g * n)
                want = 4.0 * vacuum_amplitude(zeta) / 2.0**zeta * (1.0 + 2.0 * zeta * root)
                assert qfi_lambda_low_n(n, g, zeta) == want
                if zeta >= 2:
                    lead = 4.0 * 1.5**2 * zeta**2 * vacuum_amplitude(zeta - 1) / 2.0 ** (zeta - 1)
                    assert qfi_zeta_low_n(n, g, zeta, 1.5) == lead * (1.0 + 2.0 * (zeta - 1) * root)

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
        assert got == pytest.approx(4.0**5 * 2**2 * 0.4 * 0.6**3 * 100.0**4, rel=1e-14)

    def test_examples(self):
        assert qfi_high_n(1.0, 1.0, 1, "lambda") == 16.0
        assert qfi_high_n(1.0, 0.0, 2, "lambda") == 0.0

    @pytest.mark.parametrize("zeta", range(1, 25))
    def test_equals_the_hand_derived_law_bit_for_bit(self, zeta):
        # B_gamma(zeta) N^(3 zeta - 2) and lambda^2 zeta^2 B_gamma(zeta - 1) N^(3 zeta - 5)
        for n in ENERGIES[1:4]:
            for g in GAMMAS:
                assert qfi_high_n(n, g, zeta, "lambda") == high_energy_prefactor(zeta, g) * n ** (3 * zeta - 2)
                if zeta >= 2:
                    want = 1.5**2 * zeta**2 * high_energy_prefactor(zeta - 1, g) * n ** (3 * zeta - 5)
                    assert qfi_high_n(n, g, zeta, "zeta", lambda_eff=1.5) == want

    def test_endpoints_vanish(self):
        assert qfi_high_n(50.0, 1.0, 2, "lambda") == 0.0
        assert qfi_high_n(50.0, 0.0, 3, "lambda") == 0.0

    def test_order_target_shifts_down(self):
        got = qfi_high_n(100.0, 0.5, 3, "zeta", lambda_eff=2.0)
        assert got == pytest.approx(4.0 * 9.0 * 4.0**5 * 2**2 * 0.5 * 0.5**3 * 100.0**4, rel=1e-14)

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


class TestInputsAndRange:
    # one check for the three laws: a finite energy and gamma in [0, 1]; a
    # value beyond the double range raises the package's one OverflowError
    LAWS = {
        "lambda_low": lambda n, g: qfi_lambda_low_n(n, g, 2),
        "zeta_low": lambda n, g: qfi_zeta_low_n(n, g, 2, 1.0),
        "high": lambda n, g: qfi_high_n(n, g, 2, "lambda"),
    }

    @pytest.mark.parametrize("law", sorted(LAWS))
    @pytest.mark.parametrize("n", [math.inf, math.nan])
    def test_energy_must_be_finite(self, law, n):
        with pytest.raises(DomainError, match="n_total must be >=? 0 and finite"):
            self.LAWS[law](n, 0.5)

    @pytest.mark.parametrize("law", sorted(LAWS))
    @pytest.mark.parametrize("gamma", [1.5, -0.1, math.nan])
    def test_gamma_must_lie_in_the_unit_interval(self, law, gamma):
        with pytest.raises(DomainError, match=r"outside \[0, 1\]"):
            self.LAWS[law](1.0, gamma)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: qfi_high_n(1e100, 0.5, 2, "lambda"),  # float ** raises its own error
            lambda: qfi_zeta_low_n(1e-3, 0.5, 3, 1e200),  # so does lambda ** 2
            lambda: qfi_high_n(1e10, 0.5, 12, "zeta", lambda_eff=1e300),
            lambda: qfi_lambda_low_n(1e300, 1.0, 150),  # a product gives inf
            lambda: qfi_lambda_low_n(0.0, 0.5, 151),  # V[0] is beyond double
        ],
        ids=["high-energy-power", "coupling-square", "coupling-square-high", "product", "constant-term"],
    )
    def test_a_value_beyond_double_raises_the_one_overflow(self, call):
        with pytest.raises(OverflowError) as info:
            call()
        assert info.value.args == (OVERFLOW,)

    def test_large_orders_fit_where_the_constant_term_does(self):
        # 4 A(134) is beyond double, 4 A(134) / 2^134 is not
        assert qfi_lambda_low_n(0.0, 0.5, 134) == 4.0 * normal_law_polynomials(134)[0][0] == 8.453601521954912e267


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
