from fractions import Fraction

import pytest

from nlprobe.combinatorics import (
    OrderingCoeff,
    amplitude_A,
    coeff_row_sum,
    normal_law_covariance,
    normal_law_polynomials,
    normal_order_coeff,
    scaling_B,
)
from nlprobe.errors import DomainError


class TestNormalOrderCoeff:
    def test_identity_base_case(self):
        assert normal_order_coeff(0, 0, 0) == 1

    def test_quadratic_expansion(self):
        # (a+a^dag)^2 = a^dag^2 + 2 a^dag a + a^2 + 1
        assert normal_order_coeff(2, 0, 1) == 2
        assert normal_order_coeff(2, 1, 0) == 1
        assert normal_order_coeff(2, 0, 0) == 1
        assert normal_order_coeff(2, 0, 2) == 1

    def test_values_are_positive_integers(self):
        for zeta in range(13):
            for m in range(zeta // 2 + 1):
                for s in range(zeta - 2 * m + 1):
                    c = normal_order_coeff(zeta, m, s)
                    assert c > 0
                    assert c.denominator == 1

    @pytest.mark.parametrize("zeta,m,s", [(2, 2, 0), (2, 0, 3), (3, 1, 2), (0, 0, 1)])
    def test_out_of_range_indices(self, zeta, m, s):
        with pytest.raises(DomainError):
            normal_order_coeff(zeta, m, s)

    def test_ordering_coeff_factory(self):
        c = OrderingCoeff.make(4, 1, 2)
        assert c.value == normal_order_coeff(4, 1, 2)


class TestRowSum:
    @pytest.mark.parametrize(
        "zeta,k,expected",
        [(2, 1, 1), (2, 0, 4), (1, 0, 2)],
    )
    def test_examples(self, zeta, k, expected):
        assert coeff_row_sum(zeta, k) == expected

    def test_identity_exact_up_to_30(self):
        for zeta in range(31):
            for k in range(zeta // 2 + 1):
                direct = sum(
                    (normal_order_coeff(zeta, k, s) for s in range(zeta - 2 * k + 1)),
                    Fraction(0),
                )
                assert coeff_row_sum(zeta, k) == direct

    def test_total_sum_both_evaluation_orders(self):
        # summing all C(zeta,m,s) term by term must equal summing the closed
        # row formulas, exactly
        for zeta in range(31):
            by_terms = sum(
                normal_order_coeff(zeta, m, s)
                for m in range(zeta // 2 + 1)
                for s in range(zeta - 2 * m + 1)
            )
            by_rows = sum(coeff_row_sum(zeta, k) for k in range(zeta // 2 + 1))
            assert by_terms == by_rows

    def test_k_out_of_range(self):
        with pytest.raises(DomainError):
            coeff_row_sum(4, 3)


def _poly(coeffs, x):
    return sum((c * x**i for i, c in enumerate(coeffs)), start=Fraction(0))


class TestNormalLawPolynomials:
    @pytest.mark.parametrize("zeta", range(1, 13))
    def test_equal_the_closed_form_moments_exactly(self, zeta):
        # moments from the row sums, sum_j c_j alpha^(k-2j) E^(k-j) on the real
        # axis, at rational alpha and E; there mu = 2 alpha E and sigma^2 = E
        alpha, e = Fraction(3, 7), Fraction(5, 2)

        def m(k):
            return sum(coeff_row_sum(k, j) * alpha ** (k - 2 * j) * e ** (k - j) for j in range(k // 2 + 1))

        var_z, var_zm1 = m(2 * zeta) - m(zeta) ** 2, m(2 * zeta - 2) - m(zeta - 1) ** 2
        cov = m(2 * zeta - 1) - m(zeta) * m(zeta - 1)
        v, w, g = normal_law_polynomials(zeta)
        x = (2 * alpha * e) ** 2 / e
        assert _poly(v, x) * e**zeta == var_z
        assert _poly(w, x) * e ** (zeta - 1) == var_zm1
        assert _poly(g, x) * e ** (2 * zeta - 1) == var_z * var_zm1 - cov**2

    @pytest.mark.parametrize("zeta", range(1, 25))
    def test_degrees_and_signs(self, zeta):
        v, w, g = normal_law_polynomials(zeta)
        assert (len(v), len(w), len(g)) == (zeta, zeta - 1, max(2 * zeta - 3, 0))
        assert all(c > 0 for c in v + w)
        assert all(c > 0 for i, c in enumerate(g) if i != 1)
        if zeta >= 3:
            assert (g[1] < 0) if zeta % 2 else (g[1] == 0)

    @pytest.mark.parametrize("zeta", range(3, 25, 2))
    def test_negative_term_keeps_the_determinant_well_conditioned(self, zeta):
        g = normal_law_polynomials(zeta)[2]
        abs_g = [abs(c) for c in g]
        for i in range(-80, 81):
            x = Fraction(10.0 ** (i / 10))
            assert _poly(abs_g, x) < 2 * _poly(g, x)

    def test_zeta_zero_rejected(self):
        with pytest.raises(DomainError):
            normal_law_polynomials(0)
        with pytest.raises(DomainError):
            normal_law_covariance(0)


class TestNormalLawCovariance:
    @pytest.mark.parametrize("zeta", range(1, 13))
    @pytest.mark.parametrize("exact_family", [False, True])
    def test_equals_the_closed_form_moments_exactly(self, zeta, exact_family):
        # row-sum moments sum_j c_j alpha^(k-2j) E^p(j) at rational alpha and E,
        # p(j) = k - j (mean 2 alpha E) or j (state-exact, mean 2 alpha); sigma^2 = E
        alpha, e = Fraction(3, 7), Fraction(5, 2)

        def m(k):
            return sum(
                coeff_row_sum(k, j) * alpha ** (k - 2 * j) * e ** (j if exact_family else k - j)
                for j in range(k // 2 + 1)
            )

        mean = 2 * alpha * (1 if exact_family else e)
        q = normal_law_covariance(zeta)
        assert _poly(q, mean**2 / e) * mean * e ** (zeta - 1) == m(2 * zeta - 1) - m(zeta) * m(zeta - 1)

    def test_examples(self):
        assert normal_law_covariance(1) == ()
        assert normal_law_covariance(2) == (2,)
        assert normal_law_covariance(3) == (12, 6)
        assert normal_law_covariance(4) == (96, 84, 12)

    @pytest.mark.parametrize("zeta", range(1, 25))
    def test_degree_and_signs(self, zeta):
        q = normal_law_covariance(zeta)
        assert len(q) == zeta - 1
        assert all(type(c) is int and c > 0 for c in q)


class TestAmplitudeA:
    def test_examples(self):
        assert amplitude_A(1) == 2
        assert amplitude_A(2) == 8
        assert amplitude_A(3) == 120

    def test_even_cancellation_is_exact_at_large_order(self):
        # the even case subtracts two comparable huge integers; spot-check
        # against an independent formulation via binomials
        from math import comb, factorial

        for zeta in range(2, 25, 2):
            lead = factorial(2 * zeta) // factorial(zeta)
            sub = (factorial(zeta) // factorial(zeta // 2)) ** 2
            assert amplitude_A(zeta) == lead - sub
            assert amplitude_A(zeta) > 0

    def test_zeta_zero_rejected(self):
        with pytest.raises(DomainError):
            amplitude_A(0)


class TestScalingB:
    def test_examples(self):
        assert scaling_B(1, 1.0) == 16.0
        assert scaling_B(2, 0.0) == 0.0
        assert scaling_B(2, 0.6) == pytest.approx(4**5 * 4 * 0.4 * 0.6**3, rel=1e-14)

    def test_argmax_matches_high_energy_optimum(self):
        # argmax over gamma of (1-g)^(z-1) g^(2z-1) is (2z-1)/(3z-2)
        from nlprobe.asymptotics import gamma_opt_high_n

        for zeta in range(1, 9):
            grid = [i / 20000 for i in range(20001)]
            best = max(grid, key=lambda g: scaling_B(zeta, g))
            assert best == pytest.approx(gamma_opt_high_n(zeta), abs=1e-4)

    def test_domain(self):
        with pytest.raises(DomainError):
            scaling_B(0, 0.5)
        with pytest.raises(DomainError):
            scaling_B(2, 1.5)
