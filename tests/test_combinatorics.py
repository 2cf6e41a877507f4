from fractions import Fraction

import pytest

from mp_reference import vacuum_amplitude
from nlprobe.combinatorics import coeff_row_sum, normal_law_polynomials, normal_order_coeff
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
                    assert type(c) is int and c > 0

    @pytest.mark.parametrize(
        "zeta,m,s", [(2, 2, 0), (2, 0, 3), (3, 1, 2), (0, 0, 1), (-1, 0, 0), (2, -1, 0), (2, 0, -1)]
    )
    def test_out_of_range_indices(self, zeta, m, s):
        with pytest.raises(DomainError):
            normal_order_coeff(zeta, m, s)


class TestRowSum:
    @pytest.mark.parametrize(
        "zeta,k,expected",
        [(2, 1, 1), (2, 0, 4), (1, 0, 2)],
    )
    def test_examples(self, zeta, k, expected):
        assert coeff_row_sum(zeta, k) == expected
        assert type(coeff_row_sum(zeta, k)) is int

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
        v, w, g, _ = normal_law_polynomials(zeta)
        x = (2 * alpha * e) ** 2 / e
        assert _poly(v, x) * e**zeta == var_z
        assert _poly(w, x) * e ** (zeta - 1) == var_zm1
        assert _poly(g, x) * e ** (2 * zeta - 1) == var_z * var_zm1 - cov**2

    @pytest.mark.parametrize("zeta", range(1, 25))
    def test_degrees_and_signs(self, zeta):
        v, w, g, _ = normal_law_polynomials(zeta)
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
        q = normal_law_polynomials(zeta)[3]
        assert _poly(q, mean**2 / e) * mean * e ** (zeta - 1) == m(2 * zeta - 1) - m(zeta) * m(zeta - 1)

    def test_examples(self):
        assert [normal_law_polynomials(zeta)[3] for zeta in (1, 2, 3, 4)] == [(), (2,), (12, 6), (96, 84, 12)]

    @pytest.mark.parametrize("zeta", range(1, 25))
    def test_degree_and_signs(self, zeta):
        q = normal_law_polynomials(zeta)[3]
        assert len(q) == zeta - 1
        assert all(type(c) is int and c > 0 for c in q)


class TestEndTerms:
    # the limits of nlprobe.asymptotics: the constant terms of V and W are the
    # vacuum variances, the top ones the zeta^2 of the high-energy prefactor
    def test_examples(self):
        assert [2**zeta * normal_law_polynomials(zeta)[0][0] for zeta in (1, 2, 3)] == [2, 8, 120]

    @pytest.mark.parametrize("zeta", range(1, 25))
    def test_constant_terms_are_the_vacuum_amplitude(self, zeta):
        # the even case subtracts two comparable huge integers
        v, w, _, _ = normal_law_polynomials(zeta)
        assert 2**zeta * v[0] == vacuum_amplitude(zeta) > 0
        assert zeta == 1 or 2 ** (zeta - 1) * w[0] == vacuum_amplitude(zeta - 1)

    @pytest.mark.parametrize("zeta", range(1, 25))
    def test_top_coefficients_are_the_squared_orders(self, zeta):
        v, w, _, _ = normal_law_polynomials(zeta)
        assert v[-1] == zeta**2
        assert zeta == 1 or w[-1] == (zeta - 1) ** 2
