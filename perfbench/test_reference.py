"""The reference checked against facts that do not come from nlprobe.

    python3 -m pytest perfbench/test_reference.py
"""

import decimal
import math
from decimal import Decimal
from fractions import Fraction

import pytest

import reference as R


def double_factorial(k):
    return math.prod(range(k, 0, -2))


@pytest.mark.parametrize("theta, phi", [(0.0, 0.0), (1.0, 2.5), (4.0, 0.3)])
def test_vacuum_moments_are_double_factorials(theta, phi):
    m = R.probe_moments(0.0, 0.0, 16, theta, phi)
    assert m == [0 if k % 2 else double_factorial(k - 1) for k in range(17)]


def test_coherent_example_of_the_readme():
    # N = 1, gamma = 0, zeta = 2, lambda = 1: F = (72, 16, 32), bound 128/88
    f_ll, f_zz, f_lz = R.qfi_entries(R.probe_moments(1.0, 0.0, 4), 2, 1.0)
    assert (f_ll, f_zz, f_lz) == (72, 16, 32)
    joint = R.joint_bound(f_ll, f_zz, f_lz)
    with decimal.localcontext(R.CONTEXT):
        assert abs(joint - Decimal(128) / Decimal(88)) < Decimal("1e-45")


def test_families_agree_on_pure_probes():
    for gamma in (0.0, 1.0):
        plus = R.probe_moments(2.5, gamma, 10, 0.7, 1.9, +1)
        minus = R.probe_moments(2.5, gamma, 10, 0.7, 1.9, -1)
        assert all(abs(a - b) <= Decimal("1e-40") * max(1, abs(a)) for a, b in zip(plus, minus))


def test_trig_matches_math_library():
    for x in (0.1, 1.0, 3.0, 6.2):
        cos, sin = R._cos_sin(Decimal(x))
        assert abs(float(cos) - math.cos(x)) < 1e-15
        assert abs(float(sin) - math.sin(x)) < 1e-15


def test_coherent_moments_match_binomial_sum():
    # coherent state: X = 2 alpha + vacuum noise, E[X^k] = sum C(k,j) (2a)^(k-j) (j-1)!!
    a = 1.25
    m = R.probe_moments(a * a, 0.0, 9)
    for k in range(10):
        exact = sum(
            Fraction(math.comb(k, j)) * Fraction(2 * a) ** (k - j) * double_factorial(j - 1)
            for j in range(0, k + 1, 2)
        )
        assert abs(m[k] - Decimal(exact.numerator) / Decimal(exact.denominator)) < Decimal("1e-40") * max(1, abs(m[k]))


def reference_threshold(kind, zeta, lo=0.01, hi=0.1, steps=40):
    """sup{N : the reference optimum is gamma = 1}, by geometric bisection."""
    assert R.argmax(kind, lo, zeta)[0] == 1 and R.argmax(kind, hi, zeta)[0] != 1
    for _ in range(steps):
        mid = math.sqrt(lo * hi)
        if R.argmax(kind, mid, zeta)[0] == 1:
            lo = mid
        else:
            hi = mid
    return math.sqrt(lo * hi)


@pytest.mark.parametrize("kind, zeta", [(R.F_LAMBDA, 2), (R.F_ZETA, 3)])
def test_threshold_is_analytic(kind, zeta):
    analytic = (3 * math.sqrt(2) - 4) / 8
    assert float(R.ANALYTIC_THRESHOLD) == pytest.approx(analytic, rel=1e-14)
    assert reference_threshold(kind, zeta) == pytest.approx(analytic, rel=1e-9)
