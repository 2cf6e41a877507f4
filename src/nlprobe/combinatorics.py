"""Exact combinatorics of normal-ordering the quadrature power (a + a^dag)^zeta.

Everything here is integer or rational arithmetic; floats appear only in
the high-energy scaling law, which is a plain real-valued formula.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .errors import DomainError

__all__ = [
    "OrderingCoeff",
    "normal_order_coeff",
    "coeff_row_sum",
    "normal_law_polynomials",
    "normal_law_covariance",
    "amplitude_A",
    "scaling_B",
]


def _check_index_range(zeta, m, s):
    if zeta < 0 or m < 0 or s < 0:
        raise DomainError(f"indices must be non-negative, got zeta={zeta} m={m} s={s}")
    if m > zeta // 2:
        raise DomainError(f"contraction count m={m} exceeds floor(zeta/2)={zeta // 2}")
    if s > zeta - 2 * m:
        raise DomainError(f"creation power s={s} exceeds zeta-2m={zeta - 2 * m}")


def normal_order_coeff(zeta: int, m: int, s: int) -> Fraction:
    """Coefficient of (a^dag)^s a^(zeta-2m-s) in the normal ordering of (a+a^dag)^zeta.

    Equals zeta! / (2^m m! s! (zeta-2m-s)!), computed exactly. The value is
    always a positive integer (it counts operator pairings), but it is
    returned as a Fraction so callers can keep downstream sums exact.
    """
    _check_index_range(zeta, m, s)
    return Fraction(
        factorial(zeta),
        2**m * factorial(m) * factorial(s) * factorial(zeta - 2 * m - s),
    )


@dataclass(frozen=True)
class OrderingCoeff:
    """One term of the normal-ordered expansion, with its exact coefficient."""

    zeta: int
    m: int
    s: int
    value: Fraction

    @classmethod
    def make(cls, zeta: int, m: int, s: int) -> "OrderingCoeff":
        return cls(zeta, m, s, normal_order_coeff(zeta, m, s))


def coeff_row_sum(zeta: int, k: int) -> Fraction:
    """Sum over s of the ordering coefficients at fixed contraction count k.

    Closed form 2^(zeta-3k) zeta! / (k! (zeta-2k)!). The direct term-by-term
    sum is evaluated as well and must agree exactly; a mismatch would mean a
    broken coefficient table, so it is asserted rather than tolerated.
    """
    if k < 0 or zeta < 0 or k > zeta // 2:
        raise DomainError(f"row index k={k} out of range for zeta={zeta}")
    closed = Fraction(2) ** (zeta - 3 * k) * Fraction(
        factorial(zeta), factorial(k) * factorial(zeta - 2 * k)
    )
    direct = sum(
        (normal_order_coeff(zeta, k, s) for s in range(zeta - 2 * k + 1)),
        start=Fraction(0),
    )
    assert closed == direct, f"row-sum identity violated at zeta={zeta} k={k}"
    return closed


def _normal_moment(k):
    """Coefficients of E[Y^k] for Y ~ N(m, 1), by power of m.

    C(k,2j) (2j-1)!! at m^(k-2j). Scaled by sigma, these are the moments
    sum_j C(k,2j) (2j-1)!! mu^(k-2j) sigma^(2j) of N(mu, sigma^2); by the
    binomial theorem they are the closed-form moments, whose row sums are
    coeff_row_sum(k, j) = 2^(k-2j) C(k,2j) (2j-1)!!.
    """
    c = [0] * (k + 1)
    for j in range(k // 2 + 1):
        c[k - 2 * j] = factorial(k) // (2**j * factorial(j) * factorial(k - 2 * j))
    return c


def _mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _sub(p, q):
    n = max(len(p), len(q))
    return [a - b for a, b in zip(p + [0] * (n - len(p)), q + [0] * (n - len(q)))]


def _in_x(p):
    """An even polynomial in m as a polynomial in x = m^2, exact leading zeros dropped."""
    assert not any(p[1::2]), "odd power left in an even polynomial"
    c = p[0::2]
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


@lru_cache(maxsize=None)
def normal_law_polynomials(zeta: int):
    """Variances and Gram determinant of X^zeta, X^(zeta-1) for a normal X.

    For X ~ N(mu, sigma^2) and x = mu^2 / sigma^2, returns the exact integer
    coefficients, lowest power of x first, of Var(X^zeta) / sigma^(2 zeta),
    Var(X^(zeta-1)) / sigma^(2 zeta - 2) and
    [Var(X^zeta) Var(X^(zeta-1)) - Cov(X^zeta, X^(zeta-1))^2] / sigma^(4 zeta - 2).
    Their degrees are zeta - 1, zeta - 2 and 2 zeta - 4 (the zero polynomial,
    an empty tuple, at zeta = 1): the leading powers cancel exactly here,
    once, instead of in floating point. Every coefficient left is positive
    except the x^1 one of the determinant, which is zero at even zeta and
    negative at odd zeta, where it raises the condition number of the sum
    to below 2 (both checked in the tests up to zeta = 24).
    """
    if zeta < 1:
        raise DomainError(f"normal_law_polynomials requires zeta >= 1, got {zeta}")
    p = {k: _normal_moment(k) for k in (2 * zeta, 2 * zeta - 2, zeta, zeta - 1)}
    var_z = _sub(p[2 * zeta], _mul(p[zeta], p[zeta]))
    var_zm1 = _sub(p[2 * zeta - 2], _mul(p[zeta - 1], p[zeta - 1]))
    cov = _covariance(zeta)
    gram = _sub(_mul(var_z, var_zm1), _mul(cov, cov))
    return _in_x(var_z), _in_x(var_zm1), _in_x(gram)


def _covariance(zeta):
    """Cov(Y^zeta, Y^(zeta-1)) for Y ~ N(m, 1), by power of m: an odd polynomial."""
    return _sub(_normal_moment(2 * zeta - 1), _mul(_normal_moment(zeta), _normal_moment(zeta - 1)))


@lru_cache(maxsize=None)
def normal_law_covariance(zeta: int):
    """Q_zeta(x) = Cov(X^zeta, X^(zeta-1)) / (mu sigma^(2 zeta - 2)) for X ~ N(mu, sigma^2).

    Exact integer coefficients in x = mu^2 / sigma^2, lowest power first
    ((12, 6) at zeta = 3), of degree zeta - 2 (none at zeta = 1). All are
    positive, so Horner's rule evaluates the covariance without cancellation.
    """
    if zeta < 1:
        raise DomainError(f"normal_law_covariance requires zeta >= 1, got {zeta}")
    return _in_x(_covariance(zeta)[1:])


def amplitude_A(zeta: int) -> int:
    """Vacuum-limit amplitude entering the low-energy expansion of the bounds.

    (2 zeta)!/zeta! for odd zeta; the same minus [zeta!/(zeta/2)!]^2 for even
    zeta. Exact integer; grows past 64-bit range at zeta >= 11.
    """
    if zeta < 1:
        raise DomainError("amplitude_A requires zeta >= 1")
    value = factorial(2 * zeta) // factorial(zeta)
    if zeta % 2 == 0:
        value -= (factorial(zeta) // factorial(zeta // 2)) ** 2
    return value


def scaling_B(zeta: int, gamma: float) -> float:
    """Prefactor of the leading N^(3 zeta - 2) growth of the coupling QFI.

    B_gamma(zeta) = 4^(3 zeta - 1) zeta^2 (1-gamma)^(zeta-1) gamma^(2 zeta - 1),
    with the 0^0 = 1 convention at the gamma endpoints.
    """
    if zeta < 1:
        raise DomainError("scaling_B requires zeta >= 1")
    if not 0.0 <= gamma <= 1.0:
        raise DomainError(f"gamma={gamma} outside [0, 1]")
    return 4.0 ** (3 * zeta - 1) * zeta**2 * (1.0 - gamma) ** (zeta - 1) * gamma ** (2 * zeta - 1)
