"""Exact combinatorics of normal-ordering the quadrature power (a + a^dag)^zeta.

Everything here is integer arithmetic.
"""

from functools import lru_cache
from math import factorial

from .errors import DomainError

__all__ = [
    "normal_order_coeff",
    "coeff_row_sum",
    "normal_law_polynomials",
]


def _check_index_range(zeta, m, s):
    if zeta < 0 or m < 0 or s < 0:
        raise DomainError(f"indices must be non-negative, got zeta={zeta} m={m} s={s}")
    if m > zeta // 2:
        raise DomainError(f"contraction count m={m} exceeds floor(zeta/2)={zeta // 2}")
    if s > zeta - 2 * m:
        raise DomainError(f"creation power s={s} exceeds zeta-2m={zeta - 2 * m}")


def normal_order_coeff(zeta: int, m: int, s: int) -> int:
    """Coefficient of (a^dag)^s a^(zeta-2m-s) in the normal ordering of (a+a^dag)^zeta.

    Equals zeta! / (2^m m! s! (zeta-2m-s)!), an exact positive integer (it
    counts operator pairings).
    """
    _check_index_range(zeta, m, s)
    return factorial(zeta) // (2**m * factorial(m) * factorial(s) * factorial(zeta - 2 * m - s))


def coeff_row_sum(zeta: int, k: int) -> int:
    """Sum over s of the ordering coefficients at fixed contraction count k.

    Closed form 2^(zeta-2k) zeta! / (2^k k! (zeta-2k)!), an exact integer;
    selftest and the tests check it against the direct sum.
    """
    if k < 0 or zeta < 0 or k > zeta // 2:
        raise DomainError(f"row index k={k} out of range for zeta={zeta}")
    return 2 ** (zeta - 2 * k) * factorial(zeta) // (2**k * factorial(k) * factorial(zeta - 2 * k))


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
    """Variances, Gram determinant and covariance of X^zeta, X^(zeta-1) for a normal X.

    For X ~ N(mu, sigma^2) and x = mu^2 / sigma^2, returns the exact integer
    coefficients (V, W, G, Q), lowest power of x first, of
    V = Var(X^zeta) / sigma^(2 zeta), W = Var(X^(zeta-1)) / sigma^(2 zeta - 2),
    G = [Var(X^zeta) Var(X^(zeta-1)) - Cov(X^zeta, X^(zeta-1))^2] / sigma^(4 zeta - 2)
    and Q = Cov(X^zeta, X^(zeta-1)) / (mu sigma^(2 zeta - 2)).
    Their degrees are zeta - 1, zeta - 2, 2 zeta - 4 and zeta - 2 (W, G and Q
    are the zero polynomial, an empty tuple, at zeta = 1): the leading powers
    cancel exactly here, once, instead of in floating point. Every
    coefficient left is positive except the x^1 one of G, which is zero at
    even zeta and negative at odd zeta, where it raises the condition number
    of the sum to below 2 (both checked in the tests up to zeta = 24); Q is
    (12, 6) at zeta = 3. The asymptotics read the end terms: V[0] and W[0],
    and V[-1] = zeta^2 and W[-1] = (zeta - 1)^2.
    """
    if zeta < 1:
        raise DomainError(f"normal_law_polynomials requires zeta >= 1, got {zeta}")
    p = {k: _normal_moment(k) for k in (2 * zeta, 2 * zeta - 1, 2 * zeta - 2, zeta, zeta - 1)}
    var_z = _sub(p[2 * zeta], _mul(p[zeta], p[zeta]))
    var_zm1 = _sub(p[2 * zeta - 2], _mul(p[zeta - 1], p[zeta - 1]))
    cov = _sub(p[2 * zeta - 1], _mul(p[zeta], p[zeta - 1]))  # an odd polynomial in mu
    gram = _sub(_mul(var_z, var_zm1), _mul(cov, cov))
    return _in_x(var_z), _in_x(var_zm1), _in_x(gram), _in_x(cov[1:])

