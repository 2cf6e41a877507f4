"""Small-N and large-N closed-form behaviour of the QFIs.

The laws read their amplitudes from the end terms of the exact polynomials
(combinatorics.normal_law_polynomials). They are diagnostics only: the
optimizer uses none of them and always evaluates exact moments, because the
validity windows of the expansions are not sharply quantified. `opt-gamma`
prints gamma_opt_high_n next to each optimum for comparison.
"""

import math

from .combinatorics import normal_law_polynomials
from .errors import OVERFLOW, DomainError
from .qfi_core import _square

__all__ = [
    "qfi_lambda_low_n",
    "qfi_zeta_low_n",
    "qfi_high_n",
    "gamma_opt_high_n",
]


def _law(n_total, gamma, relation, value):
    """value() of a law at (n_total, gamma): DomainError unless n_total is finite and >= 0 (relation ">=")
    or > 0 (">") and gamma lies in [0, 1], OverflowError(OVERFLOW) where the value leaves the double range,
    where float ** and the conversion of a large int raise their own error and a product gives inf."""
    if not ((n_total >= 0.0 if relation == ">=" else n_total > 0.0) and n_total < math.inf):
        raise DomainError(f"n_total must be {relation} 0 and finite, got {n_total!r}")
    if not 0.0 <= gamma <= 1.0:
        raise DomainError(f"gamma={gamma} outside [0, 1]")
    try:
        value = value()
    except OverflowError:
        value = math.inf
    if value == math.inf:
        raise OverflowError(OVERFLOW)
    return value


def qfi_lambda_low_n(n_total: float, gamma: float, zeta: int) -> float:
    """Two-term small-N expansion of the coupling QFI.

    4 V[0] (1 + 2 zeta sqrt(gamma N)), V[0] = Var(X^zeta) at the vacuum. The
    relative error of the truncation is ~2 zeta^2 N, so it degrades quickly
    with the order.
    """
    v = normal_law_polynomials(zeta)[0]
    return _law(n_total, gamma, ">=", lambda: 4.0 * v[0] * (1.0 + 2.0 * zeta * math.sqrt(gamma * n_total)))


def qfi_zeta_low_n(n_total: float, gamma: float, zeta: int, lambda_eff: float) -> float:
    """Small-N expansion of the order QFI, 4 (lambda zeta)^2 W[0] (1 + 2 (zeta - 1) sqrt(gamma N));
    undefined at zeta = 1, where W is zero."""
    if zeta < 2:
        raise DomainError("qfi_zeta_low_n requires zeta >= 2")
    lead, w = 4.0 * _square(lambda_eff) * zeta**2, normal_law_polynomials(zeta)[1]
    return _law(n_total, gamma, ">=", lambda: lead * w[0] * (1.0 + 2.0 * (zeta - 1) * math.sqrt(gamma * n_total)))


def qfi_high_n(n_total: float, gamma: float, zeta: int, which: str, lambda_eff: float = 0.0) -> float:
    """Leading large-N growth: B_gamma(zeta) N^(3 zeta - 2) for the coupling, lambda^2 zeta^2
    B_gamma(zeta-1) N^(3 zeta - 5) for the order. B_gamma(k) = 4^(3 k - 1) P[-1] (1-gamma)^(k-1)
    gamma^(2 k - 1), with 0^0 = 1, reads the top coefficient of V (zeta^2) or W ((zeta - 1)^2)."""
    if which == "lambda":
        k, lead, top = zeta, 1.0, normal_law_polynomials(zeta)[0][-1]
    elif which == "zeta":
        if zeta < 2:
            raise DomainError("order-QFI scaling requires zeta >= 2")
        k, lead, top = zeta - 1, _square(lambda_eff) * zeta**2, normal_law_polynomials(zeta)[1][-1]
    else:
        raise DomainError(f"which must be 'lambda' or 'zeta', got {which!r}")
    return _law(n_total, gamma, ">", lambda: lead * (4.0 ** (3 * k - 1) * top * (1.0 - gamma) ** (k - 1)
                                                     * gamma ** (2 * k - 1)) * n_total ** (3 * k - 2))


def gamma_opt_high_n(zeta: int) -> float:
    """Squeezing fraction maximizing the large-N scaling law, (2z-1)/(3z-2).

    This is the exact argmax of (1-g)^(z-1) g^(2z-1): setting the log
    derivative to zero gives (2z-1)(1-g) = (z-1) g. It decreases
    monotonically to 2/3 as the order grows, and correctly degenerates to
    g = 1 at zeta = 1, where the (1-g) factor drops out entirely.
    """
    if zeta < 1:
        raise DomainError("gamma_opt_high_n requires zeta >= 1")
    return (2.0 * zeta - 1.0) / (3.0 * zeta - 2.0)
