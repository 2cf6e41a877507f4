"""Small-N and large-N closed-form behaviour of the QFIs.

These are diagnostics only: the optimizer uses none of them and always
evaluates exact moments, because the validity windows of the expansions
are not sharply quantified. `opt-gamma` prints gamma_opt_high_n next to
each optimum for comparison.
"""

import math

from .combinatorics import amplitude_A, scaling_B
from .errors import DomainError

__all__ = [
    "qfi_lambda_low_n",
    "qfi_zeta_low_n",
    "qfi_high_n",
    "gamma_opt_high_n",
]


def qfi_lambda_low_n(n_total: float, gamma: float, zeta: int) -> float:
    """Two-term small-N expansion of the coupling QFI.

    4 A(zeta)/2^zeta * (1 + 2 zeta sqrt(gamma N)). The relative error of the
    truncation is ~2 zeta^2 N, so it degrades quickly with the order.
    """
    if n_total < 0:
        raise DomainError("n_total must be >= 0")
    return 4.0 * amplitude_A(zeta) / 2.0**zeta * (1.0 + 2.0 * zeta * math.sqrt(gamma * n_total))


def qfi_zeta_low_n(n_total: float, gamma: float, zeta: int, lambda_eff: float) -> float:
    """Small-N expansion of the order QFI; undefined at zeta = 1 (A(0) has no meaning)."""
    if zeta < 2:
        raise DomainError("qfi_zeta_low_n requires zeta >= 2")
    if n_total < 0:
        raise DomainError("n_total must be >= 0")
    lead = 4.0 * lambda_eff**2 * zeta**2 * amplitude_A(zeta - 1) / 2.0 ** (zeta - 1)
    return lead * (1.0 + 2.0 * (zeta - 1) * math.sqrt(gamma * n_total))


def qfi_high_n(n_total: float, gamma: float, zeta: int, which: str, lambda_eff: float = 0.0) -> float:
    """Leading large-N growth: B_gamma(zeta) N^(3 zeta - 2) for the coupling,
    lambda^2 zeta^2 B_gamma(zeta-1) N^(3 zeta - 5) for the order."""
    if n_total <= 0:
        raise DomainError("n_total must be > 0 in the high-energy regime")
    if which == "lambda":
        return scaling_B(zeta, gamma) * n_total ** (3 * zeta - 2)
    if which == "zeta":
        if zeta < 2:
            raise DomainError("order-QFI scaling requires zeta >= 2")
        return lambda_eff**2 * zeta**2 * scaling_B(zeta - 1, gamma) * n_total ** (3 * (zeta - 1) - 2)
    raise DomainError(f"which must be 'lambda' or 'zeta', got {which!r}")


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
