"""Closed-form quadrature moments <(a+a^dag)^k> on displaced squeezed probes.

The general-phase formula is

    <G_zeta> = eta^zeta * sum_{k,s} C(zeta,k,s) e^(i psi (zeta-2k-2s))
               conj(beta)^s beta^(zeta-2k-s)

with (mu, nu, beta, eta, psi) from probe.bogoliubov_view. Every QFI element
in this package is a combination of these moments, so their precision
budget (compensated summation, exact coefficients, optional extended
precision) is set here and nowhere else.

Bogoliubov amplitude convention
-------------------------------
``beta_sign`` selects the sign of the nu*conj(alpha) term in the
transformed displacement:

* ``+1`` (default): beta = mu alpha + nu conj(alpha). This is the amplitude
  the closed-form bound family, the asymptotic expansions and the optimal
  squeezing-fraction results of this package are built on.
* ``-1``: beta = mu alpha - nu conj(alpha). This reproduces, to machine
  precision, the moments of the Fock-basis state D(alpha)S(xi)|0> that the
  brute-force oracle constructs.

The two agree whenever the probe is purely coherent (gamma = 0) or purely
squeezed (gamma = 1) and differ for mixed probes. See README, "Moment
conventions", for the full story.
"""

import cmath
import contextlib
import math
from dataclasses import dataclass
from functools import lru_cache

import mpmath

from .combinatorics import coeff_row_sum, normal_order_coeff
from .errors import DomainError, InternalConsistencyError
from .probe import ProbeSpec, bogoliubov_view

__all__ = ["MomentVector", "general_moments", "moment_general", "moment_real_axis", "moment_vector"]

IMAG_RESIDUE_TOL = 1e-10
EXTENDED_DPS = 40  # working digits of the extended-precision path


@lru_cache(maxsize=None)
def _exact_table(k: int):
    """Exact coefficients of order k.

    The general-phase terms as (C(k,j,s), phase multiplier, power of
    conj(beta), power of beta), and the real-axis row sums over s per j.
    """
    if k < 0:
        raise DomainError(f"moment order must be >= 0, got {k}")
    terms = tuple(
        (normal_order_coeff(k, j, s), k - 2 * j - 2 * s, s, k - 2 * j - s)
        for j in range(k // 2 + 1)
        for s in range(k - 2 * j + 1)
    )
    return terms, tuple(coeff_row_sum(k, j) for j in range(k // 2 + 1))


def _convert(c, extended):
    """An exact coefficient as float, or as mpf at the working precision."""
    return mpmath.mpf(c.numerator) / mpmath.mpf(c.denominator) if extended else float(c)


# The converted tables below are cached per precision; the mpf ones are built
# at EXTENDED_DPS digits, so they are only asked for inside
# mpmath.workdps(EXTENDED_DPS).
@lru_cache(maxsize=None)
def _table(k: int, extended: bool):
    """General-phase terms of order k with converted coefficients."""
    return tuple((_convert(c, extended), ph, s, p) for c, ph, s, p in _exact_table(k)[0])


@lru_cache(maxsize=None)
def _row_table(k: int, beta_sign: int, extended: bool):
    """Real-axis row sums of order k as (c_j, power of alpha, power of E = e^(2r)).

    Validates k and beta_sign, once per cache entry.
    """
    rows = _exact_table(k)[1]
    _check_beta_sign(beta_sign)
    return tuple(
        (_convert(c, extended), k - 2 * j, k - j if beta_sign > 0 else j) for j, c in enumerate(rows)
    )


def _compensated_sum(terms):
    """Kahan sum, largest magnitude first, deterministic order."""
    total = comp = 0.0
    for t in sorted(terms, key=abs, reverse=True):
        y = t - comp
        s = total + y
        comp = (s - total) - y
        total = s
    return total


def _check_beta_sign(beta_sign):
    if beta_sign not in (+1, -1):
        raise DomainError(f"beta_sign must be +1 or -1, got {beta_sign}")


def general_moments(probe: ProbeSpec, orders, *, beta_sign: int = +1, extended: bool = False) -> dict:
    """{k: <G_k>} on the probe for k = 0 and every k in orders, general phases.

    r, mu, nu, beta, eta, psi, the phase factors and the powers of beta are
    derived once for all orders. In double precision each sum is compensated
    and the values are floats. In extended mode they are unrounded mpf at
    EXTENDED_DPS digits: combine them inside mpmath.workdps(EXTENDED_DPS)
    and round once at the end.

    The internal sums are complex; an imaginary residue above 1e-10 of
    eta^k max|term| means the phase bookkeeping is broken and raises
    InternalConsistencyError.
    """
    orders = set(orders)
    _check_beta_sign(beta_sign)
    k_max = max(orders, default=0)
    with mpmath.workdps(EXTENDED_DPS) if extended else contextlib.nullcontext():
        if extended:
            mpf = mpmath.mpf
            n_sq = mpf(probe.gamma) * mpf(probe.n_total)
            n_ch = (1 - mpf(probe.gamma)) * mpf(probe.n_total)
            r = mpmath.asinh(mpmath.sqrt(n_sq))
            alpha = mpmath.sqrt(n_ch) * mpmath.expj(mpf(probe.phi))
            mu = mpmath.cosh(r)
            nu = mpmath.expj(mpf(probe.theta)) * mpmath.sinh(r)
            eta = abs(mu + nu)
            psi = mpmath.arg(mu + mpmath.conj(nu))
            phase = {ph: mpmath.expj(psi * ph) for ph in range(-k_max, k_max + 1)}
            conj, add, one = mpmath.conj, sum, mpf(1)
        else:
            view = bogoliubov_view(probe)
            mu, nu, eta, psi, alpha = view.mu, view.nu, view.eta, view.psi, probe.alpha
            phase = {ph: cmath.exp(1j * psi * ph) for ph in range(-k_max, k_max + 1)}
            conj, add, one = complex.conjugate, _compensated_sum, 1.0
        beta = mu * alpha + beta_sign * nu * conj(alpha)
        betac = conj(beta)
        beta_pow = [beta**p for p in range(k_max + 1)]
        betac_pow = [betac**s for s in range(k_max + 1)]
        out = {0: one}
        for k in orders - {0}:
            terms = [c * phase[ph] * betac_pow[s] * beta_pow[p] for c, ph, s, p in _table(k, extended)]
            scale = eta**k
            total = scale * add(terms)
            if abs(total.imag) > IMAG_RESIDUE_TOL * scale * max(map(abs, terms)):
                raise InternalConsistencyError(
                    f"imaginary residue {float(total.imag):.3e} exceeds tolerance for k={k} probe={probe}"
                )
            out[k] = total.real
        return out


def moment_general(probe: ProbeSpec, k: int, *, beta_sign: int = +1, extended: bool = False) -> float:
    """Expectation value <G_k> on the probe, general phases (see general_moments)."""
    return float(general_moments(probe, (k,), beta_sign=beta_sign, extended=extended)[k])


def moment_real_axis(alpha: float, r: float, k: int, *, beta_sign: int = +1, extended: bool = False) -> float:
    """<G_k> for theta = phi = 0, alpha >= 0, via the collapsed row-sum form.

    Written as sum_j c_j alpha^(k-2j) E^(p(j)) with E = e^(2r), c_j the exact
    row sums and p(j) = k-j (beta_sign +1) or j (beta_sign -1). The printed
    single-prefactor form divides by alpha, so alpha = 0 is handled here by
    the 0^0 = 1 convention: only the fully contracted term survives.
    """
    if alpha < 0 or r < 0:
        raise DomainError("moment_real_axis expects alpha >= 0 and r >= 0")
    if extended:
        with mpmath.workdps(EXTENDED_DPS):
            rows = _row_table(k, beta_sign, True)
            a, E = mpmath.mpf(alpha), mpmath.exp(2 * mpmath.mpf(r))
            return float(sum(c * a**pa * E**pe for c, pa, pe in rows))
    E = math.exp(2.0 * r)
    terms = []  # a plain loop: a comprehension costs a call on this hot path
    for c, pa, pe in _row_table(k, beta_sign, False):
        terms.append(c * alpha**pa * E**pe)
    return _compensated_sum(terms)


@dataclass(frozen=True)
class MomentVector:
    """Moments <G_0>..<G_k_max> of one probe, index k equals moment order."""

    probe: ProbeSpec
    k_max: int
    values: tuple

    def __getitem__(self, k):
        return self.values[k]


def moment_vector(probe: ProbeSpec, k_max: int, *, beta_sign: int = +1, extended: bool = False) -> MomentVector:
    if k_max < 0:
        raise DomainError(f"k_max must be >= 0, got {k_max}")
    m = general_moments(probe, range(k_max + 1), beta_sign=beta_sign, extended=extended)
    return MomentVector(probe=probe, k_max=k_max, values=tuple(float(m[k]) for k in range(k_max + 1)))
