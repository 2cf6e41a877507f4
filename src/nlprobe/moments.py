"""Closed-form quadrature moments <(a+a^dag)^k> on displaced squeezed probes.

On both moment families the quadrature X = a + a^dag is normal, with
variance eta^2 = E cos^2 h + sin^2 h / E (E = e^(2r), h = theta/2) and a
mean set by the family (below). The moments are

    <G_k> = sum_j C(k,2j) (2j-1)!! mean^(k-2j) eta^(2j),

whose terms all have the sign of mean^k: nothing cancels. The one rounding
that does not scale with the result is that of h - phi in the default
family's mean, which E multiplies where cos(h - phi) is small: _phase_terms
carries it as an exact two-term sum, so the mean keeps its digits there too.
_phase_terms and _energy_law give (mean, variance) on floats with m = math
and on arrays with m = numpy, bit for bit the same at every element; the
moments here and the QFI kernel (qfi_core) read that one pair.

Bogoliubov amplitude convention
-------------------------------
``beta_sign`` selects the sign of the nu*conj(alpha) term in the
transformed displacement:

* ``+1`` (default): beta = mu alpha + nu conj(alpha), with mean
  2 |alpha| [E cos h cos(h - phi) + sin h sin(h - phi) / E]. The
  closed-form bound family, the asymptotic expansions and the optimal
  squeezing-fraction results of this package are built on it.
* ``-1``: beta = mu alpha - nu conj(alpha), with mean 2 |alpha| cos(phi).
  This reproduces, to machine precision, the moments of the Fock-basis
  state D(alpha)S(xi)|0> that the brute-force oracle constructs.

The two agree whenever the probe is purely coherent (gamma = 0) or purely
squeezed (gamma = 1) and differ for mixed probes. See README, "Moment
conventions", for the full story.
"""

import math
from functools import lru_cache

from .combinatorics import _normal_moment
from .errors import OVERFLOW, DomainError
from .probe import ProbeSpec

__all__ = ["moment_general", "moment_real_axis", "moment_vector"]


@lru_cache(maxsize=None)
def _normal_table(k: int):
    """The terms (C(k,2j) (2j-1)!!, power of the mean, power of the variance) of order k."""
    if k < 0:
        raise DomainError(f"moment order must be >= 0, got {k}")
    c = _normal_moment(k)
    return tuple((c[k - 2 * j], k - 2 * j, j) for j in range(k // 2 + 1))


def _normal_sum(k, mean, var):
    """E[X^k] for X ~ N(mean, var); OverflowError(OVERFLOW) where it leaves the double range."""
    try:
        value = sum(c * mean**pm * var**pv for c, pm, pv in _normal_table(k))
    except OverflowError:  # float ** raises where the products give inf
        value = math.inf
    if not -math.inf < value < math.inf:
        raise OverflowError(OVERFLOW)
    return value


def _check_beta_sign(beta_sign):
    if beta_sign not in (+1, -1):
        raise DomainError(f"beta_sign must be +1 or -1, got {beta_sign}")


def _phase_terms(theta, phi, beta_sign=+1, m=math):
    """The (theta, phi) half of the normal law: (cos h, sin h, c, s) with
    h = theta/2, c and s cos(h - phi) and sin(h - phi) in the default
    family, c = cos phi and s None in the other. h - phi is taken as s' + e
    exactly (TwoSum), with cos(h - phi) = cos s' - e sin s' and
    sin(h - phi) = sin s' + e cos s', because near phi = h + pi/2
    cos(h - phi) is about as small as the rounding of h - phi, and E
    multiplies it.
    """
    h = 0.5 * theta
    ch, sh = m.cos(h), m.sin(h)
    if beta_sign < 0:
        return ch, sh, m.cos(phi), None
    s = h - phi
    h_part = s + phi
    e = (h - h_part) - (phi + (s - h_part))
    cs, ss = m.cos(s), m.sin(s)
    return ch, sh, cs - e * ss, ss + e * cs


def _energy_law(n_total, gamma, phase, m=math):
    """(mean, variance) on the terms phase = _phase_terms(...): the forms
    |cosh r + sinh r e^(i theta)|^2 and, for the default family,
    2|alpha| [cosh 2r cos phi + sinh 2r cos(theta - phi)] with their
    cancelling terms removed."""
    ch, sh, c, s = phase
    n_sq = gamma * n_total
    e_r = m.sqrt(n_sq) + m.sqrt(1.0 + n_sq)
    big, small = e_r * e_r, 1.0 / (e_r * e_r)
    var = big * ch * ch + small * sh * sh
    a2 = 2.0 * m.sqrt((1.0 - gamma) * n_total)
    if s is None:
        return a2 * c, var
    return a2 * (big * ch * c + small * sh * s), var


def _probe_law(probe: ProbeSpec, beta_sign):
    """(mean, variance) of the quadrature on the probe, from _phase_terms and
    _energy_law, the pair the QFI kernel reads."""
    _check_beta_sign(beta_sign)
    return _energy_law(probe.n_total, probe.gamma, _phase_terms(probe.theta, probe.phi, beta_sign))


def moment_general(probe: ProbeSpec, k: int, *, beta_sign: int = +1) -> float:
    """Expectation value <G_k> on the probe, general phases."""
    return float(_normal_sum(k, *_probe_law(probe, beta_sign)))


def moment_real_axis(alpha: float, r: float, k: int, *, beta_sign: int = +1) -> float:
    """<G_k> for theta = phi = 0, alpha >= 0: the normal law with E = e^(2r).

    Its variance is E, its mean 2 alpha E (beta_sign +1) or 2 alpha
    (beta_sign -1); alpha = 0 leaves the fully contracted term, by the
    0^0 = 1 convention.
    """
    if not (0 <= alpha < math.inf and 0 <= r < math.inf):  # nan fails both
        raise DomainError("moment_real_axis expects finite alpha >= 0 and r >= 0")
    _check_beta_sign(beta_sign)
    try:
        big = math.exp(2.0 * r)
    except OverflowError:  # math.exp raises its own "math range error"
        raise OverflowError(OVERFLOW) from None
    return _normal_sum(k, 2.0 * alpha * (big if beta_sign > 0 else 1.0), big)


def moment_vector(probe: ProbeSpec, k_max: int, *, beta_sign: int = +1) -> tuple:
    """(<G_0>, ..., <G_k_max>) on the probe: index k is the moment order."""
    if k_max < 0:
        raise DomainError(f"k_max must be >= 0, got {k_max}")
    mean, var = _probe_law(probe, beta_sign)
    return tuple(float(_normal_sum(k, mean, var)) for k in range(k_max + 1))
