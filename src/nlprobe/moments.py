"""Closed-form quadrature moments <(a+a^dag)^k> on displaced squeezed probes.

On both moment families the quadrature X = a + a^dag is normal, with
variance eta^2 = E cos^2 h + sin^2 h / E (E = e^(2r), h = theta/2) and a
mean set by the family (below). In double precision the moments are

    <G_k> = sum_j C(k,2j) (2j-1)!! mean^(k-2j) eta^(2j),

whose terms all have the sign of mean^k: nothing cancels. The extended
mode of general_moments (so of moment_general and moment_vector) instead
evaluates the printed general-phase formula

    <G_zeta> = eta^zeta * sum_{k,s} C(zeta,k,s) e^(i psi (zeta-2k-2s))
               conj(beta)^s beta^(zeta-2k-s)

with (mu, nu, beta, eta, psi) as in probe.bogoliubov_view, at 40 digits.
It is the moment-level reference the tests hold the normal law to: it
shares nothing with it but the probe, and its imaginary residue checks the
phase bookkeeping. The QFI does not use it; qfi_core evaluates the
normal-law polynomials in both precisions.

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
from dataclasses import dataclass
from functools import lru_cache

from .combinatorics import _normal_moment, normal_order_coeff
from .errors import DomainError, InternalConsistencyError
from .probe import ProbeSpec

__all__ = ["MomentVector", "general_moments", "moment_general", "moment_real_axis", "moment_vector"]

IMAG_RESIDUE_TOL = 1e-10
EXTENDED_DPS = 40  # working digits of the extended-precision path


@lru_cache(maxsize=None)
def _exact_table(k: int):
    """Exact coefficients of order k.

    The general-phase terms as (C(k,j,s), phase multiplier, power of
    conj(beta), power of beta), and the normal-law terms as
    (C(k,2j) (2j-1)!!, power of the mean, power of the variance).
    """
    if k < 0:
        raise DomainError(f"moment order must be >= 0, got {k}")
    terms = tuple(
        (normal_order_coeff(k, j, s), k - 2 * j - 2 * s, s, k - 2 * j - s)
        for j in range(k // 2 + 1)
        for s in range(k - 2 * j + 1)
    )
    c = _normal_moment(k)
    return terms, tuple((c[k - 2 * j], k - 2 * j, j) for j in range(k // 2 + 1))


# Built at EXTENDED_DPS digits and cached, so only asked for inside
# mpmath.workdps(EXTENDED_DPS).
@lru_cache(maxsize=None)
def _table(k: int):
    """General-phase terms of order k with mpf coefficients."""
    import mpmath

    return tuple((mpmath.mpf(c.numerator) / c.denominator, ph, s, p) for c, ph, s, p in _exact_table(k)[0])


def _normal_sum(k, mean, var):
    """E[X^k] for X ~ N(mean, var), in the precision of mean and var."""
    return sum(c * mean**pm * var**pv for c, pm, pv in _exact_table(k)[1])


def _check_beta_sign(beta_sign):
    if beta_sign not in (+1, -1):
        raise DomainError(f"beta_sign must be +1 or -1, got {beta_sign}")


def _normal_law(n_total, gamma, theta, phi, beta_sign=+1, m=math):
    """(mean, variance) of the quadrature (module docstring) on the plain
    numbers of a probe, in double precision, or with m = mpmath on mpf
    arguments in the working precision.

    The forms there are |cosh r + sinh r e^(i theta)|^2 and, for the default
    family, 2|alpha| [cosh 2r cos phi + sinh 2r cos(theta - phi)] with their
    cancelling terms removed.
    """
    n_sq = gamma * n_total
    e_r = m.sqrt(n_sq) + m.sqrt(1.0 + n_sq)
    big, small = e_r * e_r, 1.0 / (e_r * e_r)
    h = 0.5 * theta
    ch, sh = m.cos(h), m.sin(h)
    var = big * ch * ch + small * sh * sh
    a2 = 2.0 * m.sqrt((1.0 - gamma) * n_total)
    if beta_sign > 0:
        return a2 * (big * ch * m.cos(h - phi) + small * sh * m.sin(h - phi)), var
    return a2 * m.cos(phi), var


def general_moments(probe: ProbeSpec, orders, *, beta_sign: int = +1, extended: bool = False) -> dict:
    """{k: <G_k>} on the probe for k = 0 and every k in orders, general phases.

    In double precision the values are floats from the normal law. In
    extended mode they are unrounded mpf at EXTENDED_DPS digits from the
    general-phase sum: combine them inside mpmath.workdps(EXTENDED_DPS) and
    round once at the end. That sum is complex; an imaginary residue above
    1e-10 of eta^k max|term| means the phase bookkeeping is broken and
    raises InternalConsistencyError.
    """
    orders = set(orders) | {0}
    _check_beta_sign(beta_sign)
    if not extended:
        mean, var = _normal_law(probe.n_total, probe.gamma, probe.theta, probe.phi, beta_sign)
        return {k: _normal_sum(k, mean, var) for k in orders}
    # mpmath is imported only where extended mode needs it, so that the
    # double-precision paths (and `import nlprobe.cli`) never load it
    import mpmath

    k_max = max(orders)
    with mpmath.workdps(EXTENDED_DPS):
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
        beta = mu * alpha + beta_sign * nu * mpmath.conj(alpha)
        betac = mpmath.conj(beta)
        beta_pow = [beta**p for p in range(k_max + 1)]
        betac_pow = [betac**s for s in range(k_max + 1)]
        out = {}
        for k in orders:
            terms = [c * phase[ph] * betac_pow[s] * beta_pow[p] for c, ph, s, p in _table(k)]
            scale = eta**k
            total = scale * sum(terms)
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
    """<G_k> for theta = phi = 0, alpha >= 0: the normal law with E = e^(2r).

    Its variance is E, its mean 2 alpha E (beta_sign +1) or 2 alpha
    (beta_sign -1); alpha = 0 leaves the fully contracted term, by the
    0^0 = 1 convention. Extended mode sums at EXTENDED_DPS digits.
    """
    if alpha < 0 or r < 0:
        raise DomainError("moment_real_axis expects alpha >= 0 and r >= 0")
    _check_beta_sign(beta_sign)
    if extended:
        import mpmath

        with mpmath.workdps(EXTENDED_DPS):
            big = mpmath.exp(2 * mpmath.mpf(r))
            return float(_normal_sum(k, 2 * mpmath.mpf(alpha) * (big if beta_sign > 0 else 1), big))
    big = math.exp(2.0 * r)
    return _normal_sum(k, 2.0 * alpha * (big if beta_sign > 0 else 1.0), big)


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
