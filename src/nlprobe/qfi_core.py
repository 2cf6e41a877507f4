"""Closed-form QFI matrix over (lambda, zeta) and the joint scalar bound.

The interaction is H = lambda_tilde (a+a^dag)^zeta; after absorbing the
interaction time, lambda = lambda_tilde * t is the effective coupling. The
coupling QFI is 4 Var(G_zeta) on the probe, the order QFI follows from the
power-rule derivative of the generator, and the two parameters are
compatible: both generators are powers of the same Hermitian quadrature, so
the Uhlmann antisymmetric part vanishes identically.
"""

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import mpmath

from .combinatorics import normal_law_polynomials
from .errors import CancellationWarning, DegenerateModelError, DomainError, InternalConsistencyError
from .moments import EXTENDED_DPS, general_moments
from .probe import ProbeSpec

__all__ = [
    "ModelSpec",
    "QfiMatrix",
    "qfi_lambda",
    "qfi_zeta",
    "qfi_cross",
    "qfi_matrix",
    "qfi_from_moments",
    "normal_law_qfi",
    "reparametrize_physical",
    "scalar_bound_inverse",
]

CANCELLATION_DIGITS = 1e-12
PSD_TOL = 1e-9


@dataclass(frozen=True)
class ModelSpec:
    """Nonlinear medium: effective coupling lambda = lambda_tilde * t, order zeta."""

    lambda_eff: float
    zeta: int
    time: float = 1.0

    def __post_init__(self):
        if not isinstance(self.zeta, int) or self.zeta < 1:
            raise DomainError(f"nonlinearity order must be an integer >= 1, got {self.zeta}")
        if not math.isfinite(self.lambda_eff) or self.lambda_eff < 0:
            raise DomainError(f"effective coupling must be finite and >= 0, got {self.lambda_eff}")
        if not self.time > 0:
            raise DomainError(f"interaction time must be > 0, got {self.time}")


@dataclass(frozen=True)
class QfiMatrix:
    """Symmetric 2x2 QFI over (lambda, zeta) plus the Uhlmann off-diagonal."""

    f_ll: float
    f_zz: float
    f_lz: float
    u_lz: float = 0.0

    def as_tuple(self):
        return (self.f_ll, self.f_zz, self.f_lz, self.u_lz)

    def determinant(self) -> float:
        return self.f_ll * self.f_zz - self.f_lz**2

    def is_positive_semidefinite(self, tol: float = PSD_TOL) -> bool:
        return (
            self.f_ll >= -tol
            and self.f_zz >= -tol
            and self.determinant() >= -tol * max(self.f_ll * self.f_zz, 1.0)
        )


def qfi_from_moments(m, model: ModelSpec):
    """(f_ll, f_zz, f_lz) from the quadrature moments m[k] = <G_k>, m[0] = 1.

    f_ll = 4 Var(G_z), f_zz = 4 (lambda z)^2 Var(G_(z-1)) and
    f_lz = 4 lambda z Cov(G_z, G_(z-1)). Plain arithmetic: float moments give
    double entries, mpf moments entries at their working precision (lambda
    takes the type of m[0]). An entry that needs an order missing from m is
    nan, so a caller that wants one entry sums only that entry's orders.
    """
    z, nan = model.zeta, math.nan
    lz = m[0] * model.lambda_eff * z
    m_z, m_zm1 = m.get(z, nan), m.get(z - 1, nan)
    return (
        4 * (m[2 * z] - m_z**2) if 2 * z in m else nan,
        4 * lz**2 * (m[2 * z - 2] - m_zm1**2) if 2 * z - 2 in m else nan,
        4 * lz * (m[2 * z - 1] - m_z * m_zm1) if 2 * z - 1 in m else nan,
    )


def _entries(probe, model, orders, variances, beta_sign, extended):
    """qfi_from_moments over the general-phase moments of the given orders.

    Extended mode subtracts at EXTENDED_DPS digits and rounds once; rounding
    the moments to double first would forfeit exactly the digits the mode
    exists to preserve. In double precision, the variance of G_j for each
    j >= 1 in variances is checked for loss of precision.
    """
    if extended:
        with mpmath.workdps(EXTENDED_DPS):
            m = general_moments(probe, orders, beta_sign=beta_sign, extended=True)
            return tuple(float(f) for f in qfi_from_moments(m, model))
    m = general_moments(probe, orders, beta_sign=beta_sign)
    for j in variances:
        if j > 0 and m[2 * j] != 0.0 and abs(m[2 * j] - m[j] ** 2) < CANCELLATION_DIGITS * abs(m[2 * j]):
            warnings.warn(
                f"variance of G_{j} lost >12 significant digits to cancellation "
                f"(terms ~{m[2 * j]:.3e}); consider extended=True",
                CancellationWarning,
                stacklevel=3,
            )
    return qfi_from_moments(m, model)


def qfi_lambda(probe: ProbeSpec, model: ModelSpec, *, beta_sign: int = +1, extended: bool = False) -> float:
    """QFI for the effective coupling: 4 [<G_2z> - <G_z>^2].

    Independent of lambda by construction; only model.zeta is read.
    """
    z = model.zeta
    return _entries(probe, model, (2 * z, z), (z,), beta_sign, extended)[0]


def qfi_zeta(probe: ProbeSpec, model: ModelSpec, *, beta_sign: int = +1, extended: bool = False) -> float:
    """QFI for the nonlinearity order: 4 (lambda zeta)^2 [<G_2(z-1)> - <G_(z-1)>^2].

    At zeta = 1 the generator derivative is the identity (G_0 convention),
    whose variance vanishes, so the element is exactly zero.
    """
    z = model.zeta
    return _entries(probe, model, (2 * z - 2, z - 1), (z - 1,), beta_sign, extended)[1]


def qfi_cross(probe: ProbeSpec, model: ModelSpec, *, beta_sign: int = +1, extended: bool = False) -> float:
    """Off-diagonal element: 4 lambda zeta [<G_(2z-1)> - <G_z><G_(z-1)>]."""
    z = model.zeta
    return _entries(probe, model, (2 * z - 1, z, z - 1), (), beta_sign, extended)[2]


def qfi_matrix(probe: ProbeSpec, model: ModelSpec, *, beta_sign: int = +1, extended: bool = False) -> QfiMatrix:
    """Assemble the full matrix; u_lz is identically zero for this model.

    [G_zeta, G_(zeta-1)] = 0 because both are powers of the same Hermitian
    operator, so the mean SLD commutator (the Uhlmann element) vanishes and
    joint estimation carries no intrinsic quantum incompatibility.
    """
    z = model.zeta
    orders = (2 * z, z, 2 * z - 2, z - 1, 2 * z - 1)
    return QfiMatrix(*_entries(probe, model, orders, (z, z - 1), beta_sign, extended), u_lz=0.0)


@lru_cache(maxsize=None)
def _normal_law_table(zeta):
    """normal_law_polynomials(zeta) as float coefficients, highest power first."""
    return tuple(tuple(float(c) for c in reversed(p)) for p in normal_law_polynomials(zeta))


def _horner(coeffs, x):
    """sum_i c_i x^i / max(x, 1)^d for coefficients c_d..c_0, highest first.

    For x > 1 the sum runs in 1/x, so that the powers of x stay with the
    caller.
    """
    acc = 0.0
    if x > 1.0:
        y = 1.0 / x
        for c in reversed(coeffs):
            acc = acc * y + c
    else:
        for c in coeffs:
            acc = acc * x + c
    return acc


def normal_law_qfi(probe: ProbeSpec, model: ModelSpec):
    """(f_ll, f_zz, det F / tr F) in double precision, at any phase.

    On the default moment family the quadrature X = a + a^dag is normal:
    its moments are sum_j C(k,2j) (2j-1)!! mu^(k-2j) sigma^(2j) with
    sigma = eta and mu = 2 eta Re(beta e^(i psi)). With E = e^(2r) and
    h = theta/2 these are

        sigma^2 = E cos^2 h + sin^2 h / E
        mu = 2 |alpha| [E cos h cos(h - phi) + sin h sin(h - phi) / E],

    the cancellation-free form of sigma^2 = |cosh r + sinh r e^(i theta)|^2
    and mu = 2|alpha| [cosh 2r cos phi + sinh 2r cos(theta - phi)].
    Both variances and the Gram determinant are polynomials in
    x = mu^2 / sigma^2 of degrees zeta - 1, zeta - 2 and 2 zeta - 4 whose
    cancelling terms were removed exactly (combinatorics.
    normal_law_polynomials); what is left has positive coefficients but for
    one term at odd zeta, so Horner's rule loses nothing to cancellation and
    no extended-precision retry is needed. With u = max(mu^2, sigma^2),

        f_ll = 4 sigma^2 u^(zeta-1) V,  f_zz = 4 (lambda zeta)^2 sigma^2 u^(zeta-2) W,
        det F / tr F = 4 (lambda zeta)^2 sigma^4 u^(zeta-2) G / (u V + (lambda zeta)^2 W),

    where V, W, G are the polynomials divided by max(x, 1) to their
    degrees, so at most their coefficient sums: no intermediate overflows
    where the results fit. A result beyond the double range raises
    OverflowError.
    """
    v, w, g = _normal_law_table(model.zeta)
    lz2 = (model.lambda_eff * model.zeta) ** 2
    n_sq = probe.n_squeeze
    e_r = math.sqrt(n_sq) + math.sqrt(1.0 + n_sq)
    big, small = e_r * e_r, 1.0 / (e_r * e_r)
    h = 0.5 * probe.theta
    ch, sh = math.cos(h), math.sin(h)
    var = big * ch * ch + small * sh * sh
    mean = 2.0 * probe.alpha_mag * (big * ch * math.cos(h - probe.phi) + small * sh * math.sin(h - probe.phi))
    x = mean * mean / var
    u = mean * mean if x > 1.0 else var
    hv, hw = _horner(v, x), _horner(w, x)
    scale = 4.0 * var * u ** (model.zeta - 2)
    f_ll = scale * u * hv
    f_zz = scale * lz2 * hw
    joint = scale * lz2 * var * _horner(g, x) / (u * hv + lz2 * hw)
    if not (f_ll < math.inf and f_zz < math.inf and joint < math.inf):  # products overflow silently
        raise OverflowError("QFI entries exceed the double-precision range")
    return f_ll, f_zz, joint


def reparametrize_physical(qfi: QfiMatrix, model: ModelSpec) -> QfiMatrix:
    """Congruence B F B^T with B = diag(t, 1), mapping lambda -> lambda_tilde."""
    t = model.time
    return QfiMatrix(
        f_ll=t * t * qfi.f_ll,
        f_zz=qfi.f_zz,
        f_lz=t * qfi.f_lz,
        u_lz=t * qfi.u_lz,
    )


def scalar_bound_inverse(qfi: QfiMatrix) -> float:
    """Inverse of the identity-weight scalar bound: det(F) / tr(F).

    Zero for a singular matrix (one parameter carries no information).
    Plain arithmetic, so entries at 40 digits give a 40-digit result.
    """
    trace = qfi.f_ll + qfi.f_zz
    if trace <= 0.0:
        raise DegenerateModelError("QFI matrix trace is zero; no parameter is estimable")
    det = qfi.determinant()
    if det < 0.0:
        if det < -PSD_TOL * max(qfi.f_ll * qfi.f_zz, 1.0):
            raise InternalConsistencyError(f"QFI matrix has negative determinant {det:.3e}")
        det = 0.0
    return det / trace
