"""Closed-form QFI matrix over (lambda, zeta) and the joint scalar bound.

The interaction is H = lambda_tilde (a+a^dag)^zeta; after absorbing the
interaction time, lambda = lambda_tilde * t is the effective coupling. The
coupling QFI is 4 Var(G_zeta) on the probe, the order QFI follows from the
power-rule derivative of the generator, and the two parameters are
compatible: both generators are powers of the same Hermitian quadrature, so
the Uhlmann antisymmetric part vanishes identically.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .combinatorics import normal_law_covariance, normal_law_polynomials
from .errors import DegenerateModelError, DomainError, InternalConsistencyError
from .moments import EXTENDED_DPS, _check_beta_sign, _normal_law, general_moments
from .probe import ProbeSpec, make_probe

__all__ = [
    "ModelSpec",
    "QfiMatrix",
    "qfi_lambda",
    "qfi_zeta",
    "qfi_cross",
    "qfi_matrix",
    "qfi_from_moments",
    "normal_law_qfi",
    "normal_law_grid",
    "reparametrize_physical",
    "scalar_bound_inverse",
]

PSD_TOL = 1e-9
OVERFLOW = "QFI entries exceed the double-precision range"


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


def _entries(probe, model, orders, beta_sign, extended):
    """(f_ll, f_zz, f_lz): the normal law in double precision, else the
    general-phase moments of the given orders through qfi_from_moments.

    Extended mode subtracts at EXTENDED_DPS digits and rounds once; rounding
    the moments to double first would forfeit exactly the digits the mode
    exists to preserve.
    """
    _check_beta_sign(beta_sign)
    if not extended:
        return _normal_law_entries(probe, model, beta_sign)
    import mpmath  # extended mode only (see moments.general_moments)

    with mpmath.workdps(EXTENDED_DPS):
        m = general_moments(probe, orders, beta_sign=beta_sign, extended=True)
        return tuple(float(f) for f in qfi_from_moments(m, model))


def qfi_lambda(probe: ProbeSpec, model: ModelSpec, *, beta_sign: int = +1, extended: bool = False) -> float:
    """QFI for the effective coupling: 4 [<G_2z> - <G_z>^2].

    Independent of lambda by construction; only model.zeta is read.
    """
    z = model.zeta
    return _entries(probe, model, (2 * z, z), beta_sign, extended)[0]


def qfi_zeta(probe: ProbeSpec, model: ModelSpec, *, beta_sign: int = +1, extended: bool = False) -> float:
    """QFI for the nonlinearity order: 4 (lambda zeta)^2 [<G_2(z-1)> - <G_(z-1)>^2].

    At zeta = 1 the generator derivative is the identity (G_0 convention),
    whose variance vanishes, so the element is exactly zero.
    """
    z = model.zeta
    return _entries(probe, model, (2 * z - 2, z - 1), beta_sign, extended)[1]


def qfi_cross(probe: ProbeSpec, model: ModelSpec, *, beta_sign: int = +1, extended: bool = False) -> float:
    """Off-diagonal element: 4 lambda zeta [<G_(2z-1)> - <G_z><G_(z-1)>]."""
    z = model.zeta
    return _entries(probe, model, (2 * z - 1, z, z - 1), beta_sign, extended)[2]


def _orders(z):
    return (2 * z, z, 2 * z - 2, z - 1, 2 * z - 1)


def qfi_matrix(probe: ProbeSpec, model: ModelSpec, *, beta_sign: int = +1, extended: bool = False) -> QfiMatrix:
    """Assemble the full matrix; u_lz is identically zero for this model.

    [G_zeta, G_(zeta-1)] = 0 because both are powers of the same Hermitian
    operator, so the mean SLD commutator (the Uhlmann element) vanishes and
    joint estimation carries no intrinsic quantum incompatibility.
    """
    return QfiMatrix(*_entries(probe, model, _orders(model.zeta), beta_sign, extended), u_lz=0.0)


def _joint_bound_mp(probe: ProbeSpec, model: ModelSpec, time: float = 1.0) -> float:
    """det F / tr F at 40 digits, of the matrix reparametrized to the given time.

    The entries come from the general-phase moments and stay unrounded
    through the determinant; the result is rounded once at the end.
    """
    import mpmath

    with mpmath.workdps(EXTENDED_DPS):
        m = general_moments(probe, _orders(model.zeta), extended=True)
        f_ll, f_zz, f_lz = qfi_from_moments(m, model)
        t = mpmath.mpf(time)
        return float(scalar_bound_inverse(QfiMatrix(t * t * f_ll, f_zz, t * f_lz)))


@lru_cache(maxsize=None)
def _normal_law_table(zeta):
    """normal_law_polynomials(zeta) and Q_zeta as float coefficients, highest power first."""
    polys = normal_law_polynomials(zeta) + (normal_law_covariance(zeta),)
    return tuple(tuple(float(c) for c in reversed(p)) for p in polys)


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

    On the default moment family the quadrature X = a + a^dag is normal,
    with the cancellation-free mean mu and variance sigma^2 of
    moments._normal_law. Both variances and the Gram determinant are
    polynomials in x = mu^2 / sigma^2 of degrees zeta - 1, zeta - 2 and
    2 zeta - 4 whose cancelling terms were removed exactly (combinatorics.
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
    return _normal_law_qfi(probe.n_total, probe.gamma, probe.theta, probe.phi, model)


def _normal_law_qfi(n_total, gamma, theta, phi, model):
    """normal_law_qfi on the plain floats of a probe: the scalar kernel of
    the double-precision objective and of the golden section.

    A point outside the probe domain raises make_probe's DomainError.
    """
    if not (0.0 <= gamma <= 1.0 and 0.0 <= n_total < math.inf
            and math.isfinite(theta) and math.isfinite(phi)):
        make_probe(n_total, gamma, theta, phi)
    v, w, g, _ = _normal_law_table(model.zeta)
    lz2 = (model.lambda_eff * model.zeta) ** 2
    mean, var = _normal_law(n_total, gamma, theta, phi)
    x = mean * mean / var
    u = mean * mean if x > 1.0 else var
    hv, hw = _horner(v, x), _horner(w, x)
    scale = 4.0 * var * u ** (model.zeta - 2)
    f_ll = scale * u * hv
    f_zz = scale * lz2 * hw
    joint = scale * lz2 * var * _horner(g, x) / (u * hv + lz2 * hw)
    if not (f_ll < math.inf and f_zz < math.inf and joint < math.inf):  # products overflow silently
        raise OverflowError(OVERFLOW)
    return f_ll, f_zz, joint


def _normal_law_entries(probe, model, beta_sign):
    """(f_ll, f_zz, f_lz) of either family in double precision, as in normal_law_qfi.

    f_lz = 4 lambda zeta mu sigma^2 u^(zeta-2) Q, Q the covariance polynomial
    over max(x, 1)^(zeta-2); kept off normal_law_qfi, the optimizer's kernel.
    """
    v, w, _, q = _normal_law_table(model.zeta)
    lz = model.lambda_eff * model.zeta
    mean, var = _normal_law(probe.n_total, probe.gamma, probe.theta, probe.phi, beta_sign)
    x = mean * mean / var
    u = mean * mean if x > 1.0 else var
    scale = 4.0 * var * u ** (model.zeta - 2)
    f_ll = scale * u * _horner(v, x)
    f_zz = scale * lz**2 * _horner(w, x)
    f_lz = scale * lz * mean * _horner(q, x)
    if not (f_ll < math.inf and f_zz < math.inf and abs(f_lz) < math.inf):
        raise OverflowError(OVERFLOW)
    return f_ll, f_zz, f_lz


def _horner_grid(coeffs, x, above):
    """_horner at every element of x, where above is x > 1."""
    y = 1.0 / x
    acc_y = acc_x = 0.0
    for c_y, c_x in zip(reversed(coeffs), coeffs):
        acc_y = acc_y * y + c_y
        acc_x = acc_x * x + c_x
    return np.where(above, acc_y, acc_x)


def _normal_law_arrays(n_total, gamma, theta, phi, model: ModelSpec):
    """normal_law_grid without its errors: ((f_ll, f_zz, det F / tr F), ok),
    where ok marks the points at which all three are right. Elsewhere the
    values are meaningless and normal_law_qfi may raise.
    """
    n, gam, th, ph = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (n_total, gamma, theta, phi)))
    v, w, g, _ = _normal_law_table(model.zeta)
    lz2 = (model.lambda_eff * model.zeta) ** 2
    with np.errstate(all="ignore"):  # both Horner branches run everywhere, 1/x included
        n_sq = gam * n
        e_r = np.sqrt(n_sq) + np.sqrt(1.0 + n_sq)
        big, small = e_r * e_r, 1.0 / (e_r * e_r)
        h = 0.5 * th
        ch, sh = np.cos(h), np.sin(h)
        var = big * ch * ch + small * sh * sh
        mean = 2.0 * np.sqrt((1.0 - gam) * n) * (big * ch * np.cos(h - ph) + small * sh * np.sin(h - ph))
        x = mean * mean / var
        above = x > 1.0
        u = np.where(above, mean * mean, var)
        hv, hw = _horner_grid(v, x, above), _horner_grid(w, x, above)
        try:
            powers = np.array([b ** (model.zeta - 2) for b in u.ravel().tolist()]).reshape(u.shape)
        except ArithmeticError:  # overflow or 0 ** -1 somewhere: no point is trusted
            powers = math.nan
        scale = 4.0 * var * powers
        f_ll = scale * u * hv
        f_zz = scale * lz2 * hw
        joint = scale * lz2 * var * _horner_grid(g, x, above) / (u * hv + lz2 * hw)
        ok = (np.isfinite(n) & (n >= 0.0) & (gam >= 0.0) & (gam <= 1.0) & np.isfinite(th) & np.isfinite(ph)
              & (f_ll < math.inf) & (f_zz < math.inf) & (joint < math.inf))
    return (f_ll, f_zz, joint), ok


def normal_law_grid(n_total, gamma, theta, phi, model: ModelSpec):
    """normal_law_qfi over arrays of N, gamma, theta and phi, broadcast together.

    Returns the arrays (f_ll, f_zz, det F / tr F), equal bit for bit to
    normal_law_qfi at every point: the same formulas in the same order, with
    numpy's sqrt, cos and sin, which agree with the math module's, and the
    power of u taken per element by Python's float pow, which numpy's
    vectorised power does not always match. Where a point lies outside the
    probe domain or a result does not fit in double, the points are handed
    to normal_law_qfi's kernel in C order, so that the error raised is the
    one a loop over the points would raise.
    """
    values, ok = _normal_law_arrays(n_total, gamma, theta, phi, model)
    if not ok.all():
        n, gam, th, ph = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (n_total, gamma, theta, phi)))
        for i in np.flatnonzero(~ok).tolist():
            _normal_law_qfi(n.item(i), gam.item(i), th.item(i), ph.item(i), model)
        raise InternalConsistencyError("normal_law_grid rejected points that normal_law_qfi accepts")
    return values


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
            raise InternalConsistencyError(f"QFI matrix has negative determinant {float(det):.3e}")
        det = 0.0
    return det / trace
