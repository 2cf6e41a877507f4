"""Closed-form QFI matrix over (lambda, zeta) and the joint scalar bound.

The interaction is H = lambda_tilde (a+a^dag)^zeta; after absorbing the
interaction time, lambda = lambda_tilde * t is the effective coupling. The
coupling QFI is 4 Var(G_zeta) on the probe, the order QFI follows from the
power-rule derivative of the generator, and the two parameters are
compatible: both generators are powers of the same Hermitian quadrature, so
the Uhlmann antisymmetric part vanishes identically.

The entries and the joint bound are written once, in _ENTRIES: the
quadrature is normal in both moment families, so each entry is a formula
in its mean, its variance and integer polynomials in x = mu^2 / sigma^2,
evaluated in double precision by Horner's rule. _normal_law_kernel, a
function of gamma at fixed energy and phases, applies one entry's formula
to floats; normal_law_grid applies the same formulas to numpy arrays, bit
for bit. Both evaluate only the polynomials that the requested entries
read. numpy is imported by the functions that build arrays, so that a
scalar call never loads it.
"""

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

from .combinatorics import normal_law_polynomials
from .errors import OVERFLOW, DegenerateModelError, DomainError, InternalConsistencyError
from .moments import _check_beta_sign, _energy_law, _phase_terms
from .probe import ProbeSpec, make_probe

__all__ = [
    "ModelSpec",
    "QfiMatrix",
    "qfi_lambda",
    "qfi_zeta",
    "qfi_cross",
    "qfi_matrix",
    "normal_law_grid",
    "reparametrize_physical",
    "scalar_bound_inverse",
]

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
        if not (0 < self.time < math.inf and sys.float_info.min <= self.time * self.time < math.inf):
            raise DomainError(f"interaction time must be > 0 with a square in the normal double range, got {self.time}")


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

    def is_positive_semidefinite(self) -> bool:
        return (
            self.f_ll >= -PSD_TOL
            and self.f_zz >= -PSD_TOL
            and self.determinant() >= -PSD_TOL * max(self.f_ll * self.f_zz, 1.0)
        )


@lru_cache(maxsize=None)
def _normal_law_table(zeta, j):
    """The float coefficients of polynomial j of normal_law_polynomials(zeta) in the orders Horner's rule
    takes them, indexed by x > 1: highest power of x first, and lowest first for the sum in 1/x.
    OverflowError(OVERFLOW) where one is beyond double: G's from zeta = 85, V's and Q's from 149, W's from 150."""
    try:
        low_first = tuple(map(float, normal_law_polynomials(zeta)[j]))
    except OverflowError:  # int to float raises its own message
        raise OverflowError(OVERFLOW) from None
    return low_first[::-1], low_first


def _square(lz):
    """lz ** 2, inf where float ** raises OverflowError; not lz * lz, which
    differs in the last bit on some doubles."""
    try:
        return lz**2
    except OverflowError:  # float ** raises where * gives inf: f_zz fails the range check, the bound divides
        return math.inf


def _joint_bound(h, mean, var, u, scale, lz, lz2):
    g, v, w = h
    uv = u * v
    if 1.0 < lz2:  # lz2 divides u V instead of multiplying the numerator, which it could overflow
        # past the double range lz^2 can be as near u V as inside it, so lz divides it twice. At
        # zeta = 1, G = W = 0 and the bound is 0: g == 0 keeps the denominator off the 0 that an
        # underflowed u V / lz^2 gives, and adds nothing where G > 0
        bound = scale * (var * g / ((uv / lz2 if lz2 < math.inf else uv / lz / lz) + w + (g == 0)))
    else:
        bound = scale * lz2 * var * g / (uv + lz2 * w)
    return bound * (uv / uv)  # nan where u V overflowed, which would leave the bound 0: an entry overflow


def _product(scale, c, *factors):
    """An entry that is the product scale * c * factors, in that order, with
    c the coupling factor lz or lz2, and where one of factors is exactly 0
    the product of factors alone: the signed zero that the product takes for
    every finite scale, not the nan of 0 * inf where c, scale or their
    product overflows. For floats, mpf and numpy arrays."""
    value = scale * c
    for f in factors:
        value = value * f
    if hasattr(value, "shape"):
        import numpy as np

        return np.where(np.logical_or.reduce([f == 0 for f in factors]), math.prod(factors), value)
    return math.prod(factors) if 0 in factors else value


# The QFI entries, for floats, numpy arrays and mpf alike. In both moment
# families the quadrature X = a + a^dag is normal, with the mean mu and
# variance sigma^2 of moments._energy_law. Both variances, the covariance
# over mu and the Gram determinant are polynomials V, W, Q, G in
# x = mu^2 / sigma^2 of degrees zeta - 1, zeta - 2, zeta - 2 and
# 2 zeta - 4 whose cancelling terms were removed exactly
# (combinatorics.normal_law_polynomials); what is left has positive
# coefficients but for one term of the determinant at odd zeta, so Horner's
# rule loses nothing to cancellation. With u = max(mu^2, sigma^2),
# scale = 4 sigma^2 u^(zeta-2) and lz = lambda zeta,
#
#     f_ll = scale u V,  f_zz = scale lz^2 W,  f_lz = scale lz mu Q,
#     det F / tr F = scale lz^2 sigma^2 G / (u V + lz^2 W),
#
# where V, W, Q, G are divided by max(x, 1) to their degrees (Horner's rule
# runs in t = x for x <= 1 and in t = 1/x for x > 1, which leaves the powers
# of x to u), so at most their coefficient sums: f_ll, f_zz and f_lz have no
# intermediate overflow where they fit, and f_ll does not read lambda. Nor
# has the joint bound: where lz^2 > 1 it is taken as
# scale (sigma^2 G / (u V / lz^2 + W)), with u V divided by lz twice where
# lz^2 overflows double (u V can be as large), and elsewhere in the order
# above, in which lz^2 <= 1 (lambda = 0 included) overflows no numerator.
# Where u V itself overflows (mu^2 beyond the double range) the bound is
# nan, not the 0 of its quotient. lz2 is _square(lz). Where W, Q or mu is
# exactly 0 (W and Q at zeta = 1, mu at gamma = 1), f_zz and f_lz are the
# signed zero of their finite product (_product), also where lz, lz^2,
# scale or their product overflows.
# Entry k is (the polynomials of (V, W, G, Q) it reads, its formula in
# their values h, in that order).
_ENTRIES = (
    ((0,), lambda h, mean, var, u, scale, lz, lz2: scale * u * h[0]),
    ((1,), lambda h, mean, var, u, scale, lz, lz2: _product(scale, lz2, h[0])),
    ((3,), lambda h, mean, var, u, scale, lz, lz2: _product(scale, lz, mean, h[0])),
    ((2, 0, 1), _joint_bound),
)


def _normal_law_kernel(n_total, theta, phi, model, beta_sign=+1, *, entry):
    """gamma -> the entry of (f_ll, f_zz, f_lz, det F / tr F) at index entry,
    a float, at the probe (n_total, gamma, theta, phi): the scalar QFI
    assembly of the package, for both families, with the phase terms, the
    polynomials that entry reads, its formula (_ENTRIES) and (lambda zeta)^2
    taken once.

    Each point takes u and t = x for x <= 1 or u = mu^2 and t = 1/x for
    x > 1, runs Horner's rule in t on the polynomials that the entry reads
    and hands their values to the entry's formula; f_ll costs one Horner sum.
    A point outside the probe domain raises make_probe's DomainError, an
    entry beyond the double range OverflowError(OVERFLOW), at once where a
    polynomial that it reads is (_normal_law_table).
    """
    zeta, inf = model.zeta, math.inf
    power, lz = zeta - 2, model.lambda_eff * zeta
    lz2 = _square(lz)
    reads, formula = _ENTRIES[entry]
    below, above = zip(*(_normal_law_table(zeta, j) for j in reads))
    fixed_ok = math.isfinite(theta) and math.isfinite(phi)
    phase = _phase_terms(theta, phi, beta_sign) if fixed_ok else None  # else make_probe raises
    fixed_ok = fixed_ok and 0.0 <= n_total < inf

    def kernel(gamma):
        if not (fixed_ok and 0.0 <= gamma <= 1.0):
            make_probe(n_total, gamma, theta, phi)
        mean, var = _energy_law(n_total, gamma, phase)
        x = mean * mean / var
        if x > 1.0:
            u, t, polys = mean * mean, 1.0 / x, above
        else:
            u, t, polys = var, x, below
        try:
            scale = 4.0 * var * u**power
        except OverflowError:  # float ** raises where np.float_power gives inf, which only a zero entry survives
            scale = inf
        h = []
        for poly in polys:
            acc = 0.0
            for c in poly:
                acc = acc * t + c
            h.append(acc)
        value = formula(h, mean, var, u, scale, lz, lz2)
        if not -inf < value < inf:
            raise OverflowError(OVERFLOW)  # products overflow silently
        return value

    return kernel


def _probe_qfi(probe: ProbeSpec, model: ModelSpec, beta_sign, entries):
    """The entries at the indices in entries, as a list: one _normal_law_kernel
    per entry, in order, at a probe."""
    _check_beta_sign(beta_sign)
    return [_normal_law_kernel(probe.n_total, probe.theta, probe.phi, model, beta_sign, entry=k)(probe.gamma) for k in entries]


def qfi_lambda(probe: ProbeSpec, model: ModelSpec, *, beta_sign: int = +1) -> float:
    """QFI for the effective coupling: 4 [<G_2z> - <G_z>^2].

    Independent of lambda by construction; only model.zeta is read.
    """
    return _probe_qfi(probe, model, beta_sign, (0,))[0]


def qfi_zeta(probe: ProbeSpec, model: ModelSpec, *, beta_sign: int = +1) -> float:
    """QFI for the nonlinearity order: 4 (lambda zeta)^2 [<G_2(z-1)> - <G_(z-1)>^2].

    At zeta = 1 the generator derivative is the identity (G_0 convention),
    whose variance vanishes, so the element is exactly zero.
    """
    return _probe_qfi(probe, model, beta_sign, (1,))[0]


def qfi_cross(probe: ProbeSpec, model: ModelSpec, *, beta_sign: int = +1) -> float:
    """Off-diagonal element: 4 lambda zeta [<G_(2z-1)> - <G_z><G_(z-1)>]."""
    return _probe_qfi(probe, model, beta_sign, (2,))[0]


def qfi_matrix(probe: ProbeSpec, model: ModelSpec, *, beta_sign: int = +1) -> QfiMatrix:
    """Assemble the full matrix; u_lz is identically zero for this model.

    [G_zeta, G_(zeta-1)] = 0 because both are powers of the same Hermitian
    operator, so the mean SLD commutator (the Uhlmann element) vanishes and
    joint estimation carries no intrinsic quantum incompatibility.
    """
    return QfiMatrix(*_probe_qfi(probe, model, beta_sign, (0, 1, 2)), u_lz=0.0)


def _horner_grid(zeta, j, x, above):
    """Horner's rule in t = x or 1/x on _normal_law_table(zeta, j) at every element of x, where above
    is x > 1; nan where that table raises, so that its points go to the scalar kernel, which raises."""
    import numpy as np

    try:
        high_first, low_first = _normal_law_table(zeta, j)
    except OverflowError:
        return np.full(np.shape(x), math.nan)
    y = 1.0 / x
    acc_y = acc_x = 0.0
    for c_y, c_x in zip(low_first, high_first):
        acc_y = acc_y * y + c_y
        acc_x = acc_x * x + c_x
    return np.where(above, acc_y, acc_x)


def _normal_law_arrays(n_total, gamma, theta, phi, model: ModelSpec, entries):
    """normal_law_grid without its errors: (values, ok), where values holds
    the arrays of the entries at the indices in entries and ok marks the
    points at which all of them are right. Elsewhere the values are
    meaningless and _normal_law_kernel may raise.
    """
    import numpy as np

    arrays = [np.asarray(a, dtype=float) for a in (n_total, gamma, theta, phi)]
    n, gam, th, ph = np.broadcast_arrays(*arrays)
    with np.errstate(all="ignore"):  # both Horner branches run everywhere, 1/x included
        mean, var = _energy_law(n, gam, _phase_terms(arrays[2], arrays[3], +1, np), np)  # phases unbroadcast
        x = mean * mean / var
        above = x > 1.0
        u = np.where(above, mean * mean, var)
        # libm's pow, as float ** takes it; where ** raises it gives inf, which fails ok
        scale, lz = 4.0 * var * np.float_power(u, model.zeta - 2), model.lambda_eff * model.zeta
        lz2, read = _square(lz), [_ENTRIES[k] for k in entries]
        h = {j: _horner_grid(model.zeta, j, x, above) for j in {j for reads, _ in read for j in reads}}  # once each
        values = tuple(formula([h[j] for j in reads], mean, var, u, scale, lz, lz2) for reads, formula in read)
        ok = np.isfinite(n) & (n >= 0.0) & (gam >= 0.0) & (gam <= 1.0) & np.isfinite(th) & np.isfinite(ph)
        for value in values:
            ok &= np.isfinite(value)
    return values, ok


def normal_law_grid(n_total, gamma, theta, phi, model: ModelSpec, *, entries):
    """_normal_law_kernel over arrays of N, gamma, theta and phi, broadcast together.

    Returns the arrays of the entries of (f_ll, f_zz, f_lz, det F / tr F)
    at the indices in entries, equal bit for bit to
    _normal_law_kernel(..., entry=k) at every point: the same formulas
    (_ENTRIES) in the same order, with numpy's sqrt, cos and sin, which agree
    with the math module's, and np.float_power, which calls libm's pow as
    float ** does (numpy's vectorised power may not). Where a point lies
    outside the probe domain or a requested entry does not fit in double,
    the points are handed in C order to one kernel per entry, in the order
    of entries, so that the error raised is the one a loop over the points
    would raise.
    """
    import numpy as np

    values, ok = _normal_law_arrays(n_total, gamma, theta, phi, model, entries)
    if not ok.all():
        n, gam, th, ph = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (n_total, gamma, theta, phi)))
        for i in np.flatnonzero(~ok).tolist():
            for k in entries:
                _normal_law_kernel(n.item(i), th.item(i), ph.item(i), model, entry=k)(gam.item(i))
        raise InternalConsistencyError("normal_law_grid rejected points that the scalar kernel accepts")
    return values


def reparametrize_physical(qfi: QfiMatrix, model: ModelSpec) -> QfiMatrix:
    """Congruence B F B^T with B = diag(t, 1), mapping lambda -> lambda_tilde: the input's
    values at t = 1, and OverflowError(OVERFLOW) where an entry leaves the double range."""
    t = model.time
    out = QfiMatrix(f_ll=t * t * qfi.f_ll, f_zz=qfi.f_zz, f_lz=t * qfi.f_lz, u_lz=t * qfi.u_lz)
    if not all(-math.inf < v < math.inf for v in out.as_tuple()):
        raise OverflowError(OVERFLOW)
    return out


def scalar_bound_inverse(qfi: QfiMatrix) -> float:
    """Inverse of the identity-weight scalar bound: det(F) / tr(F).

    Zero for a singular matrix (one parameter carries no information).
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
