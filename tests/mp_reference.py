"""40-digit references that the tests hold the double-precision code to.

kernel is qfi_core._normal_law_kernel evaluated with mpmath: the quadrature's
normal law at 40 digits, without the compensated phase difference of
moments._phase_terms (at 40 digits the rounding of h - phi is harmless), and
qfi_core's entry formulas (_ENTRIES, through assemble) over the exact integer
coefficients of the polynomials, with each entry rounded to double once. It
checks the precision of the double kernel, not its formulas;
tests/test_properties.py holds those to an independent 80-digit moment
recursion.

printed_moments evaluates the printed general-phase formula

    <G_zeta> = eta^zeta * sum_{k,s} C(zeta,k,s) e^(i psi (zeta-2k-2s))
               conj(beta)^s beta^(zeta-2k-s)

with (mu, nu, beta, eta, psi) as in probe.bogoliubov_view, at 40 digits. It
shares nothing with the normal law but the probe, and its imaginary residue
checks the phase bookkeeping.

vacuum_amplitude and high_energy_prefactor are the limits of the QFIs
derived by hand, which the end terms of the exact polynomials and the laws
of nlprobe.asymptotics are held to.
"""

import math
from functools import lru_cache
from math import factorial
from unittest import mock

import mpmath
import numpy as np

from nlprobe import optimizer
from nlprobe.combinatorics import normal_law_polynomials, normal_order_coeff
from nlprobe.errors import InternalConsistencyError
from nlprobe.moments import _normal_sum
from nlprobe.qfi_core import _ENTRIES, OVERFLOW, QfiMatrix, _square

DPS = 40  # working digits
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
IMAG_RESIDUE_TOL = 1e-10


def vacuum_amplitude(zeta):
    """A(zeta) = 2^zeta Var(X^zeta) for X ~ N(0, 1): (2 zeta)!/zeta!, less
    [zeta!/(zeta/2)!]^2 at even zeta, an exact integer."""
    value = factorial(2 * zeta) // factorial(zeta)
    if zeta % 2 == 0:
        value -= (factorial(zeta) // factorial(zeta // 2)) ** 2
    return value


def high_energy_prefactor(zeta, gamma):
    """B_gamma(zeta) = 4^(3 zeta - 1) zeta^2 (1-gamma)^(zeta-1) gamma^(2 zeta - 1),
    with 0^0 = 1 at the gamma endpoints: the coupling QFI over N^(3 zeta - 2)
    as N grows."""
    return 4.0 ** (3 * zeta - 1) * zeta**2 * (1.0 - gamma) ** (zeta - 1) * gamma ** (2 * zeta - 1)


@lru_cache(maxsize=None)
def _exact_table(zeta, j):
    """qfi_core._normal_law_table with the integer coefficients themselves."""
    low_first = normal_law_polynomials(zeta)[j]
    return low_first[::-1], low_first


def assemble(mean, var, lz, zeta, table, entries):
    """The entries of (f_ll, f_zz, f_lz, det F / tr F) at the indices in
    entries, as a list, from the quadrature's mean and variance, lz = lambda
    zeta and a coefficient table, a function of (zeta, j) ordered as
    qfi_core._normal_law_table: the formulas of qfi_core._ENTRIES on plain
    numbers, whose type sets the precision, with (lambda zeta)^2 from
    qfi_core._square. On floats and that table it is the scalar kernel's
    arithmetic, the polynomials in t = x for x <= 1 and in t = 1/x for x > 1.
    """
    x = mean * mean / var
    above = x > 1.0
    u, t = (mean * mean, 1.0 / x) if above else (var, x)
    try:
        scale = 4.0 * var * u ** (zeta - 2)
    except OverflowError:  # float ** raises where the scalar kernel takes inf
        scale = math.inf

    def horner(j):
        acc = 0.0
        for c in table(zeta, j)[above]:
            acc = acc * t + c
        return acc

    lz2, read = _square(lz), (_ENTRIES[k] for k in entries)
    return [formula([horner(j) for j in reads], mean, var, u, scale, lz, lz2) for reads, formula in read]


def _normal_law(n_total, gamma, theta, phi, beta_sign):
    """moments._energy_law(n_total, gamma, moments._phase_terms(theta, phi,
    beta_sign)) on mpf arguments, in the working precision."""
    n_sq = gamma * n_total
    e_r = mpmath.sqrt(n_sq) + mpmath.sqrt(1 + n_sq)
    big, small = e_r * e_r, 1 / (e_r * e_r)
    h = theta / 2
    ch, sh = mpmath.cos(h), mpmath.sin(h)
    var = big * ch * ch + small * sh * sh
    a2 = 2 * mpmath.sqrt((1 - gamma) * n_total)
    if beta_sign > 0:
        return a2 * (big * ch * mpmath.cos(h - phi) + small * sh * mpmath.sin(h - phi)), var
    return a2 * mpmath.cos(phi), var


def _unrounded(n_total, gamma, theta, phi, model, beta_sign, entries, dps=DPS):
    """The entries of kernel as mpf at dps digits, unrounded: combine them inside mpmath.workdps(dps)."""
    zeta = model.zeta
    with mpmath.workdps(dps):
        mean, var = _normal_law(*map(mpmath.mpf, (n_total, gamma, theta, phi)), beta_sign)
        return assemble(mean, var, mpmath.mpf(model.lambda_eff) * zeta, zeta, _exact_table, entries)


def kernel(n_total, gamma, theta, phi, model, beta_sign=+1, entries=(0, 1, 2, 3)):
    """qfi_core._normal_law_kernel(n_total, theta, phi, model, beta_sign,
    entries)(gamma) at 40 digits, one rounding per entry."""
    values = [float(v) for v in _unrounded(n_total, gamma, theta, phi, model, beta_sign, entries)]
    if not all(-math.inf < v < math.inf for v in values):
        raise OverflowError(OVERFLOW)
    return values


def probe_qfi(probe, model, beta_sign, entries):
    """qfi_core._probe_qfi at 40 digits."""
    return kernel(probe.n_total, probe.gamma, probe.theta, probe.phi, model, beta_sign, entries)


def qfi_matrix(probe, model, beta_sign=+1):
    """qfi_core.qfi_matrix at 40 digits."""
    return QfiMatrix(*probe_qfi(probe, model, beta_sign, (0, 1, 2)))


def objective(gamma, n_total, target):
    """optimizer.objective at 40 digits."""
    return kernel(n_total, gamma, 0.0, 0.0, target.model, entries=(optimizer._ENTRY[target.kind],))[0]


def _kernel_at(n_total, theta, phi, model, beta_sign=+1, *, entry):
    """qfi_core._normal_law_kernel at 40 digits: entry of kernel as a function of gamma."""
    return lambda gamma: kernel(n_total, gamma, theta, phi, model, beta_sign, (entry,))[0]


def _table(n_total, gamma, theta, phi, model, entries):
    """The optimizer's coarse table (qfi_core._normal_law_arrays over a
    column of energies and a list of gammas) with every point from kernel,
    whose errors raise at once."""
    rows = [[kernel(n, g, theta, phi, model, entries=entries) for g in gamma] for n in np.ravel(n_total).tolist()]
    values = np.moveaxis(np.array(rows, dtype=float), -1, 0)
    return tuple(values), np.ones(values.shape[1:], dtype=bool)


def optimize_gamma_grid(ns, target):
    """optimizer.optimize_gamma_grid with every objective value from kernel."""
    with mock.patch.object(optimizer, "_normal_law_kernel", _kernel_at), \
            mock.patch.object(optimizer, "_normal_law_arrays", _table):
        return optimizer.optimize_gamma_grid(ns, target)


def optimize_gamma(n_total, target):
    return optimize_gamma_grid([n_total], target)[0]


def argmax(n_total, target):
    """(gamma, value) at the global maximum over gamma in [0, 1] of the
    objective at 40 digits, unrounded until the end: every local maximum of
    a 129-point grid, ends included, is refined by a golden section to 1e-9
    on the bracket of its neighbours, and the best point seen wins. Like
    optimizer.optimize_gamma it works at zero phases, and it shares with it
    nothing but the kernel's formulas."""
    model, entry = target.model, optimizer._ENTRY[target.kind]
    grid, tol = 129, 1e-9

    def f(g):
        return _unrounded(n_total, g, 0.0, 0.0, model, +1, (entry,))[0]

    with mpmath.workdps(DPS):
        gs = [mpmath.mpf(i) / (grid - 1) for i in range(grid)]
        vals = [f(g) for g in gs]
        best = max(zip(vals, gs))
        for i in range(grid):
            if (i == 0 or vals[i] >= vals[i - 1]) and (i == grid - 1 or vals[i] >= vals[i + 1]):
                lo, hi = gs[max(i - 1, 0)], gs[min(i + 1, grid - 1)]
                c, d = hi - GOLDEN * (hi - lo), lo + GOLDEN * (hi - lo)
                fc, fd = f(c), f(d)
                while hi - lo > tol:
                    if fc > fd:
                        hi, d, fd = d, c, fc
                        c = hi - GOLDEN * (hi - lo)
                        fc = f(c)
                    else:
                        lo, c, fc = c, d, fd
                        d = lo + GOLDEN * (hi - lo)
                        fd = f(d)
                best = max(best, (fc, c), (fd, d))
        return float(best[1]), float(best[0])


def end_slope(n_total, target):
    """The one-sided slope of objective at gamma = 1, (f(1) - f(1 - h)) / h
    with h = 1e-45, in 2 DPS + 10 digits, as a float: its sign is that of
    df/dgamma at gamma = 1 wherever that slope is above about 1e-44 of f."""
    dps, entry = 2 * DPS + 10, optimizer._ENTRY[target.kind]
    with mpmath.workdps(dps):
        h = mpmath.mpf(10) ** -(DPS + 5)
        f1, f0 = (_unrounded(n_total, g, 0, 0, target.model, +1, (entry,), dps)[0] for g in (1, 1 - h))
        return float((f1 - f0) / h)


@lru_cache(maxsize=None)
def end_slope_root(target, lo=1e-3, hi=1.0):
    """The energy in (lo, hi) where end_slope changes sign from positive to
    negative, by geometric bisection to DPS digits: the threshold of f_lambda
    and f_zeta, found from the objective alone. Raises
    InternalConsistencyError where the slope does not change sign between
    lo and hi."""
    if not end_slope(lo, target) > 0.0 > end_slope(hi, target):
        raise InternalConsistencyError(f"the end slope of {target} keeps its sign on [{lo}, {hi}]")
    with mpmath.workdps(DPS + 5):
        lo, hi = mpmath.mpf(lo), mpmath.mpf(hi)
        while hi / lo - 1 > mpmath.mpf(10) ** -DPS:
            mid = mpmath.sqrt(lo * hi)
            if end_slope(mid, target) > 0.0:
                lo = mid
            else:
                hi = mid
        return mpmath.sqrt(lo * hi)


def real_axis_moment(alpha, r, k, beta_sign=+1):
    """moments.moment_real_axis at 40 digits."""
    with mpmath.workdps(DPS):
        big = mpmath.exp(2 * mpmath.mpf(r))
        return float(_normal_sum(k, 2 * mpmath.mpf(alpha) * (big if beta_sign > 0 else 1), big))


# built at DPS digits and cached, so only asked for inside mpmath.workdps(DPS)
@lru_cache(maxsize=None)
def _printed_table(k):
    """The terms (C(k,j,s), phase multiplier, power of conj(beta), power of beta) of order k."""
    terms = (
        (normal_order_coeff(k, j, s), k - 2 * j - 2 * s, s, k - 2 * j - s)
        for j in range(k // 2 + 1)
        for s in range(k - 2 * j + 1)
    )
    return tuple((mpmath.mpf(c.numerator) / c.denominator, ph, s, p) for c, ph, s, p in terms)


def printed_moments(probe, orders, beta_sign=+1):
    """{k: <G_k>} for k = 0 and every k in orders from the printed sum, as
    unrounded mpf at DPS digits: combine them inside mpmath.workdps(DPS).

    An imaginary residue above IMAG_RESIDUE_TOL of eta^k max|term| means the
    phase bookkeeping is broken and raises InternalConsistencyError.
    """
    orders = set(orders) | {0}
    k_max = max(orders)
    with mpmath.workdps(DPS):
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
            terms = [c * phase[ph] * betac_pow[s] * beta_pow[p] for c, ph, s, p in _printed_table(k)]
            scale = eta**k
            total = scale * sum(terms)
            if abs(total.imag) > IMAG_RESIDUE_TOL * scale * max(map(abs, terms)):
                raise InternalConsistencyError(
                    f"imaginary residue {float(total.imag):.3e} exceeds tolerance for k={k} probe={probe}"
                )
            out[k] = total.real
        return out
