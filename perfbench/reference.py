"""Independent 50-digit reference for the nlprobe closed forms.

For either amplitude family, <(a+a^dag)^k> is the k-th raw moment of a
normal law with mean 2 eta Re(beta e^(i psi)) and variance eta^2, where
mu = cosh r, nu = e^(i theta) sinh r, eta = |mu + nu|,
psi = Arg(mu + conj(nu)) and beta = mu alpha +/- nu conj(alpha) (README,
"Moment conventions"). Raw moments of a normal law obey

    M_k = m M_(k-1) + (k-1) sigma^2 M_(k-2),

which shares nothing with the program's (k, s) normal-ordering sums. Every
number here is a `decimal.Decimal` at 50 significant digits in a private
context; the program itself uses floats and mpmath, never `decimal`.

Since eta e^(i psi) = mu + conj(nu) and |mu + conj(nu)| = eta, the mean is
2 Re(beta (mu + conj(nu))); with sinh r = sqrt(gamma N) the whole probe
needs only square roots and the cosine and sine of the two phases.
"""

import decimal
from decimal import Decimal
from functools import lru_cache

DIGITS = 50
CONTEXT = decimal.Context(prec=DIGITS, Emax=999_999, Emin=-999_999)
_TRIG_CONTEXT = decimal.Context(prec=DIGITS + 15, Emax=999_999, Emin=-999_999)

F_LAMBDA = "f_lambda"
F_ZETA = "f_zeta"
JOINT = "joint"

ARGMAX_GRID = 65  # coarse reference grid over gamma; refined by golden section
ARGMAX_TOL = Decimal("1e-13")

with decimal.localcontext(CONTEXT):
    ANALYTIC_THRESHOLD = (3 * Decimal(2).sqrt() - 4) / 8
    _INV_PHI = (Decimal(5).sqrt() - 1) / 2


@lru_cache(maxsize=4096)
def _cos_sin(x: Decimal):
    """Taylor series with 15 guard digits; inputs are phases in [0, 2 pi)."""
    with decimal.localcontext(_TRIG_CONTEXT):
        x = +x
        x2 = x * x
        eps = Decimal(10) ** -(DIGITS + 10)
        cos = term = Decimal(1)
        n = 0
        while abs(term) > eps:
            n += 2
            term = -term * x2 / (n * (n - 1))
            cos += term
        sin = term = x
        n = 1
        while abs(term) > eps:
            n += 2
            term = -term * x2 / (n * (n - 1))
            sin += term
    return +cos, +sin


def gaussian(n_total, gamma, theta=0.0, phi=0.0, beta_sign=+1, magnitude=False):
    """(mean, variance) of the normal law whose raw moments are <G_k>.

    With magnitude=True the mean is replaced by 2 eta |beta|, a bound on its
    size; the raw moments of that law are the sums of the magnitudes of the
    terms in the program's (k, s) expansion. Float inputs enter exactly.
    """
    with decimal.localcontext(CONTEXT):
        n, g = Decimal(n_total), Decimal(gamma)
        s = (g * n).sqrt()  # sinh r
        mu = (1 + s * s).sqrt()  # cosh r
        a = ((1 - g) * n).sqrt()  # |alpha|
        ct, st = _cos_sin(Decimal(theta)) if theta else (Decimal(1), Decimal(0))
        cp, sp = _cos_sin(Decimal(phi)) if phi else (Decimal(1), Decimal(0))
        nu_re, nu_im = s * ct, s * st
        al_re, al_im = a * cp, a * sp
        # beta = mu alpha + sign nu conj(alpha)
        b_re = mu * al_re + beta_sign * (nu_re * al_re + nu_im * al_im)
        b_im = mu * al_im + beta_sign * (nu_im * al_re - nu_re * al_im)
        var = (mu + nu_re) ** 2 + nu_im**2
        if magnitude:
            return 2 * (var * (b_re**2 + b_im**2)).sqrt(), +var
        # mean = 2 Re(beta (mu + conj(nu)))
        mean = 2 * (b_re * (mu + nu_re) + b_im * nu_im)
        return +mean, +var


def raw_moments(mean: Decimal, var: Decimal, k_max: int):
    """[M_0 .. M_k_max] of the normal law N(mean, var)."""
    with decimal.localcontext(CONTEXT):
        out = [Decimal(1), +mean]
        for k in range(2, k_max + 1):
            out.append(mean * out[k - 1] + (k - 1) * var * out[k - 2])
        return out[: k_max + 1]


def probe_moments(n_total, gamma, k_max, theta=0.0, phi=0.0, beta_sign=+1):
    return raw_moments(*gaussian(n_total, gamma, theta, phi, beta_sign), k_max)


def qfi_entries(m, zeta: int, lam):
    """(F_ll, F_zz, F_lz) from raw moments m[0..2 zeta]."""
    with decimal.localcontext(CONTEXT):
        lam = Decimal(lam)
        f_ll = 4 * (m[2 * zeta] - m[zeta] ** 2)
        if zeta == 1:
            f_zz = Decimal(0)
        else:
            f_zz = 4 * (lam * zeta) ** 2 * (m[2 * zeta - 2] - m[zeta - 1] ** 2)
        f_lz = 4 * lam * zeta * (m[2 * zeta - 1] - m[zeta] * m[zeta - 1])
        return f_ll, f_zz, f_lz


def joint_bound(f_ll, f_zz, f_lz) -> Decimal:
    """det F / tr F; det F >= 0 holds exactly (Cauchy-Schwarz)."""
    with decimal.localcontext(CONTEXT):
        det = f_ll * f_zz - f_lz * f_lz
        if det < 0:
            raise ArithmeticError(f"reference determinant {det} < 0: precision exhausted")
        return det / (f_ll + f_zz)


def objective(kind: str, gamma, n_total, zeta: int, lam=1.0, theta=0.0, phi=0.0, beta_sign=+1) -> Decimal:
    """Figure of merit as nlprobe.optimizer.objective defines it."""
    m = probe_moments(n_total, gamma, 2 * zeta, theta, phi, beta_sign)
    f_ll, f_zz, f_lz = qfi_entries(m, zeta, lam)
    if kind == F_LAMBDA:
        return f_ll
    if kind == F_ZETA:
        return f_zz
    if kind == JOINT:
        return joint_bound(f_ll, f_zz, f_lz)
    raise ValueError(f"unknown target {kind!r}")


def objective_scale(kind: str, gamma, n_total, zeta: int, lam=1.0, theta=0.0, phi=0.0) -> Decimal:
    """Size of the terms a double-precision evaluation adds up and subtracts.

    4 M_(2 zeta) for the coupling QFI and 4 (lambda zeta)^2 M_(2 zeta - 2)
    for the order QFI, with M the moments of term magnitudes (see gaussian);
    a correct double-precision result may carry a few ulps of this size. On
    the real axis these are the moments themselves; at general phases the
    moments can be orders of magnitude smaller than the terms summed.
    """
    m = raw_moments(*gaussian(n_total, gamma, theta, phi, magnitude=True), 2 * zeta)
    with decimal.localcontext(CONTEXT):
        if kind == F_LAMBDA:
            return 4 * m[2 * zeta]
        if kind == F_ZETA:
            return 4 * (Decimal(lam) * zeta) ** 2 * m[2 * zeta - 2]
    raise ValueError(f"no cancellation scale for target {kind!r}")


def argmax(kind: str, n_total, zeta: int, lam=1.0):
    """(gamma*, F*) maximizing the target over gamma in [0, 1] at fixed N.

    A 65-point grid locates every local maximum (the endpoints included);
    each is refined by golden section to 1e-13 in gamma, all at 50 digits.
    """

    def f(g):
        return objective(kind, g, n_total, zeta, lam)

    with decimal.localcontext(CONTEXT):
        grid = [Decimal(i) / (ARGMAX_GRID - 1) for i in range(ARGMAX_GRID)]
        vals = [f(g) for g in grid]
        best_g, best_v = None, None
        last = ARGMAX_GRID - 1
        for i in range(ARGMAX_GRID):
            if (i > 0 and vals[i] < vals[i - 1]) or (i < last and vals[i] < vals[i + 1]):
                continue
            lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, last)]
            for g, v in ((grid[i], vals[i]), _golden(f, lo, hi)):
                if best_v is None or v > best_v:
                    best_g, best_v = g, v
        return best_g, best_v


def _golden(f, lo, hi):
    c = hi - _INV_PHI * (hi - lo)
    d = lo + _INV_PHI * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > ARGMAX_TOL:
        if fc > fd:
            hi, d, fd = d, c, fc
            c = hi - _INV_PHI * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _INV_PHI * (hi - lo)
            fd = f(d)
    return (c, fc) if fc > fd else (d, fd)
