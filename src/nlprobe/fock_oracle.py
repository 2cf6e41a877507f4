"""Brute-force verification backend on a truncated Fock space.

Nothing in here shares code with the closed-form moment machinery: states
D(alpha) S(xi)|0> are built by applying the squeezing and displacement
exponentials to the vacuum vector, each exactly on the truncated space as
a diagonal phase rotation of a real tridiagonal exponential taken from its
cached eigendecomposition; moments come from repeated application of the
quadrature as a three-term stencil, and QFI/Uhlmann/SLD quantities from
explicit state derivatives. Agreement with the analytic layer is therefore
evidence, not tautology.

Truncation policy: results must be stable under doubling the cutoff
(1e-9 relative) and states must satisfy a tail-mass bound; the top 1/8 of
the basis is treated as a guard band and excluded from validity checks.

numpy, like scipy, is imported by the functions that use it, so that
importing this module (as nlprobe.cli does) loads neither.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import CutoffError, DomainError, InternalConsistencyError
from .probe import ProbeSpec
from .qfi_core import ModelSpec, QfiMatrix

__all__ = [
    "TruncatedOperator",
    "TruncatedState",
    "annihilation",
    "quadrature",
    "default_dim",
    "build_state",
    "expectation_moment",
    "expectation_moments",
    "converged_moments",
    "qfi_matrix_oracle",
    "sld_operator",
    "evolution_unitarity_defect",
    "zeta_derivative_diagnostic",
]

TAIL_TOL = 1e-12
STABILITY_TOL = 1e-9
DIM_CAP = 4096


@dataclass(frozen=True)
class TruncatedOperator:
    dim: int
    entries: np.ndarray


@dataclass(frozen=True)
class TruncatedState:
    dim: int
    amplitudes: np.ndarray

    def tail_mass(self) -> float:
        import numpy as np

        guard = self.dim // 8
        return float(np.sum(np.abs(self.amplitudes[self.dim - guard:]) ** 2))


def _x_apply(v: np.ndarray) -> np.ndarray:
    """X v for X = a + a^dag: (X v)_n = sqrt(n) v_(n-1) + sqrt(n+1) v_(n+1)."""
    import numpy as np

    s = np.sqrt(np.arange(1.0, v.size))
    w = np.zeros_like(v)
    w[:-1] = s * v[1:]
    w[1:] += s * v[:-1]
    return w


def _tridiagonal_eigh(diag: np.ndarray, off: np.ndarray):
    """Eigenvalues and real eigenvectors of a symmetric tridiagonal matrix.

    Divide and conquer ('stevd') keeps the eigenvectors of X orthogonal to a
    few eps (5e-15 at dim 2048). MRRR ('stemr', the default of older scipy)
    is orthogonal only to about 1e-13 and puts errors of that size into the
    oracle moments.
    """
    # imported here: scipy takes longer to import than the rest of the
    # package, and only the oracle needs it
    from scipy.linalg import eigh_tridiagonal

    return eigh_tridiagonal(diag, off, lapack_driver="stevd")


@lru_cache(maxsize=16)
def _x_eigh(dim: int):
    """Spectral decomposition of the truncated quadrature, cached per cutoff.

    The evolution exp(-i lam X^zeta) has an enormous operator norm (the edge
    elements of X grow like 2 sqrt(dim)), which makes Taylor/Krylov
    exponentials hopeless; applying it through the eigenbasis of X is exact
    for the truncated operator. X is real tridiagonal, so the eigenvectors
    are real.
    """
    import numpy as np

    return _tridiagonal_eigh(np.zeros(dim), np.sqrt(np.arange(1.0, dim)))


@lru_cache(maxsize=16)
def _k_eigh(dim: int):
    """Spectral decomposition of K = (a^2 + a^dag^2)/2 on the even Fock states below dim.

    K couples |2m> and |2m+2> by (1/2) sqrt((2m+1)(2m+2)), so on the even
    states it is a real tridiagonal of size ceil(dim/2) with zero diagonal.
    """
    import numpy as np

    n = np.arange(2.0, dim, 2.0)
    return _tridiagonal_eigh(np.zeros((dim + 1) // 2), 0.5 * np.sqrt((n - 1.0) * n))


def _real_matvec(mat: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """mat @ vec for a real matrix and a complex vector, as one real product
    with the (re, im) pairs, so that mat is never copied to complex."""
    import numpy as np

    pairs = np.ascontiguousarray(vec, dtype=complex).view(np.float64).reshape(-1, 2)
    return np.ascontiguousarray(mat @ pairs).view(complex).ravel()


def _spectral_apply(vecs: np.ndarray, phases: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """vecs diag(phases) vecs^T vec for the real orthogonal eigenvectors vecs."""
    return _real_matvec(vecs, phases * _real_matvec(vecs.T, vec))


def _evolve(vec: np.ndarray, dim: int, lam: float, zeta: int) -> np.ndarray:
    import numpy as np

    evals, vecs = _x_eigh(dim)
    return _spectral_apply(vecs, np.exp(-1j * lam * evals**zeta), vec)


def annihilation(dim: int) -> TruncatedOperator:
    """Matrix of a: sqrt(n) on the superdiagonal, zero elsewhere."""
    import numpy as np

    if dim < 1:
        raise DomainError(f"Fock cutoff must be >= 1, got {dim}")
    return TruncatedOperator(dim, np.diag(np.sqrt(np.arange(1.0, dim)).astype(complex), 1))


def quadrature(dim: int) -> TruncatedOperator:
    """Hermitian X = a + a^dag."""
    a = annihilation(dim).entries
    return TruncatedOperator(dim, a + a.T)


def default_dim(probe: ProbeSpec, zeta: int = 0, lam: float = 0.0) -> int:
    """Initial cutoff guess, rounded up to a power of two, floor 64.

    The evolution under X^zeta spreads Fock support quickly, so the guess is
    only a starting point; callers double until the stability contract holds.
    """
    n = probe.n_total
    guess = 8.0 * (n + zeta + abs(lam) * zeta * math.sqrt(n))
    dim = max(64, math.ceil(guess))
    return 1 << (dim - 1).bit_length()


def build_state(probe: ProbeSpec, dim: int) -> TruncatedState:
    """Fock amplitudes of D(alpha) S(xi) |0> at the given cutoff.

    Both exponentials are exact on the truncated space. With
    R(t) = diag(e^(i t n)), R(t) a R(-t) = e^(-i t) a, so the generators are
    phase rotations of real tridiagonals:
    S(xi)|0> = R(theta/2 + pi/4) exp(-i r K)|0> with K = (a^2 + a^dag^2)/2,
    and D(alpha) = R(phi + pi/2) exp(-i |alpha| X) R(-phi - pi/2) with
    X = a + a^dag. Each exponential is applied through the cached
    eigendecomposition of its tridiagonal. Raises DomainError for dim < 1
    and CutoffError, carrying a suggested dimension, if the tail-mass bound
    fails.
    """
    import numpy as np

    if dim < 1:
        raise DomainError(f"Fock cutoff must be >= 1, got {dim}")
    alpha = probe.alpha
    xi = probe.xi
    v = np.zeros(dim, dtype=complex)
    v[0] = 1.0
    if xi != 0:
        evals, vecs = _k_eigh(dim)
        even = _real_matvec(vecs, np.exp(-1j * abs(xi) * evals) * vecs[0])
        m = np.arange(even.size)
        v[0::2] = np.exp(1j * (cmath.phase(xi) + 0.5 * math.pi) * m) * even
    if alpha != 0:
        evals, vecs = _x_eigh(dim)
        rotation = np.exp(1j * (cmath.phase(alpha) + 0.5 * math.pi) * np.arange(dim))
        v = rotation * _spectral_apply(vecs, np.exp(-1j * abs(alpha) * evals), rotation.conj() * v)
    state = TruncatedState(dim, v)
    norm = float(np.linalg.norm(v))
    if abs(norm - 1.0) > 1e-10:
        raise InternalConsistencyError(f"state norm {norm} deviates from 1 at dim={dim}")
    if state.tail_mass() > TAIL_TOL:
        raise CutoffError(
            f"tail mass {state.tail_mass():.3e} exceeds {TAIL_TOL} at dim={dim}",
            suggested_dim=2 * dim,
        )
    return state


def expectation_moment(state: TruncatedState, k: int) -> float:
    """<psi| X^k |psi> by k applications of the stencil (never dense powers)."""
    return float(expectation_moments(state, k)[k])


def expectation_moments(state: TruncatedState, k_max: int) -> np.ndarray:
    """All moments <X^0>..<X^k_max> in one cumulative sweep."""
    import numpy as np

    if k_max < 0:
        raise DomainError(f"moment order must be >= 0, got {k_max}")
    v = state.amplitudes
    out = np.empty(k_max + 1)
    out[0] = 1.0
    w = v
    for k in range(1, k_max + 1):
        w = _x_apply(w)
        out[k] = float(np.real(np.vdot(v, w)))
    return out


def _start_dim(probe: ProbeSpec, order: int, lam: float, what: str) -> int:
    """The first cutoff of an oracle call: default_dim for quadrature powers
    up to order at coupling lam. A start above DIM_CAP, where no cutoff can
    be tried, raises CutoffError before any build."""
    dim = default_dim(probe, zeta=order, lam=lam)
    if dim > DIM_CAP:
        raise CutoffError(f"{what}: start cutoff {dim} is above DIM_CAP={DIM_CAP}", suggested_dim=2 * DIM_CAP)
    return dim


def _until_stable(d: int, compute, message: str, stable=None):
    """The first of compute(d), compute(2d), ... up to DIM_CAP that is stable
    against the one before, or without stable the first; cutoffs that raise
    CutoffError are skipped."""
    prev = None
    while d <= DIM_CAP:
        try:
            cur = compute(d)
        except CutoffError:
            d *= 2
            continue
        if stable is None or prev is not None and stable(cur, prev):
            return cur
        prev = cur
        d *= 2
    raise CutoffError(message, suggested_dim=2 * DIM_CAP)


def converged_moments(probe: ProbeSpec, k_max: int) -> np.ndarray:
    """Moments at a cutoff validated by doubling, from default_dim
    (_start_dim), until stable to 1e-9 relative."""
    import numpy as np

    if k_max < 0:
        raise DomainError(f"moment order must be >= 0, got {k_max}")
    return _until_stable(
        _start_dim(probe, k_max, 0.0, f"moments for k_max={k_max}"),
        lambda d: expectation_moments(build_state(probe, d), k_max),
        f"moments did not stabilize below dim={DIM_CAP} for k_max={k_max}",
        lambda cur, prev: np.max(np.abs(cur - prev) / np.maximum(1.0, np.abs(cur))) <= STABILITY_TOL,
    )


def _derivative_vectors(probe: ProbeSpec, model: ModelSpec, dim: int):
    """psi_lambda and its two parameter derivatives on the truncated space.

    d/d(lambda) psi = -i G_zeta psi, and the nonlinearity-order derivative is
    taken with the operator power rule, d/d(zeta) G_zeta -> zeta G_(zeta-1),
    i.e. d/d(zeta) psi = -i lambda zeta G_(zeta-1) psi. All powers commute, so
    the order of application is irrelevant, and one stencil chain
    g = G_(zeta-1) psi serves both (G_0 is the identity).
    """
    z, lam = model.zeta, model.lambda_eff
    psi = _evolve(build_state(probe, dim).amplitudes, dim, lam, z)
    g = psi
    for _ in range(z - 1):
        g = _x_apply(g)
    return psi, -1j * _x_apply(g), -1j * lam * z * g


def _qfi_from_vectors(psi, d_lam, d_zeta) -> QfiMatrix:
    import numpy as np

    def braket(u, v):
        return complex(np.vdot(u, v))

    def f_entry(dn, dm):
        return 4.0 * float(
            np.real(braket(dn, dm) - braket(dn, psi) * braket(psi, dm))
        )

    u_lz = 4.0 * float(np.imag(braket(d_lam, d_zeta)))
    return QfiMatrix(
        f_ll=f_entry(d_lam, d_lam),
        f_zz=f_entry(d_zeta, d_zeta),
        f_lz=f_entry(d_lam, d_zeta),
        u_lz=u_lz,
    )


def qfi_matrix_oracle(probe: ProbeSpec, model: ModelSpec) -> QfiMatrix:
    """2x2 QFI matrix plus Uhlmann off-diagonal from explicit state derivatives.

    The result is recomputed at twice the cutoff, starting from default_dim
    (_start_dim), until every entry is stable to 1e-9 relative.
    """
    return _until_stable(
        _start_dim(probe, 2 * model.zeta, model.lambda_eff, "oracle QFI"),
        lambda d: _qfi_from_vectors(*_derivative_vectors(probe, model, d)),
        f"oracle QFI did not stabilize below dim={DIM_CAP}",
        _matrix_stable,
    )


def _matrix_stable(cur: QfiMatrix, prev: QfiMatrix) -> bool:
    """Per-entry 1e-9 relative agreement between successive cutoffs.

    Entries that are zero up to the roundoff floor of the matrix (parity-
    suppressed off-diagonals, the Uhlmann element) only jitter at
    eps * ||F||, so they are exempt from the per-entry ratio; their final
    values are still bounded by the dedicated compatibility checks.
    """
    scale = max(abs(v) for v in cur.as_tuple())
    floor = STABILITY_TOL * max(1.0, scale)
    for a, b in zip(cur.as_tuple(), prev.as_tuple()):
        if abs(a) < floor and abs(b) < floor:
            continue
        if abs(a - b) > STABILITY_TOL * max(1.0, abs(a)):
            return False
    return True


def sld_operator(probe: ProbeSpec, model: ModelSpec) -> TruncatedOperator:
    """Symmetric logarithmic derivative L = 2 d(rho_lambda)/d(lambda).

    For the pure unitary family, -2i U [G_zeta, rho_0] U^dag with
    U = exp(-i lambda G_zeta) is the rank-2 operator
    2 (|d_lambda psi><psi| + |psi><d_lambda psi|), as G_zeta commutes with U
    and d_lambda psi = -i G_zeta psi; it is formed from the state derivative
    alone. The cutoff doubles from default_dim until the state fits
    (_until_stable), up to DIM_CAP; a default_dim above DIM_CAP raises
    CutoffError before any state is built. L is 2 (A + A^dag) with
    A = |d_lambda psi><psi|, so it is Hermitian exactly: entry (i, j) and the
    conjugate of entry (j, i) are the same two rounded products, summed in
    the other order. Tr[rho L^2] must reproduce the oracle f_ll.
    """
    import numpy as np

    def compute(d):
        psi, d_lam, _ = _derivative_vectors(probe, model, d)
        half = np.outer(d_lam, psi.conj())
        return TruncatedOperator(d, 2.0 * (half + half.conj().T))

    start = _start_dim(probe, 2 * model.zeta, model.lambda_eff, "SLD")
    return _until_stable(start, compute, f"SLD needs a cutoff of at least {2 * DIM_CAP}, above DIM_CAP={DIM_CAP}")


def evolution_unitarity_defect(model: ModelSpec, dim: int) -> float:
    """max |(U^dag U - I)_nm| over the sub-block excluding the top 1/8 of states."""
    import numpy as np

    evals, vecs = _x_eigh(dim)
    u = (vecs * np.exp(-1j * model.lambda_eff * evals**model.zeta)) @ vecs.T
    keep = dim - dim // 8
    defect = (u.conj().T @ u - np.eye(dim))[:keep, :keep]
    return float(np.max(np.abs(defect)))


def zeta_derivative_diagnostic(probe: ProbeSpec, model: ModelSpec) -> dict:
    """Compare the power-rule order derivative with a spectral-logarithm one.

    The package's f_zz uses d/d(zeta) X^zeta = zeta X^(zeta-1) (power rule in
    the operator argument). The alternative reading d/d(zeta) X^zeta =
    X^zeta log X is evaluated here by central finite differences of the
    principal-branch spectral power X^(zeta +/- step), step = 1e-5. The two
    genuinely disagree; the numbers are returned for inspection, never
    asserted. f_zz_spectral_log is taken at the cutoff d = default_dim (one
    above DIM_CAP raises CutoffError before any build); f_zz_power_rule is
    the validated qfi_matrix_oracle value, doubled from d until stable.
    """
    import numpy as np

    d = _start_dim(probe, 2 * model.zeta, model.lambda_eff, "zeta-derivative diagnostic")
    z, lam, step = model.zeta, model.lambda_eff, 1e-5
    evals, vecs = _x_eigh(d)
    psi0 = build_state(probe, d).amplitudes

    def psi_of(zeta_val):
        # exp(-i lam V diag(p) V^T) = V diag(exp(-i lam p)) V^T, as V is orthogonal
        powers = np.power(evals.astype(complex), zeta_val)  # principal branch
        return _spectral_apply(vecs, np.exp(-1j * lam * powers), psi0)

    plus, minus = psi_of(z + step), psi_of(z - step)
    d_zeta = (plus - minus) / (2.0 * step)
    psi = psi_of(z)
    psi = psi / np.linalg.norm(psi)
    inner = complex(np.vdot(d_zeta, d_zeta))
    overlap = complex(np.vdot(d_zeta, psi))
    f_spectral = 4.0 * float(np.real(inner - overlap * overlap.conjugate()))
    f_power = qfi_matrix_oracle(probe, model).f_zz
    denom = max(abs(f_power), abs(f_spectral), 1e-300)
    return {
        "f_zz_power_rule": f_power,
        "f_zz_spectral_log": f_spectral,
        "relative_difference": abs(f_power - f_spectral) / denom,
    }
