"""Brute-force verification backend on a truncated Fock space.

Nothing in here shares code with the closed-form moment machinery: states
are built by exponentiating the displacement and squeezing generators onto
the vacuum vector, moments by repeated matrix-vector application of the
quadrature, and QFI/Uhlmann/SLD quantities from explicit state derivatives.
Agreement with the analytic layer is therefore evidence, not tautology.

Truncation policy: results must be stable under doubling the cutoff
(1e-9 relative) and states must satisfy a tail-mass bound; the top 1/8 of
the basis is treated as a guard band and excluded from validity checks.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .errors import CutoffError, InternalConsistencyError
from .probe import ProbeSpec
from .qfi_core import ModelSpec, QfiMatrix

# scipy is imported inside the functions that use it: it takes longer to
# import than the rest of the package, and only the oracle needs it
if TYPE_CHECKING:
    from scipy.sparse import csr_matrix

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
        guard = self.dim // 8
        return float(np.sum(np.abs(self.amplitudes[self.dim - guard:]) ** 2))


@lru_cache(maxsize=32)
def _a_sparse(dim: int) -> "csr_matrix":
    from scipy.sparse import diags

    return diags(np.sqrt(np.arange(1, dim)), 1, shape=(dim, dim), dtype=complex).tocsr()


@lru_cache(maxsize=32)
def _x_sparse(dim: int) -> "csr_matrix":
    a = _a_sparse(dim)
    return (a + a.conj().T).tocsr()


@lru_cache(maxsize=16)
def _x_eigh(dim: int):
    """Spectral decomposition of the truncated quadrature, cached per cutoff.

    The evolution exp(-i lam X^zeta) has an enormous operator norm (the edge
    elements of X grow like 2 sqrt(dim)), which makes Taylor/Krylov
    exponentials hopeless; applying it through the eigenbasis of X is exact
    for the truncated operator and costs one Hermitian diagonalization per
    cutoff.
    """
    evals, vecs = np.linalg.eigh(_x_sparse(dim).toarray())
    return evals, vecs


def _evolve(vec: np.ndarray, dim: int, lam: float, zeta: int) -> np.ndarray:
    evals, vecs = _x_eigh(dim)
    phases = np.exp(-1j * lam * evals**zeta)
    return vecs @ (phases * (vecs.conj().T @ vec))


def _evolution_matrix(dim: int, lam: float, zeta: int) -> np.ndarray:
    evals, vecs = _x_eigh(dim)
    phases = np.exp(-1j * lam * evals**zeta)
    return (vecs * phases) @ vecs.conj().T


def annihilation(dim: int) -> TruncatedOperator:
    """Matrix of a: sqrt(n) on the superdiagonal, zero elsewhere."""
    return TruncatedOperator(dim, _a_sparse(dim).toarray())


def quadrature(dim: int) -> TruncatedOperator:
    """Hermitian X = a + a^dag."""
    return TruncatedOperator(dim, _x_sparse(dim).toarray())


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

    Built by applying the exponentials of the squeezing and displacement
    generators to the vacuum vector (in that order). Raises CutoffError,
    carrying a suggested dimension, if the tail-mass bound fails.

    expm_multiply's randomized norm estimate runs on a fixed seed of numpy's
    global generator, whose state is restored after: equal inputs, equal bits.
    """
    from scipy.sparse import csc_matrix
    from scipy.sparse.linalg import expm_multiply

    a = _a_sparse(dim)
    ad = a.conj().T
    alpha = probe.alpha
    xi = probe.xi
    v = np.zeros(dim, dtype=complex)
    v[0] = 1.0
    rng_state = np.random.get_state()
    np.random.seed(0)
    try:
        if xi != 0:
            gen_s = csc_matrix(0.5 * (xi * (ad @ ad) - np.conj(xi) * (a @ a)))
            v = expm_multiply(gen_s, v)
        if alpha != 0:
            gen_d = csc_matrix(alpha * ad - np.conj(alpha) * a)
            v = expm_multiply(gen_d, v)
    finally:
        np.random.set_state(rng_state)
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
    """<psi| X^k |psi> by k matrix-vector applications (never dense powers)."""
    return float(expectation_moments(state, k)[k])


def expectation_moments(state: TruncatedState, k_max: int) -> np.ndarray:
    """All moments <X^0>..<X^k_max> in one cumulative sweep."""
    x = _x_sparse(state.dim)
    v = state.amplitudes
    out = np.empty(k_max + 1)
    out[0] = 1.0
    w = v
    for k in range(1, k_max + 1):
        w = x @ w
        out[k] = float(np.real(np.vdot(v, w)))
    return out


def converged_moments(probe: ProbeSpec, k_max: int, dim: int | None = None) -> np.ndarray:
    """Moments at a cutoff validated by doubling until stable to 1e-9 relative."""
    d = dim or default_dim(probe, zeta=k_max)
    prev = None
    while d <= DIM_CAP:
        try:
            cur = expectation_moments(build_state(probe, d), k_max)
        except CutoffError:
            d *= 2
            continue
        if prev is not None:
            drift = np.max(np.abs(cur - prev) / np.maximum(1.0, np.abs(cur)))
            if drift <= STABILITY_TOL:
                return cur
        prev = cur
        d *= 2
    raise CutoffError(
        f"moments did not stabilize below dim={DIM_CAP} for k_max={k_max}",
        suggested_dim=2 * DIM_CAP,
    )


def _derivative_vectors(probe: ProbeSpec, model: ModelSpec, dim: int):
    """psi_lambda and its two parameter derivatives on the truncated space.

    d/d(lambda) psi = -i G_zeta psi, and the nonlinearity-order derivative is
    taken with the operator power rule, d/d(zeta) G_zeta -> zeta G_(zeta-1),
    i.e. d/d(zeta) psi = -i lambda zeta G_(zeta-1) psi. All powers commute, so
    the order of application is irrelevant.
    """
    z = model.zeta
    x = _x_sparse(dim)
    psi0 = build_state(probe, dim).amplitudes

    def xpow(v, p):
        for _ in range(p):
            v = x @ v
        return v

    psi = _evolve(psi0, dim, model.lambda_eff, z)
    d_lam = -1j * xpow(psi, z)
    if z >= 2:
        d_zeta = -1j * model.lambda_eff * z * xpow(psi, z - 1)
    else:
        # G_0 is the identity by convention
        d_zeta = -1j * model.lambda_eff * z * psi
    return psi, d_lam, d_zeta


def _qfi_from_vectors(psi, d_lam, d_zeta) -> QfiMatrix:
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


def qfi_matrix_oracle(probe: ProbeSpec, model: ModelSpec, dim: int | None = None) -> QfiMatrix:
    """2x2 QFI matrix plus Uhlmann off-diagonal from explicit state derivatives.

    The result is recomputed at twice the cutoff until every entry is stable
    to 1e-9 relative.
    """
    d = dim or default_dim(probe, zeta=2 * model.zeta, lam=model.lambda_eff)
    prev = None
    while d <= DIM_CAP:
        try:
            cur = _qfi_from_vectors(*_derivative_vectors(probe, model, d))
        except CutoffError:
            d *= 2
            continue
        if prev is not None and _matrix_stable(cur, prev):
            return cur
        prev = cur
        d *= 2
    raise CutoffError(
        f"oracle QFI did not stabilize below dim={DIM_CAP}", suggested_dim=2 * DIM_CAP
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


def sld_operator(probe: ProbeSpec, model: ModelSpec, dim: int | None = None) -> TruncatedOperator:
    """Symmetric logarithmic derivative L = 2 d(rho_lambda)/d(lambda).

    For the pure unitary family this is -2i U [G_zeta, rho_0] U^dag with
    U = exp(-i lambda G_zeta), evaluated densely. Hermiticity is enforced to
    1e-9 and Tr[rho L^2] must reproduce the oracle f_ll.
    """
    d = dim or default_dim(probe, zeta=2 * model.zeta, lam=model.lambda_eff)
    while True:
        try:
            psi0 = build_state(probe, d).amplitudes
            break
        except CutoffError as exc:
            if dim is not None or exc.suggested_dim is None or exc.suggested_dim > DIM_CAP:
                raise
            d = exc.suggested_dim
    x = _x_sparse(d).toarray()
    gz = np.linalg.matrix_power(x, model.zeta)
    rho0 = np.outer(psi0, psi0.conj())
    u = _evolution_matrix(d, model.lambda_eff, model.zeta)
    sld = -2j * (u @ (gz @ rho0 - rho0 @ gz) @ u.conj().T)
    herm = float(np.max(np.abs(sld - sld.conj().T)))
    if herm > 1e-9:
        raise InternalConsistencyError(f"SLD hermiticity residue {herm:.3e} at dim={d}")
    return TruncatedOperator(d, sld)


def evolution_unitarity_defect(model: ModelSpec, dim: int) -> float:
    """max |(U^dag U - I)_nm| over the sub-block excluding the top 1/8 of states."""
    u = _evolution_matrix(dim, model.lambda_eff, model.zeta)
    keep = dim - dim // 8
    defect = (u.conj().T @ u - np.eye(dim))[:keep, :keep]
    return float(np.max(np.abs(defect)))


def zeta_derivative_diagnostic(
    probe: ProbeSpec, model: ModelSpec, dim: int | None = None, step: float = 1e-5
) -> dict:
    """Compare the power-rule order derivative with a spectral-logarithm one.

    The package's f_zz uses d/d(zeta) X^zeta = zeta X^(zeta-1) (power rule in
    the operator argument). The alternative reading d/d(zeta) X^zeta =
    X^zeta log X is evaluated here by central finite differences of the
    principal-branch spectral power X^(zeta +/- step). The two genuinely
    disagree; the numbers are returned for inspection, never asserted.
    """
    from scipy.linalg import expm

    d = dim or default_dim(probe, zeta=2 * model.zeta, lam=model.lambda_eff)
    z, lam = model.zeta, model.lambda_eff
    evals, vecs = _x_eigh(d)
    psi0 = build_state(probe, d).amplitudes

    def psi_of(zeta_val):
        powers = np.power(evals.astype(complex), zeta_val)  # principal branch
        gen = (vecs * powers) @ vecs.conj().T
        return expm(-1j * lam * gen) @ psi0

    plus, minus = psi_of(z + step), psi_of(z - step)
    d_zeta = (plus - minus) / (2.0 * step)
    psi = psi_of(z)
    psi = psi / np.linalg.norm(psi)
    inner = complex(np.vdot(d_zeta, d_zeta))
    overlap = complex(np.vdot(d_zeta, psi))
    f_spectral = 4.0 * float(np.real(inner - overlap * overlap.conjugate()))
    f_power = qfi_matrix_oracle(probe, model, dim=d).f_zz
    denom = max(abs(f_power), abs(f_spectral), 1e-300)
    return {
        "f_zz_power_rule": f_power,
        "f_zz_spectral_log": f_spectral,
        "relative_difference": abs(f_power - f_spectral) / denom,
    }
