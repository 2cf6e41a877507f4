"""Gaussian probe parametrization by total energy and squeezing fraction.

A probe is the displaced squeezed state D(alpha) S(xi) |0> with
alpha = |alpha| e^(i phi) and xi = r e^(i theta). The energy split is
|alpha|^2 = (1-gamma) N (coherent photons) and sinh^2 r = gamma N
(squeezing photons), so (N, gamma, theta, phi) fixes everything.
"""

import cmath
import math
from dataclasses import dataclass

from .errors import DomainError

__all__ = ["ProbeSpec", "BogoliubovView", "make_probe", "bogoliubov_view"]


@dataclass(frozen=True)
class ProbeSpec:
    """Energy parametrization of a pure single-mode Gaussian probe.

    Phases are stored as given, without reduction mod 2 pi; consumers that
    care about periodicity handle it themselves.
    """

    n_total: float
    gamma: float
    theta: float = 0.0
    phi: float = 0.0

    @property
    def n_squeeze(self) -> float:
        return self.gamma * self.n_total

    @property
    def n_coherent(self) -> float:
        return (1.0 - self.gamma) * self.n_total

    @property
    def alpha_mag(self) -> float:
        return math.sqrt(self.n_coherent)

    @property
    def alpha(self) -> complex:
        return self.alpha_mag * cmath.exp(1j * self.phi)

    @property
    def r(self) -> float:
        return math.asinh(math.sqrt(self.n_squeeze))

    @property
    def xi(self) -> complex:
        return self.r * cmath.exp(1j * self.theta)


def make_probe(n_total: float, gamma: float, theta: float = 0.0, phi: float = 0.0) -> ProbeSpec:
    """Validate and build a ProbeSpec.

    gamma = 0 is a coherent state, gamma = 1 a squeezed vacuum. The phases
    must be finite.
    """
    if not math.isfinite(n_total) or n_total < 0.0:
        raise DomainError(f"mean photon number must be finite and >= 0, got {n_total}")
    if not 0.0 <= gamma <= 1.0:
        raise DomainError(f"squeezing fraction must lie in [0, 1], got {gamma}")
    if not (math.isfinite(theta) and math.isfinite(phi)):
        raise DomainError(f"phases must be finite, got theta={theta}, phi={phi}")
    return ProbeSpec(float(n_total), float(gamma), float(theta), float(phi))


@dataclass(frozen=True)
class BogoliubovView:
    """Quantities the squeeze transformation induces on the quadrature.

    mu = cosh r and nu = e^(i theta) sinh r are the Bogoliubov coefficients;
    beta = mu alpha + nu alpha* is the transformed displacement used by the
    closed-form moment family; eta = |mu + nu| and psi = Arg(mu + nu*)
    describe the rotated, stretched quadrature.
    """

    mu: float
    nu: complex
    beta: complex
    eta: float
    psi: float


def bogoliubov_view(probe: ProbeSpec) -> BogoliubovView:
    r = probe.r
    mu = math.cosh(r)
    nu = cmath.exp(1j * probe.theta) * math.sinh(r)
    alpha = probe.alpha
    beta = mu * alpha + nu * alpha.conjugate()
    eta = abs(mu + nu)
    psi = cmath.phase(mu + nu.conjugate())
    return BogoliubovView(mu=mu, nu=nu, beta=beta, eta=eta, psi=psi)
