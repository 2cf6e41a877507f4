"""Quantum precision bounds for characterizing (a+a^dag)^zeta optical nonlinearities.

Closed-form quadrature moments of displaced squeezed probes, the QFI matrix
over (coupling, order) with its joint scalar bound, small/large-energy
asymptotics, a brute-force Fock-space oracle, and optimizers for the
squeezing fraction at fixed probe energy.
"""

from .asymptotics import gamma_opt_high_n, qfi_high_n, qfi_lambda_low_n, qfi_zeta_low_n
from .combinatorics import coeff_row_sum, normal_order_coeff
from .errors import (
    CutoffError,
    DegenerateModelError,
    DomainError,
    InternalConsistencyError,
    NlprobeError,
    ThresholdAmbiguousError,
)
from .moments import moment_general, moment_real_axis, moment_vector
from .optimizer import (
    GammaOptResult,
    OptTarget,
    TargetKind,
    find_threshold,
    objective,
    optimize_gamma,
    optimize_gamma_grid,
    verify_zero_phase_optimality,
)
from .probe import BogoliubovView, ProbeSpec, bogoliubov_view, make_probe
from .qfi_core import (
    ModelSpec,
    QfiMatrix,
    qfi_cross,
    qfi_lambda,
    qfi_matrix,
    qfi_zeta,
    reparametrize_physical,
    scalar_bound_inverse,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "coeff_row_sum",
    "normal_order_coeff",
    "BogoliubovView",
    "ProbeSpec",
    "bogoliubov_view",
    "make_probe",
    "moment_general",
    "moment_real_axis",
    "moment_vector",
    "ModelSpec",
    "QfiMatrix",
    "qfi_cross",
    "qfi_lambda",
    "qfi_matrix",
    "qfi_zeta",
    "reparametrize_physical",
    "scalar_bound_inverse",
    "gamma_opt_high_n",
    "qfi_high_n",
    "qfi_lambda_low_n",
    "qfi_zeta_low_n",
    "GammaOptResult",
    "OptTarget",
    "TargetKind",
    "find_threshold",
    "objective",
    "optimize_gamma",
    "optimize_gamma_grid",
    "verify_zero_phase_optimality",
    "NlprobeError",
    "DomainError",
    "CutoffError",
    "InternalConsistencyError",
    "DegenerateModelError",
    "ThresholdAmbiguousError",
]
