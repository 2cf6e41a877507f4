"""Exception types shared across the package, and the message of every OverflowError it raises."""

OVERFLOW = "QFI entries exceed the double-precision range"


class NlprobeError(Exception):
    """Base class for all package-specific errors."""


class DomainError(NlprobeError, ValueError):
    """An argument is outside the mathematical domain of the operation."""


class CutoffError(NlprobeError):
    """The Fock-space truncation is too small for the requested computation.

    Carries ``suggested_dim``, the smallest cutoff worth retrying with.
    """

    def __init__(self, message, suggested_dim=None):
        super().__init__(message)
        self.suggested_dim = suggested_dim


class InternalConsistencyError(NlprobeError):
    """A self-check that should hold by construction failed.

    Signals a bug (for example a phase-convention error), not bad input.
    """


class DegenerateModelError(NlprobeError):
    """The statistical model carries no information (QFI matrix trace zero)."""


class ThresholdAmbiguousError(NlprobeError):
    """The boundary indicator crossed more than once during a threshold search.

    ``crossings`` lists the (n_low, n_high) brackets of every sign change found.
    """

    def __init__(self, message, crossings=()):
        super().__init__(message)
        self.crossings = list(crossings)
