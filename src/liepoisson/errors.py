"""Exception types raised by the package."""


class LiePoissonError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatchError(LiePoissonError):
    """Inputs whose dimensions do not match the target space."""


class DegeneratePairingError(LiePoissonError):
    """A pairing gram too close to singular to dualize through."""


class NotAnIdealError(LiePoissonError):
    """A subspace presented as an ideal is not invariant under the bracket."""


class SectionInconsistencyError(LiePoissonError):
    """Cocycle values produced by a section escape the span of the ideal."""


class InvalidExtensionError(LiePoissonError):
    """Cocycle data fails the compatibility conditions."""


class NumericDomainError(LiePoissonError):
    """A function evaluation returned a non-finite value."""


class UnsupportedPresentationError(LiePoissonError):
    """An algebra presentation outside what an operation accepts."""


class SizeLimitError(LiePoissonError):
    """Sparse work beyond ``tolerances.MAX_SPARSE_TERMS`` (one join) or
    ``tolerances.MAX_LEAD_TERMS`` (one lead index of a blocked residual),
    refused unformed."""


class IntegratorFailureError(LiePoissonError):
    """The implicit stage equation did not converge."""

    def __init__(self, message: str, step: int):
        super().__init__(f"{message} (step {step})")
        self.step = step


class NumericBlowupError(LiePoissonError):
    """The integrated state left the range of finite floats."""

    def __init__(self, message: str, step: int):
        super().__init__(f"{message} (step {step})")
        self.step = step


class ConfigError(LiePoissonError):
    """A malformed configuration document."""

    def __init__(self, message: str, field: str = ""):
        super().__init__(message if not field else f"{message} (field: {field})")
        self.field = field
