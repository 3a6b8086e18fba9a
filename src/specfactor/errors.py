"""Exception types shared across the package.

Everything user-facing derives from ValueError or RuntimeError so callers
embedding the library can keep their usual handling; the CLI maps each
class to a stable error code string.
"""


class ScalarParseError(ValueError):
    """A textual scalar, point or region string could not be parsed."""


class CirclePoleError(ValueError):
    """A Blaschke factor was requested with its pole on the unit circle."""


class NonGaussianPoleError(ValueError):
    """A pole or zero location does not lie in Q(i); it cannot be enumerated."""


class DimensionMismatchError(ValueError):
    """Matrix shapes are incompatible for the requested operation."""


class RankDeficiencyError(ValueError):
    """A full-rank hypothesis required by the operation does not hold."""


class ZeroMatrixError(ValueError):
    """Structural data (SM form, degrees) of the zero matrix is undefined."""


class InputTooLargeError(ValueError):
    """An input exceeds a declared size limit, such as the step budget of
    integer factoring."""


class MinimalInverseError(RuntimeError):
    """No right inverse with poles confined to the zero structure exists."""


class CoSpectralityError(ValueError):
    """Transfer function of two factors is not para-unitary; the inputs are
    not factors of the same spectrum."""


class SpectrumError(ValueError):
    """Matrix does not satisfy the exact spectrum invariants."""


class GenerationError(RuntimeError):
    """Instance generator exhausted its retry budget."""
