"""Error taxonomy.

Every exception carries a stable ``code`` string that the CLI maps to exit
codes and prints verbatim, so callers can match on codes instead of message
text.
"""


class EarthMoverError(Exception):
    """Base class for all library errors."""

    code = "E_INTERNAL"

    def __str__(self):
        return f"{self.code}: {super().__str__()}"


class ValidationError(EarthMoverError, ValueError):
    """Invalid input data (CLI exit code 2)."""

    code = "E_VALIDATION"


class ShapeError(ValidationError):
    code = "E_SHAPE"


class DimensionMismatchError(ValidationError):
    code = "E_DIM"


class WeightLengthError(ValidationError):
    code = "E_WEIGHT_LEN"


class NegativeWeightError(ValidationError):
    code = "E_WEIGHT_NEG"


class WeightSumError(ValidationError):
    code = "E_WEIGHT_SUM"


class MassMismatchError(ValidationError):
    code = "E_MASS_MISMATCH"


class SolverError(EarthMoverError, RuntimeError):
    """Solver-side failure (CLI exit code 3)."""

    code = "E_SOLVER"


class DualityGapError(SolverError):
    code = "E_DUALITY_GAP"


class IterationLimitError(SolverError):
    code = "E_ITER_LIMIT"
