"""Exception types shared across the package."""


class QchanrateError(Exception):
    """Base class for all package errors."""


class OperatorError(QchanrateError):
    """Bad operator input: wrong shape, non-finite entries, broken symmetry."""


class ModelValidationError(QchanrateError):
    """A channel model violates one of its defining conditions.

    Carries the name of the violated condition and a numeric witness so
    callers can report exactly what failed.
    """

    def __init__(self, condition: str, witness: float, detail: str = ""):
        self.condition = condition
        self.witness = witness
        msg = f"{condition} violated (witness {witness:.3e})"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class ImpossibleObservationError(QchanrateError):
    """Conditioning on an observation the model assigns zero probability."""


class AuxiliaryLikelihoodError(ImpossibleObservationError):
    """An auxiliary decoding model assigned zero likelihood to observed data."""


class NumericalCorruptionError(QchanrateError):
    """A numerical residue exceeded its guard; indicates a bug, not roundoff."""


class OracleBudgetError(QchanrateError):
    """Exact enumeration was requested beyond the documented term budget."""


class SequenceError(QchanrateError, ValueError):
    """A symbol sequence is empty, not 1-D, mismatched in length, or
    holds symbols outside the model's alphabet, or an input law's size
    differs from the model's input alphabet."""


class TrajectoryFormatError(QchanrateError):
    """Malformed trajectory text file; carries the offending line number."""

    def __init__(self, line_number: int, detail: str):
        self.line_number = line_number
        super().__init__(f"line {line_number}: {detail}")


class ConfigError(QchanrateError):
    """Invalid experiment configuration; carries the offending field path."""

    def __init__(self, path: str, detail: str):
        self.path = path
        super().__init__(f"{path}: {detail}")
