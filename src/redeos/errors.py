"""Exception hierarchy shared by every module of the library.

``eos`` reports a failure by its class: the stderr line starts with ``tag`` and
the exit code is ``exit_code``, each inherited by a subclass that sets none.
Parse and validation failures exit 2, numerical ones 3, domain violations 4.
"""


class EosError(Exception):
    """Base class for all library errors."""


class DomainError(EosError):
    """Requested state lies outside the physical domain of the model."""

    tag, exit_code = "E_DOMAIN", 4


class ValidationError(EosError):
    """Input violates a documented invariant."""

    tag, exit_code = "E_VALIDATION", 2


class DegenerateDataError(ValidationError):
    """Calibration points do not determine the parameters."""

    tag = "E_DEGENERATE"


class ModelMismatchError(ValidationError):
    """Parameter record handed to a kernel built for a different model."""

    tag = "E_MODEL_MISMATCH"


class ParseError(EosError):
    """Malformed input file."""

    tag, exit_code = "E_PARSE", 2


class NumericalError(EosError):
    """Numerical evaluation failed."""

    tag, exit_code = "E_NUMERICAL", 3


class BracketError(NumericalError):
    """Root-bracket endpoints do not straddle a sign change."""


class ConvergenceError(NumericalError):
    """Iteration budget exhausted before reaching tolerance."""


class RankDeficiencyError(NumericalError):
    """Least-squares design matrix is numerically rank deficient."""

    tag = "E_RANK_DEFICIENT"
