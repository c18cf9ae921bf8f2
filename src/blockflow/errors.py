"""Exception hierarchy shared across the package.

ValidationError and its subclasses mean "the inputs are wrong" (CLI exit
code 2); the remaining BlockflowError subclasses mean "the run failed at
runtime" (CLI exit code 1).
"""


class BlockflowError(Exception):
    """Base class for all package errors."""


class ValidationError(BlockflowError):
    """Bad input: config, schema, file contents, or argument contracts."""


class ConfigurationError(ValidationError):
    """Dimension or configuration mismatch when wiring components."""


class DeadEndError(BlockflowError):
    """A state with no valid action was reached (or an all-masked softmax)."""


class EnumerationBoundError(BlockflowError):
    """Exhaustive enumeration refused because the state space is too large."""


class TrainingAbort(BlockflowError):
    """Training stopped on a non-recoverable numerical problem."""


class DegenerateInputError(ValidationError):
    """Statistical routine received inputs it cannot fit (constant x, n too small)."""


class CoincidentPointsError(BlockflowError):
    """Two motif points of a periodic structure sit at the same position."""
