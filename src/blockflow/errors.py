"""The package's two errors.

ValidationError means "the inputs are wrong" (CLI exit code 2); any other
BlockflowError means "the run failed at runtime" (CLI exit code 1).
"""


class BlockflowError(Exception):
    """Base class for all package errors."""


class ValidationError(BlockflowError):
    """Bad input: config, schema, file contents, or argument contracts."""
