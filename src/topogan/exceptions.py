"""Exception types shared across the package."""


class TopoganError(Exception):
    """Base class for all package errors."""


class ParameterError(TopoganError, ValueError):
    """Any mistake of a caller that is not a shape or size (DimensionError): a setting
    out of range, an unknown name, a condition outside its domain, a run unlike its
    checkpoint."""


class DimensionError(TopoganError, ValueError):
    """An array or batch handed to a call has the wrong shape or size; any other
    mistake of a caller is a ParameterError."""


class SingularSystemError(TopoganError):
    """The reduced stiffness system is singular (insufficient constraints)."""


class SolverError(TopoganError):
    """Iterative solve failed to reach the required residual (only `fem._pcg`, the tests' CG)."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class ConstraintError(TopoganError):
    """Volume constraint cannot be met (bisection failed to bracket)."""


class FormatError(TopoganError, ValueError):
    """A binary file does not conform to its declared layout."""

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class TrainingAbort(TopoganError):
    """A loss went non-finite; training stopped with a diagnostic snapshot."""

    def __init__(self, message, snapshot_path=None):
        if snapshot_path is not None:
            message = f"{message} (diagnostic snapshot: {snapshot_path})"
        super().__init__(message)
        self.snapshot_path = snapshot_path
