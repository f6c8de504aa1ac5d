"""Exception types shared across the package."""


class TopoganError(Exception):
    """Base class for all package errors."""


class ParameterError(TopoganError, ValueError):
    """A scalar parameter is outside its admissible range."""


class DimensionError(TopoganError, ValueError):
    """Array shapes do not match the operation contract."""


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


class ConsistencyError(TopoganError, ValueError):
    """Two inputs that must agree do not, e.g. a resumed run and its checkpoint."""


class DomainError(TopoganError, ValueError):
    """A condition value lies outside the domain it is used in."""


class ContractError(TopoganError, ValueError):
    """An operation precondition was violated by the caller."""


class SpecError(TopoganError, ValueError):
    """A network spec is internally inconsistent (e.g. bad shape plan)."""


class TrainingAbort(TopoganError):
    """A loss went non-finite; training stopped with a diagnostic snapshot."""

    def __init__(self, message, snapshot_path=None):
        if snapshot_path is not None:
            message = f"{message} (diagnostic snapshot: {snapshot_path})"
        super().__init__(message)
        self.snapshot_path = snapshot_path
