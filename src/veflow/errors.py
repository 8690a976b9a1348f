"""Exception types; the CLI exits 2 on a ``ParameterError`` and 3 on any other ``VeflowError``."""


class VeflowError(Exception):
    """Base class for all package-specific failures."""


class ParameterError(VeflowError):
    """Rejected parameters, flags or input paths; the message names the failed condition."""


class GridMismatchError(VeflowError):
    """Operands live on different grids."""


class FieldError(VeflowError):
    """Malformed field data: non-finite values or a wrong shape."""


class VacuumError(VeflowError):
    """State left the admissible neighbourhood (near-vacuum or degenerate deformation)."""


class QuadratureError(VeflowError):
    """Radial quadrature could not reach the requested accuracy."""


class InitialDataError(VeflowError):
    """Initial-data generator rejected its inputs."""
