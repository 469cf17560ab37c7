"""Exception types shared across the package."""


class ParkCPError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(ParkCPError):
    """A configuration value or combination of values is invalid."""


class TraceParseError(ParkCPError, ValueError):
    """A row of a trace, area or point CSV file could not be parsed; carries
    the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class TraceValidationError(ParkCPError):
    """Parsed trace rows violate a trace invariant."""


class DegenerateGeometryError(ParkCPError):
    """The measurement geometry does not determine a position."""
