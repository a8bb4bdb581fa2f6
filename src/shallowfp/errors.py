"""Domain-level exceptions shared across the package."""


class DomainError(ValueError):
    """Base class for errors caused by invalid mathematical inputs."""


class CompositeModulusError(DomainError):
    """Raised when a modulus that must be prime fails the primality check."""


class ModulusTooLargeError(DomainError):
    """Raised when a modulus is 2^63 or more, beyond the exact 64-bit arithmetic."""


class ParameterRangeError(DomainError):
    """Raised when a size, parameter or coefficient lies outside its accepted range."""


class CoefficientFileError(DomainError):
    """Raised when a coefficient-set JSON document lacks a field or has a mistyped one."""


class EmptyAikpsRangeError(DomainError):
    """Raised when the AIKPS prime interval contains no prime other than p."""


class GapUnsatisfiableError(DomainError):
    """Raised when 3^m > p, so no proper GAP of dimension m exists in Z_p."""


class GapSearchExhaustedError(DomainError):
    """Raised when the seeded proper-GAP search runs out of tries."""


class TableTooLargeError(DomainError):
    """Raised when a length-p table would exceed the stated size cap on p."""
