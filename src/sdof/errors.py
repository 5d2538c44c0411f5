"""Exception types shared across the package."""


class SdofError(Exception):
    """Base class for all package errors."""


class ParameterError(SdofError, ValueError):
    """An argument is outside its documented valid range."""


class ModeError(SdofError, ValueError):
    """A realization or scheme is in the wrong mode (fixed/fading, wrong model)."""


class CapacityError(SdofError, RuntimeError):
    """An enumeration or memory budget would be exceeded."""


class CertificateError(SdofError, RuntimeError):
    """An exact certificate does not apply to its input, so no verdict is given."""


class UsageError(SdofError, ValueError):
    """Invalid CLI configuration."""
