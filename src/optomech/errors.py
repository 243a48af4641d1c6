"""Exception and warning types shared across the package."""


class OptomechError(Exception):
    """Base class for all package errors."""


class DomainError(OptomechError, ValueError):
    """A physical input is outside its valid domain (e.g. negative mass)."""


class ContractError(OptomechError, ValueError):
    """Two inputs that must be consistent with each other are not."""


class GridError(OptomechError, ValueError):
    """Grid configuration unusable: not power-of-two, asymmetric, aliasing, ..."""


class ConditioningError(OptomechError, ValueError):
    """Conditioning on an outcome (or window) of negligible probability."""


class TruncationError(OptomechError, ValueError):
    """Basis or time-grid truncation too severe for the requested operation."""


class AmbiguityError(OptomechError, ValueError):
    """A result is ill-defined (e.g. more than two comparable density peaks)."""


class NarrowGridWarning(UserWarning):
    """Quadrature grid likely too narrow for the state being built."""


class ReconstructionWarning(UserWarning):
    """Tomographic reconstruction quality is limited by angles/samples."""
