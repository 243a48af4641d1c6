"""Pulsed optomechanical measurement toolkit.

Simulates short optical pulses interacting with a mechanical resonator
through linear position coupling, where amplitude-quadrature homodyning
realizes an effective position-squared measurement: parameter chains from
raw experimental inputs, conditional non-Gaussian mechanical states on a
position grid, Wigner-function diagnostics, intracavity pulse-response
verification of the measurement strengths, and a Monte-Carlo preparation
and tomography protocol.
"""

from . import (measurement, params, protocol, pulse, states, verification,
               wigner)
from .errors import (AmbiguityError, ConditioningError, ContractError,
                     DomainError, GridError, NarrowGridWarning,
                     OptomechError, ReconstructionWarning, TruncationError)

__version__ = "0.1.0"
