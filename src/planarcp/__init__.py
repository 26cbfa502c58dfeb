"""Resonant Casimir-Polder potentials near planar magneto-electric media."""

from .core import (Atom, DegenerateDenominator, DomainError, Geometry,
                   HalfSpace, MaterialResponse, NonDecaying, NonFinite,
                   NotConverged, PassivityViolation, PerfectLens,
                   SlabWithMirror, Transition, UnitSystem, VACUUM,
                   validate_material)
from .green import GreenComponents, green_components
from .potential import (PotentialMethod, PotentialSample, potential_auto,
                        potential_nonretarded, potential_numeric,
                        potential_perfect_lens, potential_retarded)
from .quadrature import (DEFAULT_SPEC, IntegralResult, QuadratureSpec,
                         integrate_evanescent, integrate_propagating)

__version__ = "0.1.0"
