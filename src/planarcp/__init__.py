"""Resonant Casimir-Polder potentials near planar magneto-electric media."""

from .core import (Atom, DegenerateDenominator, DomainError, Geometry,
                   HalfSpace, MaterialResponse, NonFinite, NotConverged,
                   PassivityViolation, PerfectLens, SlabWithMirror,
                   Transition, UnitSystem, validate_material)
from .green import GreenComponents, green_components
from .potential import (PotentialMethod, PotentialSample, potential_auto,
                        potential_nonretarded, potential_numeric,
                        potential_perfect_lens, potential_retarded)

__version__ = "0.1.0"
