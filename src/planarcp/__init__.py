"""Resonant Casimir-Polder potentials near planar magneto-electric media."""

from .core import (Atom, DegenerateDenominator, DomainError, Geometry,
                   HalfSpace, MaterialResponse, NonDecaying, NonFinite,
                   NORMALIZED, NotConverged, PassivityViolation, PerfectLens,
                   SI, SlabWithMirror, Transition, UnitSystem, VACUUM,
                   validate_material)
from .dispersion import (ReflectionPair, WaveNumbers, reflect_halfspace,
                         reflect_perfect_lens, reflect_slab_mirror,
                         wave_numbers)
from .green import FixedReflection, GreenComponents, green_components
from .potential import (PotentialMethod, PotentialSample, potential_auto,
                        potential_nonretarded, potential_numeric,
                        potential_perfect_lens, potential_retarded)
from .quadrature import (DEFAULT_SPEC, IntegralResult, QuadratureSpec,
                         integrate_evanescent, integrate_propagating)

__version__ = "0.1.0"

__all__ = [
    "Atom", "DegenerateDenominator", "DomainError", "Geometry", "HalfSpace",
    "MaterialResponse", "NonDecaying", "NonFinite", "NORMALIZED",
    "NotConverged", "PassivityViolation", "PerfectLens", "SI",
    "SlabWithMirror", "Transition", "UnitSystem", "VACUUM",
    "validate_material", "ReflectionPair", "WaveNumbers",
    "reflect_halfspace", "reflect_perfect_lens", "reflect_slab_mirror",
    "wave_numbers", "FixedReflection", "GreenComponents", "green_components",
    "PotentialMethod", "PotentialSample",
    "potential_auto", "potential_nonretarded", "potential_numeric",
    "potential_perfect_lens", "potential_retarded", "DEFAULT_SPEC",
    "IntegralResult", "QuadratureSpec", "integrate_evanescent",
    "integrate_propagating",
]
