# src/planarcp/core.py

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union


class PassivityViolation(ValueError):
    """Material with Im(eps) < 0 or Im(mu) < 0 (gain medium)."""


class NonFinite(ValueError):
    """NaN or infinite value where a finite one is required."""


class DegenerateDenominator(ArithmeticError):
    """Reflection-coefficient denominator collapsed (surface/guided mode pole)."""


class DomainError(ValueError):
    """Evaluation requested outside a formula's domain of validity."""


class NotConverged(RuntimeError):
    """A quadrature or pole search that stopped short; the message says why."""


def require_distance(name: str, z: float, floor: float = 0.0) -> None:
    """Raise DomainError unless floor < z < inf (a nan fails too)."""
    if not floor < z < math.inf:
        raise DomainError(f"{name} must be finite and > {floor}, got {z}")


def _require_finite_complex(name: str, value: complex) -> complex:
    value = complex(value)
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise NonFinite(f"{name} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class MaterialResponse:
    """Relative permittivity and permeability at one transition frequency.

    Passivity (Im eps >= 0, Im mu >= 0) is enforced at construction;
    lossless values (Im = 0) are admitted, the branch degeneracy they
    introduce is resolved in the dispersion module.
    """

    epsilon: complex
    mu: complex

    def __post_init__(self):
        eps = _require_finite_complex("epsilon", self.epsilon)
        mu = _require_finite_complex("mu", self.mu)
        if eps.imag < 0.0:
            raise PassivityViolation(f"Im(epsilon) = {eps.imag} < 0")
        if mu.imag < 0.0:
            raise PassivityViolation(f"Im(mu) = {mu.imag} < 0")
        object.__setattr__(self, "epsilon", eps)
        object.__setattr__(self, "mu", mu)

    @property
    def is_lossless(self) -> bool:
        return self.epsilon.imag == 0.0 and self.mu.imag == 0.0


# The constructor converts, and raises PassivityViolation or NonFinite.
validate_material = MaterialResponse


@dataclass(frozen=True)
class Transition:
    """One downward atomic transition.

    omega: angular transition frequency in units of omega_ref (see
    UnitSystem); d_par_sq / d_perp_sq: squared moduli of the dipole-moment
    components parallel / perpendicular to the surface.
    """

    omega: float
    d_par_sq: float
    d_perp_sq: float

    def __post_init__(self):
        if not (math.isfinite(self.omega) and self.omega > 0.0):
            raise ValueError(f"omega must be positive and finite, got {self.omega}")
        if not (0.0 <= self.d_par_sq < math.inf and 0.0 <= self.d_perp_sq < math.inf):
            raise ValueError("squared dipole components must be non-negative "
                             f"and finite, got {self.d_par_sq}, {self.d_perp_sq}")
        if self.d_par_sq + self.d_perp_sq <= 0.0:
            raise ValueError("at least one dipole component must be nonzero")


@dataclass(frozen=True)
class Atom:
    """Excited atom described by its downward transitions (summed linearly),
    the lowest of whose frequencies is omega_min."""

    transitions: tuple[Transition, ...]

    def __init__(self, transitions):
        transitions = tuple(transitions)
        if not transitions:
            raise ValueError("an atom needs at least one transition")
        object.__setattr__(self, "transitions", transitions)
        object.__setattr__(self, "omega_min", min(t.omega for t in transitions))


@dataclass(frozen=True)
class HalfSpace:
    """Semi-infinite medium filling z <= 0; atom at z_A > 0."""

    material: MaterialResponse


@dataclass(frozen=True)
class SlabWithMirror:
    """Slab of the given thickness backed by a perfectly conducting mirror."""

    material: MaterialResponse
    thickness: float

    def __post_init__(self):
        require_distance("thickness", self.thickness)


@dataclass(frozen=True)
class PerfectLens:
    """Idealized lossless eps = mu = -1 slab backed by a mirror.

    Carries no material; the closed reflection coefficients imply the
    lossless left-handed values. Only z_A > thickness is evaluable.
    """

    thickness: float

    def __post_init__(self):
        require_distance("thickness", self.thickness)


Geometry = Union[HalfSpace, SlabWithMirror, PerfectLens]

# Speed of light (m/s, exact by the SI definition) and vacuum permeability
# (N/A^2, CODATA 2022).
_C_SI = 299792458.0
_MU_0_SI = 1.25663706127e-06


@dataclass(frozen=True)
class UnitSystem:
    """SI scales of the natural units the library computes in.

    Every function takes and returns values with c = mu_0 = eps_0 = 1:
    frequencies in omega_ref (rad/s), distances in c/omega_ref, squared
    dipole moments in d_sq_ref (C^2 m^2) and potentials in
    mu_0 omega_ref^3 d_sq_ref / c. A natural-unit value times the
    matching scale below is its SI value.
    """

    omega_ref: float = 1.0
    d_sq_ref: float = 1.0

    def __post_init__(self):
        if self.omega_ref <= 0.0 or self.d_sq_ref <= 0.0:
            raise ValueError("reference scales must be positive")

    @property
    def length_si(self) -> float:
        """SI meters per unit of length, c/omega_ref."""
        return _C_SI / self.omega_ref

    @property
    def potential_si(self) -> float:
        """SI joules per unit of potential, mu_0 omega_ref^3 d_sq_ref / c."""
        return _MU_0_SI * self.omega_ref**3 * self.d_sq_ref / _C_SI
