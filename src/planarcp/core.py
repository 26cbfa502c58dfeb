# src/planarcp/core.py

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

from scipy.constants import c as C_SI, epsilon_0 as EPS0_SI, mu_0 as MU0_SI


class PassivityViolation(ValueError):
    """Material with Im(eps) < 0 or Im(mu) < 0 (gain medium)."""


class NonFinite(ValueError):
    """NaN or infinite value where a finite one is required."""


class DegenerateDenominator(ArithmeticError):
    """Reflection-coefficient denominator collapsed (surface/guided mode pole)."""


class NonDecaying(ValueError):
    """Evanescent integral has no decay factor (z_A <= 0)."""


class DomainError(ValueError):
    """Evaluation requested outside a formula's domain of validity."""


class NotConverged(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance.

    Carries the partial result (an IntegralResult with converged=False)
    as ``.result`` when available.
    """

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


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

    @property
    def is_vacuum(self) -> bool:
        return self.epsilon == 1.0 and self.mu == 1.0


VACUUM = MaterialResponse(1.0 + 0.0j, 1.0 + 0.0j)


def validate_material(epsilon: complex, mu: complex) -> MaterialResponse:
    """Validate (eps, mu) and return a MaterialResponse.

    Raises PassivityViolation or NonFinite on bad input.
    """
    return MaterialResponse(complex(epsilon), complex(mu))


@dataclass(frozen=True)
class Transition:
    """One downward atomic transition.

    omega: angular transition frequency (rad/s, or units of omega_ref when
    normalized); d_par_sq / d_perp_sq: squared moduli of the dipole-moment
    components parallel / perpendicular to the surface.
    """

    omega: float
    d_par_sq: float
    d_perp_sq: float

    def __post_init__(self):
        if not (math.isfinite(self.omega) and self.omega > 0.0):
            raise ValueError(f"omega must be positive and finite, got {self.omega}")
        if self.d_par_sq < 0.0 or self.d_perp_sq < 0.0:
            raise ValueError("squared dipole components must be non-negative")
        if self.d_par_sq + self.d_perp_sq <= 0.0:
            raise ValueError("at least one dipole component must be nonzero")


@dataclass(frozen=True)
class Atom:
    """Excited atom described by its downward transitions (summed linearly)."""

    transitions: tuple[Transition, ...]

    def __init__(self, transitions):
        transitions = tuple(transitions)
        if not transitions:
            raise ValueError("an atom needs at least one transition")
        object.__setattr__(self, "transitions", transitions)

    @property
    def omega_min(self) -> float:
        return min(t.omega for t in self.transitions)


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
        if not (math.isfinite(self.thickness) and self.thickness > 0.0):
            raise ValueError(f"thickness must be positive, got {self.thickness}")


@dataclass(frozen=True)
class PerfectLens:
    """Idealized lossless eps = mu = -1 slab backed by a mirror.

    Carries no material; the closed reflection coefficients imply the
    lossless left-handed values. Only z_A > thickness is evaluable.
    """

    thickness: float

    def __post_init__(self):
        if not (math.isfinite(self.thickness) and self.thickness > 0.0):
            raise ValueError(f"thickness must be positive, got {self.thickness}")


Geometry = Union[HalfSpace, SlabWithMirror, PerfectLens]


@dataclass(frozen=True)
class UnitSystem:
    """Unit convention for distances, frequencies and potentials.

    mode "si": SI units throughout (c, mu_0 from CODATA).
    mode "normalized": c = mu_0 = eps_0 = 1; distances in c/omega_ref,
    frequencies in omega_ref, potentials in
    U0 = mu_0 omega_ref^3 d_sq_ref / (8 pi c) for the declared SI
    reference scales omega_ref (rad/s) and d_sq_ref (C^2 m^2).
    """

    mode: str = "normalized"
    omega_ref: float = 1.0
    d_sq_ref: float = 1.0

    def __post_init__(self):
        if self.mode not in ("si", "normalized"):
            raise ValueError(f"unknown unit mode {self.mode!r}")
        if self.omega_ref <= 0.0 or self.d_sq_ref <= 0.0:
            raise ValueError("reference scales must be positive")

    @property
    def c(self) -> float:
        return 1.0 if self.mode == "normalized" else C_SI

    @property
    def mu0(self) -> float:
        return 1.0 if self.mode == "normalized" else MU0_SI

    @property
    def eps0(self) -> float:
        return 1.0 if self.mode == "normalized" else EPS0_SI

    @property
    def length_si(self) -> float:
        """SI meters per unit of length in this system."""
        return 1.0 if self.mode == "si" else C_SI / self.omega_ref

    @property
    def frequency_si(self) -> float:
        """SI rad/s per unit of angular frequency in this system."""
        return 1.0 if self.mode == "si" else self.omega_ref

    @property
    def potential_si(self) -> float:
        """SI joules per unit of potential in this system (U0 when normalized)."""
        if self.mode == "si":
            return 1.0
        return MU0_SI * self.omega_ref**3 * self.d_sq_ref / (8.0 * math.pi * C_SI)

    def to_si_distance(self, z: float) -> float:
        return z * self.length_si

    def from_si_distance(self, z_si: float) -> float:
        return z_si / self.length_si

    def to_si_frequency(self, omega: float) -> float:
        return omega * self.frequency_si

    def from_si_frequency(self, omega_si: float) -> float:
        return omega_si / self.frequency_si

    def to_si_potential(self, u: float) -> float:
        return u * self.potential_si

    def from_si_potential(self, u_si: float) -> float:
        return u_si / self.potential_si


NORMALIZED = UnitSystem(mode="normalized")
SI = UnitSystem(mode="si")
