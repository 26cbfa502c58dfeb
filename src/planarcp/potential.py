# src/planarcp/potential.py
"""Resonant Casimir-Polder potential of an excited atom.

U(z_A) = -mu_0 sum_k omega_k^2 [Re G_xx |d_par|^2 + Re G_zz |d_perp|^2]

summed over downward transitions, with G_xx, G_zz from the green module
or replaced by the closed-form short-distance, long-distance and
perfect-lens limits.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass, replace

from .core import (Atom, DegenerateDenominator, DomainError, Geometry,
                   HalfSpace, MaterialResponse, NORMALIZED, PerfectLens,
                   SlabWithMirror, UnitSystem)
from .green import green_components
from .quadrature import DEFAULT_SPEC, QuadratureSpec

# Auto-dispatch thresholds in z_A * omega / c; "much less/greater than 1"
# made concrete and validated by the asymptotic-agreement tests.
NONRETARDED_THRESHOLD = 1e-2
RETARDED_THRESHOLD = 1e3

# The eps != 1 short-distance formula keeps only its 1/z^3 term and drops
# the 1/z term that the eps = 1 formula is made of (parallel coefficient
# Re[(mu-1)/(mu+1) + (mu-1)/4], perpendicular Re[(mu-1)/2]). Within this
# distance of eps = 1 the two terms compete and the result is flagged.
NEAR_MAGNETIC_EPS = 1e-6


class PotentialMethod(enum.Enum):
    NUMERIC = "numeric"
    NONRETARDED = "nonretarded"
    RETARDED = "retarded"
    PERFECT_LENS = "closed-form"


@dataclass(frozen=True)
class PotentialSample:
    """One evaluated point of the potential curve."""

    z_A: float
    value: float
    method: PotentialMethod
    error_estimate: float
    per_transition: tuple[float, ...]
    flags: tuple[str, ...] = ()
    evaluations: int = 0  # Green integrand evaluations; 0 for closed forms


def _sample(z_A, contributions, method, error, flags=(), evaluations=0):
    return PotentialSample(z_A=float(z_A), value=float(sum(contributions)),
                           method=method, error_estimate=float(error),
                           per_transition=tuple(float(u) for u in contributions),
                           flags=tuple(flags), evaluations=evaluations)


def potential_numeric(atom: Atom, geometry: Geometry, z_A: float,
                      spec: QuadratureSpec = DEFAULT_SPEC,
                      units: UnitSystem = NORMALIZED) -> PotentialSample:
    """Potential by direct quadrature of the Green-tensor integral."""
    mu0 = units.mu0
    contributions = []
    error = 0.0
    evaluations = 0
    for t in atom.transitions:
        # Only the components the dipole weighs are integrated; a skipped
        # one (weight 0) enters the sums below as 0.
        g = green_components(z_A, t.omega, geometry, spec, units,
                             xx=t.d_par_sq > 0.0, zz=t.d_perp_sq > 0.0)
        evaluations += g.evaluations
        g_xx, err_xx = (g.g_xx.real, g.error_xx) if g.g_xx is not None else (0.0, 0.0)
        g_zz, err_zz = (g.g_zz.real, g.error_zz) if g.g_zz is not None else (0.0, 0.0)
        contributions.append(
            -mu0 * t.omega**2 * (g_xx * t.d_par_sq + g_zz * t.d_perp_sq))
        error += mu0 * t.omega**2 * (err_xx * t.d_par_sq + err_zz * t.d_perp_sq)
    return _sample(z_A, contributions, PotentialMethod.NUMERIC, error,
                   evaluations=evaluations)


def potential_nonretarded(atom: Atom, material: MaterialResponse, z_A: float,
                          units: UnitSystem = NORMALIZED) -> PotentialSample:
    """Short-distance (z_A omega / c << 1) closed form.

    Electric or magneto-electric media give the 1/z^3 image formula with
    the (|eps|^2 - 1)/|eps + 1|^2 factor; its 1/z correction is dropped,
    so inputs within NEAR_MAGNETIC_EPS of eps = 1 are flagged
    "near-magnetic-crossover". A purely magnetic half space (eps = 1
    exactly) instead gives the weaker 1/z law built from mu:

        U = -mu_0 omega^2 [|d_par|^2 Re((mu-1)/(mu+1) + (mu-1)/4)
                           + |d_perp|^2 Re((mu-1)/2)] / (16 pi z_A)

    where (mu-1)/(mu+1) comes from r_s and the (mu-1)/4 and (mu-1)/2
    terms from r_p -> k0^2 (mu-1)/(4 q^2) at large q. The lossless
    surface-mode poles (eps = -1, or mu = -1 when eps = 1) raise
    DegenerateDenominator.
    """
    if z_A <= 0.0:
        raise DomainError(f"z_A must be positive, got {z_A}")
    eps, mu = material.epsilon, material.mu
    flags = []
    contributions = []
    rel_trunc = 0.0
    if eps == 1.0:
        _require_nonzero("mu + 1", mu + 1.0)
        par = ((mu - 1.0) / (mu + 1.0) + (mu - 1.0) / 4.0).real
        perp = ((mu - 1.0) / 2.0).real
        for t in atom.transitions:
            contributions.append(
                -units.mu0 * t.omega**2 * (t.d_par_sq * par + t.d_perp_sq * perp)
                / (16.0 * math.pi * z_A))
            rel_trunc = max(rel_trunc, z_A * t.omega / units.c)
    else:
        if abs(eps - 1.0) < NEAR_MAGNETIC_EPS:
            flags.append("near-magnetic-crossover")
        _require_nonzero("eps + 1", eps + 1.0)
        factor = (abs(eps)**2 - 1.0) / abs(eps + 1.0)**2
        for t in atom.transitions:
            contributions.append(
                -(t.d_par_sq + 2.0 * t.d_perp_sq) * factor
                / (32.0 * math.pi * units.eps0 * z_A**3))
            rel_trunc = max(rel_trunc, z_A * t.omega / units.c)
    error = rel_trunc * abs(sum(contributions))
    return _sample(z_A, contributions, PotentialMethod.NONRETARDED, error, flags)


def potential_retarded(atom: Atom, material: MaterialResponse, z_A: float,
                       units: UnitSystem = NORMALIZED) -> PotentialSample:
    """Long-distance (z_A omega / c >> 1) oscillating closed form.

    Only the parallel dipole component contributes at leading order in
    c/(z_A omega).
    """
    if z_A <= 0.0:
        raise DomainError(f"z_A must be positive, got {z_A}")
    sqrt_eps = _passive_scalar_sqrt(material.epsilon)
    sqrt_mu = _passive_scalar_sqrt(material.mu)
    den = sqrt_eps + sqrt_mu
    _require_nonzero("sqrt(eps) + sqrt(mu)", den)
    contrast = (sqrt_eps - sqrt_mu) / den
    contributions = []
    rel_trunc = 0.0
    for t in atom.transitions:
        phase = cmath.exp(2j * z_A * t.omega / units.c)
        contributions.append(
            units.mu0 * t.omega**2 * t.d_par_sq
            / (8.0 * math.pi * z_A) * (phase * contrast).real)
        rel_trunc = max(rel_trunc, units.c / (z_A * t.omega))
    error = rel_trunc * abs(sum(contributions))
    return _sample(z_A, contributions, PotentialMethod.RETARDED, error)


def _require_nonzero(name: str, den: complex) -> None:
    """Raise DegenerateDenominator if a closed form's denominator vanishes
    (the lossless pole of a surface mode)."""
    if abs(den) < 1e-12:
        raise DegenerateDenominator(f"{name} = {den} too close to zero")


def _passive_scalar_sqrt(w: complex) -> complex:
    """Square root on the Im >= 0 branch, consistent with the i0+ rule."""
    r = cmath.sqrt(w)
    if r.imag < 0.0:
        r = -r
    return r


def potential_perfect_lens(atom: Atom, thickness: float, z_A: float,
                           units: UnitSystem = NORMALIZED) -> PotentialSample:
    """Closed-form potential of the ideal mirror-backed superlens.

    Valid for z_A > thickness; diverges toward the focal plane at
    z_A = thickness, where the atom coincides with its image.
    """
    if z_A <= thickness:
        raise DomainError(
            f"closed form requires z_A > thickness (z_A = {z_A}, "
            f"thickness = {thickness})")
    contributions = []
    for t in atom.transitions:
        zt = 2.0 * t.omega * (z_A - thickness) / units.c
        cos_zt, sin_zt = math.cos(zt), math.sin(zt)
        par = cos_zt + zt * sin_zt - zt * zt * cos_zt
        perp = 2.0 * (cos_zt + zt * sin_zt)
        contributions.append(
            -units.mu0 * t.omega**3 / (4.0 * math.pi * units.c * zt**3)
            * (par * t.d_par_sq + perp * t.d_perp_sq))
    return _sample(z_A, contributions, PotentialMethod.PERFECT_LENS, 0.0)


def potential_auto(atom: Atom, geometry: Geometry, z_A: float,
                   spec: QuadratureSpec = DEFAULT_SPEC,
                   units: UnitSystem = NORMALIZED) -> PotentialSample:
    """Dispatch to the cheapest adequate method and record the choice."""
    if isinstance(geometry, PerfectLens):
        return potential_perfect_lens(atom, geometry.thickness, z_A, units)
    k = 1.0 / units.c
    if isinstance(geometry, HalfSpace):
        if z_A * atom.omega_max * k < NONRETARDED_THRESHOLD:
            closed = potential_nonretarded(atom, geometry.material, z_A, units)
            # One numeric point keeps the closed form honest.
            numeric = potential_numeric(atom, geometry, z_A, spec, units)
            error = max(closed.error_estimate, abs(numeric.value - closed.value))
            return replace(closed, error_estimate=error,
                           evaluations=numeric.evaluations)
        if z_A * atom.omega_min * k > RETARDED_THRESHOLD:
            return potential_retarded(atom, geometry.material, z_A, units)
    return potential_numeric(atom, geometry, z_A, spec, units)
