# src/planarcp/potential.py
"""Resonant Casimir-Polder potential of an excited atom.

U(z_A) = -mu_0 sum_k omega_k^2 [Re G_xx |d_par|^2 + Re G_zz |d_perp|^2]

summed over downward transitions, with G_xx, G_zz from the green module
or replaced by the closed-form short-distance, long-distance and
perfect-lens limits. Computed in natural units, c = mu_0 = eps_0 = 1;
UnitSystem holds the SI scales.
"""

from __future__ import annotations

import cmath
import enum
import math
import sys
from dataclasses import dataclass

from .core import (Atom, DegenerateDenominator, DomainError, Geometry,
                   HalfSpace, MaterialResponse, PerfectLens, require_distance)
from .dispersion import _passive_sqrt
from .green import green_components
from .quadrature import REL_TOL

# Auto-dispatch threshold in z_A * omega / c: "much greater than 1" made
# concrete and validated by the asymptotic-agreement tests.
RETARDED_THRESHOLD = 1e3


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
    evaluations: int = 0  # the Green integral's path nodes; 0 for closed forms


def _sample(z_A, contributions, method, error, evaluations=0):
    """The sample; DomainError where its value or its error is not finite."""
    value, error = float(sum(contributions)), float(error)
    if not (math.isfinite(value) and math.isfinite(error)):
        name = {"nonretarded": "short-distance", "retarded": "long-distance",
                "closed-form": "perfect-lens"}.get(method.value, method.value)
        raise DomainError(f"{name} potential not finite at z_A = {z_A}")
    return PotentialSample(float(z_A), value, method, error, evaluations)


def potential_numeric(atom: Atom, geometry: Geometry, z_A: float,
                      rel_tol: float = REL_TOL) -> PotentialSample:
    """Potential by direct quadrature of the Green-tensor integral: one
    green_components call for all transitions, of each component that any
    of them weighs (a weight of 0 multiplies a computed value)."""
    transitions = atom.transitions
    xx = any([t.d_par_sq > 0.0 for t in transitions])
    zz = any([t.d_perp_sq > 0.0 for t in transitions])
    g = green_components(z_A, [t.omega for t in transitions], geometry, rel_tol,
                         xx=xx, zz=zz)
    none = [0.0] * len(transitions)
    g_xx, err_xx = (g.g_xx.real.tolist(), g.error_xx.tolist()) if xx else (none, none)
    g_zz, err_zz = (g.g_zz.real.tolist(), g.error_zz.tolist()) if zz else (none, none)
    contributions = []
    error = 0.0
    for t, gx, gz, ex, ez in zip(transitions, g_xx, g_zz, err_xx, err_zz):
        contributions.append(-t.omega**2 * (gx * t.d_par_sq + gz * t.d_perp_sq))
        error += t.omega**2 * (ex * t.d_par_sq + ez * t.d_perp_sq)
    return _sample(z_A, contributions, PotentialMethod.NUMERIC, error,
                   evaluations=g.evaluations)


def potential_nonretarded(atom: Atom, material: MaterialResponse,
                          z_A: float) -> PotentialSample:
    """Short-distance (z_A omega / c << 1) closed form.

    With R_p = (eps-1)/(eps+1), R_s = (mu-1)/(mu+1) and
    X = eps (eps mu - 1)/(eps+1)^2, the k0^2/q^2 term of r_p at large q,

        U = -sum_k [(|d_par|^2 + 2|d_perp|^2) Re R_p / (32 pi eps_0 z_A^3)
                    + mu_0 omega_k^2 (|d_par|^2 Re(R_s + X)
                                      + 2 |d_perp|^2 Re(R_p + X)) / (16 pi z_A)]

    The 1/z^3 image term vanishes for eps = 1, which leaves the 1/z law
    of a purely magnetic half space. The lossless surface-mode poles
    (eps = -1 or mu = -1) raise DegenerateDenominator, and a distance so
    small that the value overflows raises DomainError.
    """
    require_distance("z_A", z_A)
    eps, mu = material.epsilon, material.mu
    _require_nonzero("eps + 1", eps + 1.0)
    _require_nonzero("mu + 1", mu + 1.0)
    r_p = (eps - 1.0) / (eps + 1.0)
    r_s = (mu - 1.0) / (mu + 1.0)
    x = eps * (eps * mu - 1.0) / (eps + 1.0) ** 2
    # Three divisions overflow to inf, where z_A**3 would underflow to 0.
    image = r_p.real / (32.0 * math.pi) / z_A / z_A / z_A
    contributions = []
    rel_trunc = 0.0
    for t in atom.transitions:
        contributions.append(
            -(t.d_par_sq + 2.0 * t.d_perp_sq) * image
            - t.omega**2 * (t.d_par_sq * (r_s + x).real
                            + 2.0 * t.d_perp_sq * (r_p + x).real)
            / (16.0 * math.pi * z_A))
        rel_trunc = max(rel_trunc, z_A * t.omega)
    error = rel_trunc * abs(sum(contributions))
    return _sample(z_A, contributions, PotentialMethod.NONRETARDED, error)


def potential_retarded(atom: Atom, material: MaterialResponse,
                       z_A: float) -> PotentialSample:
    """Long-distance (z_A omega / c >> 1) oscillating closed form.

    Only the parallel dipole component contributes at leading order in
    c/(z_A omega). The error estimate is the next order at the scale of a
    passive mirror (|r| <= 1 at normal incidence),
    sum_k c/(z_A omega_k) mu_0 omega_k^2 (|d_par|^2 + |d_perp|^2)/(8 pi z_A),
    so it stays positive where the leading term vanishes (a perpendicular
    dipole, or eps = mu), floored at eps_mach |U|. Where either is not
    finite it raises DomainError.
    """
    require_distance("z_A", z_A)
    sqrt_eps = _passive_sqrt(material.epsilon)
    sqrt_mu = _passive_sqrt(material.mu)
    den = sqrt_eps + sqrt_mu
    _require_nonzero("sqrt(eps) + sqrt(mu)", den)
    contrast = (sqrt_eps - sqrt_mu) / den
    contributions, error, area = [], 0.0, 8.0 * math.pi * z_A * z_A  # area: 0 below 1e-162
    for t in atom.transitions:
        require_distance("2 omega z_A", 2.0 * z_A * t.omega)  # else cmath.exp may raise
        phase = cmath.exp(2j * z_A * t.omega)
        contributions.append(
            t.omega**2 * t.d_par_sq
            / (8.0 * math.pi * z_A) * (phase * contrast).real)
        error += t.omega * (t.d_par_sq + t.d_perp_sq) / area if area else math.inf
    error = max(error, sys.float_info.epsilon * abs(sum(contributions)))
    return _sample(z_A, contributions, PotentialMethod.RETARDED, error)


def _require_nonzero(name: str, den: complex) -> None:
    """Raise DegenerateDenominator if a closed form's denominator vanishes
    (the lossless pole of a surface mode)."""
    if abs(den) < 1e-12:
        raise DegenerateDenominator(f"{name} = {den} too close to zero")


def potential_perfect_lens(atom: Atom, thickness: float,
                           z_A: float) -> PotentialSample:
    """Closed-form potential of the ideal mirror-backed superlens.

    Valid for z_A > thickness; diverges toward the focal plane at
    z_A = thickness, where the atom coincides with its image, and raises
    DomainError where it is not finite.
    """
    require_distance("z_A", z_A, thickness)
    contributions = []
    for t in atom.transitions:
        zt = 2.0 * t.omega * (z_A - thickness)
        require_distance("2 omega (z_A - d)", zt)  # else 1/zt or cos(zt) raises
        # In q = 1/zt, finite wherever the value is.
        q, cos_zt, sin_zt = 1.0 / zt, math.cos(zt), math.sin(zt)
        perp = 2.0 * q * q * (q * cos_zt + sin_zt)
        par = 0.5 * perp - q * cos_zt
        contributions.append(-t.omega**3 / (4.0 * math.pi)
                             * (par * t.d_par_sq + perp * t.d_perp_sq))
    return _sample(z_A, contributions, PotentialMethod.PERFECT_LENS, 0.0)


def potential_auto(atom: Atom, geometry: Geometry, z_A: float,
                   rel_tol: float = REL_TOL) -> PotentialSample:
    """The perfect-lens closed form, the retarded closed form for a half
    space beyond RETARDED_THRESHOLD, quadrature everywhere else; the
    sample's method records the choice."""
    if isinstance(geometry, PerfectLens):
        return potential_perfect_lens(atom, geometry.thickness, z_A)
    if (isinstance(geometry, HalfSpace)
            and z_A * atom.omega_min > RETARDED_THRESHOLD):
        return potential_retarded(atom, geometry.material, z_A)
    return potential_numeric(atom, geometry, z_A, rel_tol)
