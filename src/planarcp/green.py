# src/planarcp/green.py
"""Scattering Green tensor components G_xx and G_zz at the atom's position.

For a planar structure the scattered tensor is diagonal with
G_yy = G_xx; both diagonal entries are integrals over the product of a
reflection coefficient and the round-trip phase exp(2i beta z) along the
contour beta: i inf -> 0 -> k0 (the evanescent sector beta = i kappa,
then the propagating one). z is the atom's distance from the mirror
plane: z_A, or z_A - d for the perfect lens, which images its mirror to
the focal plane.

Two routes compute that contour integral, and _coefficients picks one:

- steepest-descent path: where the quarter strip 0 < Re beta < k0,
  Im beta > 0 is certified free of poles and branch cuts, Cauchy's
  theorem moves the contour onto Re beta = k0, beta = k0 + i t, and
  G = exp(2i k0 z)/(8 pi) int_0^inf R(t) exp(-2 t z) dt is one decaying,
  non-oscillating integral (Paulus, Gay-Balmaz & Martin, PRE 62, 5797
  (2000); Michalski & Mosig, IEEE TAP 45, 508 (1997)). Certified are the
  perfect lens, a half space with Im(eps mu) > 0, and a half space with
  real eps mu that is <= 0 or has a positive i0+ direction; on each, the
  poles lie at Re beta < 0 and the branch point of beta1 outside the
  strip.
- real axis: every other geometry (left-handed half spaces with
  Im(eps mu) < 0, whose branch point lies in the strip, and all
  mirror-backed slabs, whose guided-mode poles may) integrates the
  oscillating propagating sector and the evanescent one separately.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import (Geometry, HalfSpace, MaterialResponse, PerfectLens,
                   SlabWithMirror, require_distance)
from .dispersion import (_i0_sign, beta1_of_beta, halfspace_rs_rp,
                         medium_beta1, slab_mirror_rs_rp, vacuum_beta)
from .quadrature import REL_TOL, integrate_evanescent, integrate_propagating

# Round-off floor of a path integral's error, per unit of its magnitude
# (the integral of |f|): QUADPACK's 50 eps_mach. A one-round GK15
# estimate of a smooth decaying integrand can claim far less than the
# rounding of the sum.
_ROUNDOFF = 50.0 * np.finfo(float).eps


@dataclass(frozen=True)
class GreenComponents:
    """Diagonal scattered Green components at coincident points.

    g_yy equals g_xx by the planar symmetry and is not stored separately;
    off-diagonal components vanish identically. A component that was not
    asked for is None, and so is its error.
    """

    g_xx: complex | None
    g_zz: complex | None
    omega: float
    z_A: float
    error_xx: float | None
    error_zz: float | None
    evaluations: int = 0

    @property
    def g_yy(self) -> complex | None:
        return self.g_xx

    @property
    def error_estimate(self) -> float:
        return max(e for e in (self.error_xx, self.error_zz) if e is not None)


def _path_certified(material: MaterialResponse) -> bool:
    """True when a half space's r_s, r_p are analytic in the strip
    0 < Re beta < k0, Im beta > 0 and continuous onto its edges.

    There Im(beta1^2) = 2 Re beta Im beta + Im(eps mu) k0^2, so for
    Im(eps mu) > 0 beta1 never meets its cut, and the surface-mode poles
    of a passive medium lie at Re beta < 0. For real eps mu the radicand
    is real only on the strip's edges, which the interior approaches with
    Im(beta1^2) -> 0+: a positive radicand there continues to the +sqrt
    root, which is the i0+ one unless the direction is negative, and
    eps mu <= 0 keeps the radicand negative on both edges.
    """
    eps_mu = material.epsilon * material.mu
    if eps_mu.imag != 0.0:
        return eps_mu.imag > 0.0
    return eps_mu.real <= 0.0 or _i0_sign(material) > 0.0


def _coefficients(geometry, omega: float):
    """Return (rs_rp, z_offset, on_path): the reflection coefficients, the
    depth of the plane they image, and the route.

    on_path True: rs_rp takes the complex vacuum wavenumber beta on the
    steepest-descent path Re beta = k0. False: rs_rp takes the real
    transverse wavenumber q of the real-axis route.

    The ideal eps = mu = -1 slab of the perfect lens images its mirror to
    the focal plane (Pendry, PRL 85, 3966 (2000)): its coefficients
    -+exp(-2i beta d) are the ideal mirror's (-1, +1) seen from
    z_A - d, so it returns those constants with z_offset = thickness.
    """
    if isinstance(geometry, PerfectLens):
        def mirror(beta):
            ones = np.ones_like(beta, dtype=complex)
            return -ones, ones

        return mirror, geometry.thickness, True

    if isinstance(geometry, HalfSpace):
        material = geometry.material
        if _path_certified(material):
            def on_path(beta):
                return halfspace_rs_rp(beta, beta1_of_beta(beta, omega, material),
                                       material)

            return on_path, 0.0, True

        def rs_rp(q):
            beta = vacuum_beta(q, omega)
            beta1 = medium_beta1(q, omega, material)
            return halfspace_rs_rp(beta, beta1, material)

        return rs_rp, 0.0, False

    if isinstance(geometry, SlabWithMirror):
        material = geometry.material
        d = geometry.thickness

        def rs_rp(q):
            beta = vacuum_beta(q, omega)
            beta1 = medium_beta1(q, omega, material)
            return slab_mirror_rs_rp(beta, beta1, material, d)

        return rs_rp, 0.0, False

    raise TypeError(f"unsupported geometry {geometry!r}")


def _graded_edges(center: float, span: float, floor: float) -> list[float]:
    """Panel edges clustered geometrically around a near-singular point."""
    offsets = []
    d = span
    while d > floor:
        offsets.append(d)
        d /= 8.0
    offsets.append(max(d, floor))
    edges = [center]
    for o in offsets:
        edges.append(center - o)
        edges.append(center + o)
    return edges


def _halfspace_mode_kappas(material: MaterialResponse, k0: float) -> list[float]:
    """Evanescent surface-mode positions of a half space (s and p).

    Solving a*beta + beta1 = 0 (a = mu for s, eps for p) gives
    q^2 = a (a - b) k0^2 / (a^2 - 1); a genuine real-axis pole needs
    Re a < 0 and q > k0. Near-lossless media make these resonances too
    narrow for uniform panels, so they are pinned explicitly.
    """
    eps, mu = material.epsilon, material.mu
    kappas = []
    for a, b in ((mu, eps), (eps, mu)):
        if a.real >= 0.0:
            continue
        den = a * a - 1.0
        if abs(den) < 1e-12:
            continue
        kap = complex(np.sqrt(complex(a * (a - b) / den - 1.0))) * k0
        if kap.imag < 0:
            kap = -kap
        if kap.real > 1e-9 * k0 and kap.imag < 0.5 * kap.real:
            kappas.append(kap.real)
    return kappas


def _slab_mode_kappas(material: MaterialResponse, thickness: float,
                      omega: float) -> list[float]:
    """Guided-mode positions of a weakly lossy mirror-backed slab.

    Found by scanning the reflection denominators for sharp relative
    minima; lossy slabs (Im >= 0.05) have broad resonances the adaptive
    engine resolves unaided.
    """
    eps, mu = material.epsilon, material.mu
    loss = max(eps.imag, mu.imag)
    if loss >= 0.05:
        return []
    k0 = omega
    kappa_win = k0 * (1.0 + math.sqrt(abs(eps * mu)))
    grid = np.linspace(kappa_win / 4096.0, kappa_win, 4096)
    q = np.sqrt(grid * grid + k0 * k0)
    beta = 1j * grid
    beta1 = medium_beta1(q, omega, material)
    phase = np.exp(2j * beta1 * thickness)
    kappas = []
    for a, pm in ((mu, -1.0), (eps, 1.0)):
        den = a * beta + beta1 + pm * (a * beta - beta1) * phase
        scale = np.abs(a * beta) + np.abs(beta1)
        rel = np.abs(den) / np.maximum(scale, 1e-300)
        interior = (rel[1:-1] < rel[:-2]) & (rel[1:-1] < rel[2:]) & (rel[1:-1] < 0.2)
        kappas.extend(grid[1:-1][interior])
    if len(kappas) > 64:
        kappas = sorted(kappas)[:64]
    return kappas


# (geometry, omega) breakpoint sets kept in memory; a distance sweep
# needs one per transition frequency of its atom.
_BREAKPOINT_CACHE_SIZE = 32


@functools.lru_cache(maxsize=_BREAKPOINT_CACHE_SIZE)
def _evanescent_breakpoints(geometry, omega: float) -> tuple[float, ...]:
    """Graded panel edges around the pinned evanescent resonances of a
    half space or slab on the real-axis route.

    A pure function of frozen value objects, so it is memoised: the
    guided-mode scan runs once per (geometry, omega), not per point.
    """
    k0 = omega
    if isinstance(geometry, HalfSpace):
        centers = _halfspace_mode_kappas(geometry.material, k0)
    else:
        centers = _slab_mode_kappas(geometry.material, geometry.thickness,
                                    omega)
    loss = max(geometry.material.epsilon.imag, geometry.material.mu.imag)
    floor = max(loss, 1e-13) * k0 / 100.0
    edges: list[float] = []
    for kap in centers:
        edges.extend(_graded_edges(kap, 0.25 * max(kap, 0.1 * k0), floor))
    return tuple(sorted(e for e in edges if e > 0.0))


def _small_ladder(k0: float, z_decay: float) -> tuple[float, ...]:
    """Panel edges k0/8, k0/4, k0/2, ... below the first uniform edge.

    The uniform panels of integrate_evanescent are 1/(2 z_decay) wide,
    which at small z_decay puts all of the coefficients' structure at
    kappa ~ k0 (or t ~ k0 on the path) into the first panel; halving it
    toward 0 would take one refinement round per octave. Depends on z, so
    it stays outside the breakpoint cache.
    """
    edges = []
    kappa = k0 / 8.0
    while kappa < 0.5 / z_decay:
        edges.append(kappa)
        kappa *= 2.0
    return tuple(edges)


def _osc_panel_width(z_image: float, geometry) -> float:
    """Quarter period in beta of the fastest phase factor in the integrand."""
    scale = z_image
    if isinstance(geometry, SlabWithMirror):
        scale += geometry.thickness
    return math.pi / (4.0 * scale)


def green_components(z_A: float, omega: float, geometry: Geometry,
                     rel_tol: float = REL_TOL, *, xx: bool = True,
                     zz: bool = True) -> GreenComponents:
    """G_xx and G_zz at the atom, from one integrand for both components.

    In natural units, k0 = omega. G_xx integrates R = r_s - (beta/k0)^2 r_p
    and G_zz integrates R = 2 (q/k0)^2 r_p = 2 (1 - beta^2/k0^2) r_p,
    each times the round-trip phase, along the route _coefficients picks
    (see the module docstring). Passing xx=False or zz=False leaves that
    component out of the integrand and out of the convergence test; it
    is returned as None.
    """
    if not (xx or zz):
        raise ValueError("green_components needs at least one of xx, zz")
    k0 = omega
    rs_rp, z_offset, on_path = _coefficients(geometry, omega)
    require_distance("z_A", z_A, z_offset)
    z_image = z_A - z_offset
    ladder = _small_ladder(k0, z_image)

    def rows(r_s, r_p, b2, q2):
        # b2 = (beta/k0)^2 and q2 = q^2 = k0^2 - beta^2.
        out = []
        if xx:
            out.append(r_s - b2 * r_p)
        if zz:
            out.append(2.0 * (q2 / (k0 * k0)) * r_p)
        return np.stack(out)

    if on_path:
        def path(t):
            # beta = k0 + i t; the engine applies the decay exp(-2 t z_image).
            beta = k0 + 1j * t
            return rows(*rs_rp(beta), (beta / k0) ** 2, k0 * k0 - beta * beta)

        res = integrate_evanescent(path, z_image, rel_tol, breakpoints=ladder)
        value = (cmath.exp(2j * k0 * z_image) / (8.0 * math.pi)) * res.value
        error = np.maximum(res.error_estimate,
                           _ROUNDOFF * res.magnitude) / (8.0 * math.pi)
        evaluations = res.evaluations
    else:
        def prop(beta):
            q2 = np.maximum(k0 * k0 - beta * beta, 0.0)
            return np.exp(2j * beta * z_image) * rows(
                *rs_rp(np.sqrt(q2)), (beta / k0) ** 2, q2)

        def evan(kappa):
            # beta = i kappa; the engine applies the decay exp(-2 kappa z_image).
            q2 = kappa * kappa + k0 * k0
            return rows(*rs_rp(np.sqrt(q2)), -(kappa / k0) ** 2, q2)

        res_p = integrate_propagating(prop, k0, rel_tol,
                                      max_panel_width=_osc_panel_width(z_image, geometry))
        res_e = integrate_evanescent(evan, z_image, rel_tol,
                                     breakpoints=_evanescent_breakpoints(geometry, omega)
                                     + ladder)
        value = (1j / (8.0 * math.pi)) * res_p.value + (1.0 / (8.0 * math.pi)) * res_e.value
        error = (res_p.error_estimate + res_e.error_estimate) / (8.0 * math.pi)
        evaluations = res_p.evaluations + res_e.evaluations
    parts = [(complex(v), float(e)) for v, e in zip(value, error)]
    g_xx, error_xx = parts.pop(0) if xx else (None, None)
    g_zz, error_zz = parts.pop(0) if zz else (None, None)
    return GreenComponents(g_xx=g_xx, g_zz=g_zz, omega=omega, z_A=z_A,
                           error_xx=error_xx, error_zz=error_zz,
                           evaluations=evaluations)
