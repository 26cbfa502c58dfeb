# src/planarcp/green.py
"""Scattering Green tensor components G_xx and G_zz at the atom's position.

For a planar structure the scattered tensor is diagonal with
G_yy = G_xx; both diagonal entries are semi-infinite q-integrals over the
product of a reflection coefficient and the round-trip phase
exp(2i beta z), evaluated here via the split quadrature engine. z is the
atom's distance from the mirror plane: z_A, or z_A - d for the perfect
lens, which images its mirror to the focal plane.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import (DomainError, Geometry, HalfSpace, MaterialResponse,
                   PerfectLens, SlabWithMirror)
from .dispersion import (halfspace_rs_rp, medium_beta1, slab_mirror_rs_rp,
                         vacuum_beta)
from .quadrature import DEFAULT_SPEC, QuadratureSpec, integrate_evanescent, \
    integrate_propagating


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


def _coefficients(geometry, omega: float):
    """Return (rs_rp(q), z_offset): reflection coefficients as a function
    of transverse wavenumber and the depth of the plane they image.

    The ideal eps = mu = -1 slab of the perfect lens images its mirror to
    the focal plane (Pendry, PRL 85, 3966 (2000)): its coefficients
    -+exp(-2i beta d) are the ideal mirror's (-1, +1) seen from
    z_A - d, so it returns those constants with z_offset = thickness.
    """
    if isinstance(geometry, HalfSpace):
        material = geometry.material

        def rs_rp(q):
            beta = vacuum_beta(q, omega)
            beta1 = medium_beta1(q, omega, material)
            return halfspace_rs_rp(beta, beta1, material)

        return rs_rp, 0.0

    if isinstance(geometry, SlabWithMirror):
        material = geometry.material
        d = geometry.thickness

        def rs_rp(q):
            beta = vacuum_beta(q, omega)
            beta1 = medium_beta1(q, omega, material)
            return slab_mirror_rs_rp(beta, beta1, material, d)

        return rs_rp, 0.0

    if isinstance(geometry, PerfectLens):
        def rs_rp(q):
            ones = np.ones_like(q, dtype=complex)
            return -ones, ones

        return rs_rp, geometry.thickness

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
    """Graded panel edges around the pinned evanescent resonances.

    A pure function of frozen value objects, so it is memoised: the
    guided-mode scan runs once per (geometry, omega), not per point.
    """
    k0 = omega
    if isinstance(geometry, HalfSpace):
        centers = _halfspace_mode_kappas(geometry.material, k0)
        loss = max(geometry.material.epsilon.imag, geometry.material.mu.imag)
    elif isinstance(geometry, SlabWithMirror):
        centers = _slab_mode_kappas(geometry.material, geometry.thickness,
                                    omega)
        loss = max(geometry.material.epsilon.imag, geometry.material.mu.imag)
    else:
        return ()
    floor = max(loss, 1e-13) * k0 / 100.0
    edges: list[float] = []
    for kap in centers:
        edges.extend(_graded_edges(kap, 0.25 * max(kap, 0.1 * k0), floor))
    return tuple(sorted(e for e in edges if e > 0.0))


def _small_kappa_ladder(k0: float, z_decay: float) -> tuple[float, ...]:
    """Panel edges k0/8, k0/4, k0/2, ... below the first uniform edge.

    The uniform evanescent panels are 1/(2 z_decay) wide, which at small
    z_decay puts all of the coefficients' structure at kappa ~ k0 into
    the first panel; halving it toward 0 would take one refinement round
    per octave. Depends on z, so it stays outside the breakpoint cache.
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
                     spec: QuadratureSpec = DEFAULT_SPEC, *, xx: bool = True,
                     zz: bool = True) -> GreenComponents:
    """G_xx and G_zz at the atom, from one integrand for both sectors.

    In natural units, k0 = omega. G_xx combines r_s - (beta/k0)^2 r_p
    with the round-trip phase; only r_p enters G_zz, weighted by
    2 (q/k0)^2. Passing xx=False or zz=False leaves that component out
    of the integrand and out of the convergence test; it is returned as
    None.
    """
    if not (xx or zz):
        raise ValueError("green_components needs at least one of xx, zz")
    k0 = omega
    rs_rp, z_offset = _coefficients(geometry, omega)
    z_image = z_A - z_offset
    if z_image <= 0.0:
        raise DomainError(f"need z_A > {z_offset} for a decaying integrand, "
                          f"got z_A = {z_A}")

    def rows(q2, b2):
        # b2 = (beta/k0)^2: (beta/k0)^2 on the propagating sector and
        # -(kappa/k0)^2 on the evanescent one, where beta = i kappa.
        r_s, r_p = rs_rp(np.sqrt(q2))
        out = []
        if xx:
            out.append(r_s - b2 * r_p)
        if zz:
            out.append(2.0 * (q2 / (k0 * k0)) * r_p)
        return np.stack(out)

    def prop(beta):
        q2 = np.maximum(k0 * k0 - beta * beta, 0.0)
        return np.exp(2j * beta * z_image) * rows(q2, (beta / k0) ** 2)

    def evan(kappa):
        # The engine applies the decay exp(-2 kappa z_image).
        return rows(kappa * kappa + k0 * k0, -(kappa / k0) ** 2)

    res_p = integrate_propagating(prop, k0, spec,
                                  max_panel_width=_osc_panel_width(z_image, geometry))
    res_e = integrate_evanescent(evan, z_image, spec,
                                 breakpoints=_evanescent_breakpoints(geometry, omega)
                                 + _small_kappa_ladder(k0, z_image))
    value = (1j / (8.0 * math.pi)) * res_p.value + (1.0 / (8.0 * math.pi)) * res_e.value
    error = (res_p.error_estimate + res_e.error_estimate) / (8.0 * math.pi)
    parts = [(complex(v), float(e)) for v, e in zip(value, error)]
    g_xx, error_xx = parts.pop(0) if xx else (None, None)
    g_zz, error_zz = parts.pop(0) if zz else (None, None)
    return GreenComponents(g_xx=g_xx, g_zz=g_zz, omega=omega, z_A=z_A,
                           error_xx=error_xx, error_zz=error_zz,
                           evaluations=res_p.evaluations + res_e.evaluations)
