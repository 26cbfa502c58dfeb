# src/planarcp/green.py
"""Scattering Green tensor components G_xx and G_zz at the atom's position.

For a planar structure the scattered tensor is diagonal with
G_yy = G_xx; both diagonal entries are semi-infinite q-integrals over the
product of a reflection coefficient and the round-trip phase
exp(2i beta z_A), evaluated here via the split quadrature engine.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import (DomainError, Geometry, HalfSpace, MaterialResponse,
                   NORMALIZED, PerfectLens, SlabWithMirror, UnitSystem)
from .dispersion import (halfspace_rs_rp, medium_beta1, perfect_lens_rs_rp,
                         slab_mirror_rs_rp, vacuum_beta)
from .quadrature import DEFAULT_SPEC, QuadratureSpec, integrate_evanescent, \
    integrate_propagating


@dataclass(frozen=True)
class FixedReflection:
    """Geometry stand-in with constant (r_s, r_p); testing/limit aid.

    (r_s, r_p) = (-1, +1) reproduces the perfect-mirror image potential.
    """

    r_s: complex
    r_p: complex


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


def _coefficients(geometry, omega: float, c: float):
    """Return (rs_rp(q), z_offset): reflection coefficients as a function
    of transverse wavenumber and the depth offset of the effective image.

    For the perfect lens the exponentially growing part of the closed
    coefficients is pulled out analytically: rs_rp returns the bounded
    factor and z_offset = thickness shortens the evanescent decay to
    exp(-2 kappa (z_A - d)).
    """
    if isinstance(geometry, HalfSpace):
        material = geometry.material

        def rs_rp(q):
            beta = vacuum_beta(q, omega, c)
            beta1 = medium_beta1(q, omega, material, c)
            return halfspace_rs_rp(beta, beta1, material)

        return rs_rp, 0.0

    if isinstance(geometry, SlabWithMirror):
        material = geometry.material
        d = geometry.thickness

        def rs_rp(q):
            beta = vacuum_beta(q, omega, c)
            beta1 = medium_beta1(q, omega, material, c)
            return slab_mirror_rs_rp(beta, beta1, material, d)

        return rs_rp, 0.0

    if isinstance(geometry, PerfectLens):
        d = geometry.thickness

        def rs_rp(q):
            # exp(-2i beta d) with beta = i kappa is exp(2 kappa d); the
            # growth is handled by the shortened decay length, so only
            # the residual phase relative to that factor is returned.
            beta = vacuum_beta(q, omega, c)
            kappa = np.where(np.imag(np.asarray(beta, complex)) > 0,
                             np.imag(np.asarray(beta, complex)), 0.0)
            r_s, r_p = perfect_lens_rs_rp(beta, d)
            damp = np.exp(-2.0 * kappa * d)
            return r_s * damp, r_p * damp

        return rs_rp, d

    if isinstance(geometry, FixedReflection):
        def rs_rp(q):
            q = np.asarray(q, dtype=float)
            ones = np.ones_like(q, dtype=complex)
            return geometry.r_s * ones, geometry.r_p * ones

        return rs_rp, 0.0

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
                      omega: float, c: float) -> list[float]:
    """Guided-mode positions of a weakly lossy mirror-backed slab.

    Found by scanning the reflection denominators for sharp relative
    minima; lossy slabs (Im >= 0.05) have broad resonances the adaptive
    engine resolves unaided.
    """
    eps, mu = material.epsilon, material.mu
    loss = max(eps.imag, mu.imag)
    if loss >= 0.05:
        return []
    k0 = omega / c
    kappa_win = k0 * (1.0 + math.sqrt(abs(eps * mu)))
    grid = np.linspace(kappa_win / 4096.0, kappa_win, 4096)
    q = np.sqrt(grid * grid + k0 * k0)
    beta = 1j * grid
    beta1 = medium_beta1(q, omega, material, c)
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


# (geometry, omega, c) breakpoint sets kept in memory; a distance sweep
# needs one per transition frequency of its atom.
_BREAKPOINT_CACHE_SIZE = 32


@functools.lru_cache(maxsize=_BREAKPOINT_CACHE_SIZE)
def _evanescent_breakpoints(geometry, omega: float, c: float) -> tuple[float, ...]:
    """Graded panel edges around the pinned evanescent resonances.

    A pure function of frozen value objects, so it is memoised: the
    guided-mode scan runs once per (geometry, omega, c), not per point.
    """
    k0 = omega / c
    if isinstance(geometry, HalfSpace):
        centers = _halfspace_mode_kappas(geometry.material, k0)
        loss = max(geometry.material.epsilon.imag, geometry.material.mu.imag)
    elif isinstance(geometry, SlabWithMirror):
        centers = _slab_mode_kappas(geometry.material, geometry.thickness,
                                    omega, c)
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


def _osc_panel_width(z_A: float, geometry) -> float:
    """Quarter period in beta of the fastest phase factor in the integrand."""
    scale = z_A
    if isinstance(geometry, (SlabWithMirror, PerfectLens)):
        scale += geometry.thickness
    return math.pi / (4.0 * scale)


def _check_domain(z_A: float, geometry):
    if z_A <= 0.0:
        raise DomainError(f"z_A must be positive, got {z_A}")
    if isinstance(geometry, PerfectLens) and z_A <= geometry.thickness:
        raise DomainError(
            "perfect-lens Green tensor only converges for z_A > thickness "
            f"(z_A = {z_A}, thickness = {geometry.thickness})")


def green_components(z_A: float, omega: float, geometry: Geometry,
                     spec: QuadratureSpec = DEFAULT_SPEC,
                     units: UnitSystem = NORMALIZED, *, xx: bool = True,
                     zz: bool = True) -> GreenComponents:
    """G_xx and G_zz at the atom, from one integrand per sector.

    G_xx combines r_s - (beta^2 c^2 / omega^2) r_p with the round-trip
    phase; only r_p enters G_zz, weighted by 2 q^2 c^2 / omega^2. Passing
    xx=False or zz=False leaves that component out of the integrand and
    out of the convergence test; it is returned as None.
    """
    if not (xx or zz):
        raise ValueError("green_components needs at least one of xx, zz")
    _check_domain(z_A, geometry)
    c = units.c
    k0 = omega / c
    rs_rp, z_offset = _coefficients(geometry, omega, c)

    def prop(beta):
        q2 = np.maximum(k0 * k0 - beta * beta, 0.0)
        r_s, r_p = rs_rp(np.sqrt(q2))
        rows = []
        if xx:
            rows.append(r_s - (beta / k0) ** 2 * r_p)
        if zz:
            rows.append(2.0 * (q2 / (k0 * k0)) * r_p)
        return np.exp(2j * beta * z_A) * np.stack(rows)

    def evan(kappa):
        q2 = kappa * kappa + k0 * k0
        r_s, r_p = rs_rp(np.sqrt(q2))
        # beta = i kappa, so -(beta/k0)^2 = +(kappa/k0)^2; the decay
        # exp(-2 kappa (z_A - z_offset)) is applied by the engine, with
        # the image offset already pulled out of the coefficients.
        rows = []
        if xx:
            rows.append(r_s + (kappa / k0) ** 2 * r_p)
        if zz:
            rows.append(2.0 * (q2 / (k0 * k0)) * r_p)
        return np.stack(rows)

    res_p = integrate_propagating(prop, k0, spec,
                                  max_panel_width=_osc_panel_width(z_A, geometry))
    z_decay = z_A - z_offset
    res_e = integrate_evanescent(evan, z_decay, spec,
                                 breakpoints=_evanescent_breakpoints(geometry, omega, c)
                                 + _small_kappa_ladder(k0, z_decay))
    value = (1j / (8.0 * math.pi)) * res_p.value + (1.0 / (8.0 * math.pi)) * res_e.value
    error = (res_p.error_estimate + res_e.error_estimate) / (8.0 * math.pi)
    parts = [(complex(v), float(e)) for v, e in zip(value, error)]
    g_xx, error_xx = parts.pop(0) if xx else (None, None)
    g_zz, error_zz = parts.pop(0) if zz else (None, None)
    return GreenComponents(g_xx=g_xx, g_zz=g_zz, omega=omega, z_A=z_A,
                           error_xx=error_xx, error_zz=error_zz,
                           evaluations=res_p.evaluations + res_e.evaluations)
