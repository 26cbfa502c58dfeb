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

- steepest-descent path, for every half space and the perfect lens:
  Cauchy's theorem moves the contour onto Re beta = k0, beta = k0 + i t,
  and G = exp(2i k0 z)/(8 pi) int_0^inf R(t) exp(-2 t z) dt is one
  decaying, non-oscillating integral (Paulus, Gay-Balmaz & Martin, PRE
  62, 5797 (2000); Michalski & Mosig, IEEE TAP 45, 508 (1997)). Where
  the branch point b0 of beta1 lies in the strip 0 <= Re beta < k0
  (Im(eps mu) < 0, as in lossy left-handed media, or its lossless
  limit), its cut, turned to run up from b0, adds a term with the same
  decay to the same integrand. No residue is added: no surface-mode pole
  of 10^5 random passive media lies in the strip on the path's sheet.
- real axis, for mirror-backed slabs, whose guided-mode poles may lie
  in the strip: the oscillating propagating sector and the evanescent
  one are integrated separately. Bisection finds a weakly lossy slab's
  near-real-axis poles unaided (see quadrature.py).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .core import (Geometry, HalfSpace, MaterialResponse, PerfectLens,
                   SlabWithMirror, require_distance)
from .dispersion import (_i0_sign, _passive_sqrt, beta1_of_beta,
                         halfspace_rs_rp, medium_beta1, slab_mirror_rs_rp,
                         vacuum_beta)
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


def _branch_point(material: MaterialResponse, k0: float) -> complex | None:
    """The branch point b0 = k0 sqrt(1 - eps mu), Im b0 >= 0, of a half
    space's beta1 if its cut crosses the path Re beta = k0, else None.

    beta1 = sqrt(beta^2 - b0^2), Im >= 0, changes sign where beta^2 - b0^2
    is real and positive: nowhere in the strip if Im(eps mu) > 0 or in
    its limit (real eps mu, positive i0+ direction); otherwise along
    Re beta Im beta = Re b0 Im b0 from b0 to Re beta -> inf, which meets
    the path if Re b0 < k0.
    """
    eps_mu = material.epsilon * material.mu
    if eps_mu.imag > 0.0 or (eps_mu.imag == 0.0 and _i0_sign(material) > 0.0):
        return None
    b0 = k0 * complex(_passive_sqrt(1.0 - eps_mu))
    return b0 if b0.real < k0 else None


def _coefficients(geometry, omega: float):
    """Return (rs_rp, z_offset, on_path, cut): the reflection
    coefficients, the depth of the plane they image, the route, and the
    branch cut the path must add.

    on_path True: rs_rp takes the complex vacuum wavenumber beta on the
    steepest-descent path Re beta = k0. False: rs_rp takes the real
    transverse wavenumber q of the real-axis route.

    cut is None, or (b0, jump) where _branch_point finds b0. Turning the
    cut to run up from b0, beta = b0 + i t, flips beta1 on the path above
    t = Re b0 Im b0 / k0 and adds the integral of jump(t): (r_s, r_p) at
    beta1 = s minus (r_s, r_p) at -s, where s = sqrt(t (2i b0 - t)).

    The ideal eps = mu = -1 slab of the perfect lens images its mirror to
    the focal plane (Pendry, PRL 85, 3966 (2000)): its coefficients
    -+exp(-2i beta d) are the ideal mirror's (-1, +1) seen from
    z_A - d, so it returns those constants with z_offset = thickness.
    """
    if isinstance(geometry, PerfectLens):
        def mirror(beta):
            ones = np.ones_like(beta, dtype=complex)
            return -ones, ones

        return mirror, geometry.thickness, True, None

    if isinstance(geometry, HalfSpace):
        material = geometry.material
        b0 = _branch_point(material, omega)
        flip_above = math.inf if b0 is None else b0.real * b0.imag / omega

        def on_path(beta):
            beta1 = beta1_of_beta(beta, omega, material)
            if b0 is not None:
                beta1 = np.where(beta.imag > flip_above, -beta1, beta1)
            return halfspace_rs_rp(beta, beta1, material)

        def jump(t):
            s = _passive_sqrt(t * (2j * b0 - t))
            r_s, r_p = halfspace_rs_rp(b0 + 1j * t, np.stack((s, -s)), material)
            return r_s[0] - r_s[1], r_p[0] - r_p[1]

        return on_path, 0.0, True, None if b0 is None else (b0, jump)

    if isinstance(geometry, SlabWithMirror):
        material = geometry.material
        d = geometry.thickness

        def rs_rp(q):
            beta = vacuum_beta(q, omega)
            beta1 = medium_beta1(q, omega, material)
            return slab_mirror_rs_rp(beta, beta1, material, d)

        return rs_rp, 0.0, False, None

    raise TypeError(f"unsupported geometry {geometry!r}")


def _small_ladder(k0: float, z_decay: float) -> tuple[float, ...]:
    """Panel edges k0/8, k0/4, k0/2, ... below the first uniform edge.

    The uniform panels of integrate_evanescent are 1/(2 z_decay) wide,
    which at small z_decay puts all of the coefficients' structure at
    kappa ~ k0 (or t ~ k0 on the path) into the first panel; halving it
    toward 0 would take one refinement round per octave.
    """
    edges = []
    kappa = k0 / 8.0
    while kappa < 0.5 / z_decay:
        edges.append(kappa)
        kappa *= 2.0
    return tuple(edges)


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
    rs_rp, z_offset, on_path, cut = _coefficients(geometry, omega)
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
        if cut is not None:
            b0, jump = cut
            cut_phase = cmath.exp(2j * (b0 - k0) * z_image)
            # The jump grows like s ~ sqrt(t) from t = 0: grade the first
            # panel toward it, down to 8^-4 of its width.
            first = min(k0 / 8.0, 0.5 / z_image)
            ladder += tuple(first / 8.0 ** k for k in range(1, 5))

        def path(t):
            # beta = k0 + i t; the engine applies the decay exp(-2 t z_image).
            beta = k0 + 1j * t
            out = rows(*rs_rp(beta), (beta / k0) ** 2, k0 * k0 - beta * beta)
            if cut is None:
                return out
            # The cut's beta = b0 + i t has the same decay, and its phase
            # relative to exp(2i k0 z_image) has modulus <= 1.
            beta = b0 + 1j * t
            return out + cut_phase * rows(*jump(t), (beta / k0) ** 2,
                                          k0 * k0 - beta * beta)

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

        # Initial panels a quarter period of the slab's fastest phase wide.
        res_p = integrate_propagating(
            prop, k0, rel_tol,
            max_panel_width=math.pi / (4.0 * (z_image + geometry.thickness)))
        res_e = integrate_evanescent(evan, z_image, rel_tol, breakpoints=ladder)
        value = (1j / (8.0 * math.pi)) * res_p.value + (1.0 / (8.0 * math.pi)) * res_e.value
        error = (res_p.error_estimate + res_e.error_estimate) / (8.0 * math.pi)
        evaluations = res_p.evaluations + res_e.evaluations
    parts = [(complex(v), float(e)) for v, e in zip(value, error)]
    g_xx, error_xx = parts.pop(0) if xx else (None, None)
    g_zz, error_zz = parts.pop(0) if zz else (None, None)
    return GreenComponents(g_xx=g_xx, g_zz=g_zz, omega=omega, z_A=z_A,
                           error_xx=error_xx, error_zz=error_zz,
                           evaluations=evaluations)
