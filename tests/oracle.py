# tests/oracle.py
"""Independent dense-grid reference for the scattered Green components.

Composite Simpson on uniform wavenumber grids — no adaptivity, no shared
machinery with the production quadrature or green modules. Only the
dispersion module (wavenumbers and reflection coefficients) is reused,
since both sides must agree on the physics being integrated.

Intentionally slow and simple: correctness of the production engine is
argued by agreement with this, not the other way round.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad_vec, simpson

from planarcp.core import HalfSpace, PerfectLens, SlabWithMirror
from planarcp.dispersion import (halfspace_rs_rp, medium_beta1,
                                 slab_mirror_rs_rp, vacuum_beta)


@dataclass(frozen=True)
class OracleSpec:
    """Grid resolution of the reference integrator."""

    nodes: int = 1_000_000
    kappa_max_factor: float = 4.0

    def __post_init__(self):
        if self.nodes < 1_000:
            raise ValueError("oracle needs at least 10^3 nodes")
        if self.kappa_max_factor <= 0.0:
            raise ValueError("kappa_max_factor must be positive")


DEFAULT_ORACLE = OracleSpec()


def _reflections(geometry, q, omega):
    """(r_s, r_p) arrays for transverse wavenumbers q (c = 1)."""
    beta = vacuum_beta(q, omega)
    if isinstance(geometry, HalfSpace):
        beta1 = medium_beta1(q, omega, geometry.material)
        return halfspace_rs_rp(beta, beta1, geometry.material)
    if isinstance(geometry, SlabWithMirror):
        beta1 = medium_beta1(q, omega, geometry.material)
        return slab_mirror_rs_rp(beta, beta1, geometry.material,
                                 geometry.thickness)
    if isinstance(geometry, PerfectLens):
        # The closed coefficients of the lossless eps = mu = -1 slab.
        phase = np.exp(-2j * beta * geometry.thickness)
        return -phase, phase
    raise TypeError(f"unsupported geometry {geometry!r}")


def simpson_green(z_A: float, omega: float, geometry,
                  spec: OracleSpec = DEFAULT_ORACLE):
    """(g_xx, g_zz) by composite Simpson in normalized units (c = 1).

    Same variable split as the production engine (that split is forced by
    the endpoint singularity, not a design choice): a beta integral over
    the propagating sector and a kappa integral over the evanescent one,
    the latter truncated where exp(-2 kappa z_decay) reaches 1e-16 times
    a safety factor.
    """
    k0 = omega  # c = 1
    z_decay = z_A - (geometry.thickness
                     if isinstance(geometry, PerfectLens) else 0.0)
    if z_decay <= 0.0:
        raise ValueError("need z_A > image depth for a convergent integral")

    n = spec.nodes // 2
    # Propagating sector, parameterized as beta = k0 sin(theta) so the
    # square-root cusp of q(beta) at beta = k0 disappears and Simpson
    # regains its full order. theta = 0 is the grazing point beta = 0,
    # where the coefficients are finite for any material with
    # eps * mu != 1 (the suite never feeds the oracle vacuum).
    theta = np.linspace(0.0, 0.5 * math.pi, n)
    beta = k0 * np.sin(theta)
    jac = k0 * np.cos(theta)  # dbeta/dtheta
    q = k0 * np.cos(theta)
    r_s, r_p = _reflections(geometry, q, omega)
    phase = np.exp(2j * beta * z_A)
    fxx_p = jac * phase * (r_s - (beta / k0) ** 2 * r_p)
    fzz_p = jac * phase * 2.0 * ((q / k0) ** 2) * r_p
    ixx_p = simpson(fxx_p, x=theta)
    izz_p = simpson(fzz_p, x=theta)

    # Evanescent sector: kappa in (0, kappa_max].
    kappa_max = spec.kappa_max_factor * (-math.log(1e-16)) / (2.0 * z_decay)
    kappa = np.linspace(0.0, kappa_max, n)
    q = np.sqrt(kappa * kappa + k0 * k0)
    if isinstance(geometry, PerfectLens):
        # The raw lens coefficients -+exp(2 kappa d) overflow for thick
        # slabs; fold the decay in analytically instead.
        damped = np.exp(-2.0 * kappa * z_decay)
        r_s, r_p = -damped, damped
        decay = 1.0
    else:
        r_s, r_p = _reflections(geometry, q, omega)
        decay = np.exp(-2.0 * kappa * z_A)
    fxx_e = decay * (r_s + (kappa / k0) ** 2 * r_p)
    fzz_e = decay * 2.0 * ((kappa * kappa + k0 * k0) / (k0 * k0)) * r_p
    ixx_e = simpson(fxx_e, x=kappa)
    izz_e = simpson(fzz_e, x=kappa)

    g_xx = (1j * ixx_p + ixx_e) / (8.0 * math.pi)
    g_zz = (1j * izz_p + izz_e) / (8.0 * math.pi)
    return g_xx, g_zz


def simpson_green_with_error(z_A: float, omega: float, geometry,
                             spec: OracleSpec = DEFAULT_ORACLE):
    """(g_xx, g_zz, err_xx, err_zz): values plus the reference's own
    resolution error, estimated by comparing against a half-resolution
    grid. Needed because in-medium branch-point kinks degrade the uniform
    grid at small z_A; without this bound the reference's error would be
    billed to the adaptive engine in cross-checks.
    """
    g_xx, g_zz = simpson_green(z_A, omega, geometry, spec)
    half = OracleSpec(nodes=max(spec.nodes // 2, 1000),
                      kappa_max_factor=spec.kappa_max_factor)
    h_xx, h_zz = simpson_green(z_A, omega, geometry, half)
    return g_xx, g_zz, abs(g_xx - h_xx), abs(g_zz - h_zz)


def quad_vec_green(z_A: float, omega: float, geometry, rel_tol: float = 1e-12):
    """(g_xx, g_zz, error) from scipy's adaptive quad_vec (c = 1).

    An adaptive reference that shares no panel layout with the engine:
    GK21 panels chosen by QUADPACK's own rules, the evanescent sector on
    (0, inf) through scipy's change of variables, and the propagating one
    in the same beta = k0 sin(theta) variable as simpson_green. Half
    spaces and mirror-backed slabs only. error bounds both components.
    """
    k0 = omega

    def parts(v):
        return np.concatenate((v.real, v.imag))

    def prop(theta):
        beta, q = k0 * math.sin(theta), k0 * math.cos(theta)
        r_s, r_p = _reflections(geometry, q, omega)
        return parts(q * np.exp(2j * beta * z_A)
                     * np.array([r_s - (beta / k0) ** 2 * r_p,
                                 2.0 * (q / k0) ** 2 * r_p]))

    def evan(kappa):
        q = math.sqrt(kappa * kappa + k0 * k0)
        r_s, r_p = _reflections(geometry, q, omega)
        return parts(math.exp(-2.0 * kappa * z_A)
                     * np.array([r_s + (kappa / k0) ** 2 * r_p,
                                 2.0 * (q / k0) ** 2 * r_p]))

    ip, err_p = quad_vec(prop, 0.0, 0.5 * math.pi, epsrel=rel_tol, norm="max")
    ie, err_e = quad_vec(evan, 0.0, math.inf, epsrel=rel_tol, norm="max")
    g_xx, g_zz = (1j * (ip[:2] + 1j * ip[2:]) + ie[:2] + 1j * ie[2:]) / (8.0 * math.pi)
    return complex(g_xx), complex(g_zz), (err_p + err_e) / (8.0 * math.pi)


def simpson_potential(z_A: float, omega: float, geometry, d_par_sq: float,
                      d_perp_sq: float, spec: OracleSpec = DEFAULT_ORACLE) -> float:
    """Single-transition resonant potential from the Simpson reference."""
    g_xx, g_zz = simpson_green(z_A, omega, geometry, spec)
    return -omega**2 * (g_xx.real * d_par_sq + g_zz.real * d_perp_sq)
