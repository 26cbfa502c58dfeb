# tests/oracle.py
"""Independent dense-grid reference for the scattered Green components.

Composite Simpson on uniform wavenumber grids — no adaptivity and no code
shared with the library: from planarcp it takes only the geometry
classes, and its wavenumbers and reflection coefficients are the
textbook formulas below, so a fault in the library's dispersion cannot
pass unseen.

Intentionally slow and simple: correctness of the production engine is
argued by agreement with this, not the other way round.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad_vec, simpson

from planarcp.core import HalfSpace, PerfectLens, SlabWithMirror


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


def _upper_sqrt(w, sign=1.0):
    """sqrt(w) with Im >= 0; a real positive w takes the root of sign's sign."""
    r = np.sqrt(np.asarray(w, dtype=complex))
    return np.where((r.imag < 0.0) | ((r.imag == 0.0) & (sign < 0.0)), -r, r)


def _reflections(geometry, q, omega):
    """(r_s, r_p) arrays for transverse wavenumbers q (c = 1).

    beta = sqrt(omega^2 - q^2) and beta1 = sqrt(eps mu omega^2 - q^2),
    Im >= 0: the waves decay away from the surface. A lossless medium's
    real beta1 is the limit of a small loss i delta in eps and mu, which
    moves Im(eps mu) by delta (Re eps + Re mu): negative for
    Re eps + Re mu < 0. A half space reflects
    r = (a beta - beta1)/(a beta + beta1), a = mu for s and eps for p. A
    slab of thickness d on a perfect mirror, which reflects m = -1 (s)
    and m = +1 (p), adds the round trip e = exp(2i beta1 d): its
    coefficient is (r + m e)/(1 + r m e) with the half space's r, taken
    here with numerator and denominator times a beta + beta1.
    """
    q2 = np.asarray(q, dtype=float) ** 2
    beta = _upper_sqrt(omega * omega - q2)
    if isinstance(geometry, PerfectLens):
        # The closed coefficients of the lossless eps = mu = -1 slab.
        phase = np.exp(-2j * beta * geometry.thickness)
        return -phase, phase
    if not isinstance(geometry, (HalfSpace, SlabWithMirror)):
        raise TypeError(f"unsupported geometry {geometry!r}")
    eps, mu = geometry.material.epsilon, geometry.material.mu
    lossless = eps.imag == 0.0 and mu.imag == 0.0
    beta1 = _upper_sqrt(eps * mu * omega * omega - q2,
                        -1.0 if lossless and eps.real + mu.real < 0.0 else 1.0)
    out = []
    for a, m in ((mu, -1.0), (eps, 1.0)):
        minus, plus = a * beta - beta1, a * beta + beta1
        if isinstance(geometry, SlabWithMirror):
            e = m * np.exp(2j * beta1 * geometry.thickness)
            minus, plus = minus + plus * e, plus + minus * e
        out.append(minus / plus)
    return out


def _simpson_sectors(z_A: float, omega: float, geometry, spec: OracleSpec):
    """(g, roundoff): g = [g_xx, g_zz] by composite Simpson in normalized
    units (c = 1), and the rounding scale sqrt(n) eps_mach sum |w_i f_i|
    of the two sectors' sums, per component.

    Same variable split as the production engine's real-axis route (that
    split is forced by the endpoint singularity, not a design choice): a
    beta integral over the propagating sector and a kappa integral over
    the evanescent one, the latter truncated where exp(-2 kappa z_decay)
    reaches 1e-16 times a safety factor.
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
    f_p = jac * phase * np.array([r_s - (beta / k0) ** 2 * r_p,
                                  2.0 * ((q / k0) ** 2) * r_p])

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
    f_e = decay * np.array([r_s + (kappa / k0) ** 2 * r_p,
                            2.0 * ((kappa * kappa + k0 * k0) / (k0 * k0)) * r_p])

    g = (1j * simpson(f_p, x=theta) + simpson(f_e, x=kappa)) / (8.0 * math.pi)
    # Simpson's weights are positive, so sum |w_i f_i| is the rule applied
    # to |f|; summing n terms rounds like a random walk of sqrt(n) steps.
    # A phase exp(2i beta z_A) of 2 z_A k0 radians makes the propagating
    # sum cancel by up to that factor, which its n-vs-n/2 difference
    # cannot see.
    magnitude = simpson(np.abs(f_p), x=theta) + simpson(np.abs(f_e), x=kappa)
    roundoff = math.sqrt(n) * np.finfo(float).eps * magnitude / (8.0 * math.pi)
    return g, roundoff


def simpson_green(z_A: float, omega: float, geometry,
                  spec: OracleSpec = DEFAULT_ORACLE):
    """(g_xx, g_zz) by composite Simpson in normalized units (c = 1)."""
    (g_xx, g_zz), _ = _simpson_sectors(z_A, omega, geometry, spec)
    return g_xx, g_zz


def simpson_green_with_error(z_A: float, omega: float, geometry,
                             spec: OracleSpec = DEFAULT_ORACLE):
    """(g_xx, g_zz, err_xx, err_zz): values plus the reference's own
    error: the resolution error, estimated by comparing against a
    half-resolution grid, plus the round-off of the full grid's sums.
    Needed because in-medium branch-point kinks degrade the uniform grid
    at small z_A, and because at large z_A the sums of a million
    oscillating terms round at 1e-18 to 1e-16, far above the engine's
    error there; without this bound the reference's error would be billed
    to the adaptive engine in cross-checks.
    """
    g, roundoff = _simpson_sectors(z_A, omega, geometry, spec)
    half = OracleSpec(nodes=max(spec.nodes // 2, 1000),
                      kappa_max_factor=spec.kappa_max_factor)
    h, _ = _simpson_sectors(z_A, omega, geometry, half)
    err = np.abs(g - h) + roundoff
    return g[0], g[1], err[0], err[1]


def quad_vec_green(z_A: float, omega: float, geometry, rel_tol: float = 1e-12):
    """(g_xx, g_zz, error) from scipy's adaptive quad_vec (c = 1).

    An adaptive reference that shares no panel layout with the engine:
    GK21 panels chosen by QUADPACK's own rules, the evanescent sector on
    (0, inf) through scipy's change of variables, and the propagating one
    in the same beta = k0 sin(theta) variable as simpson_green. The
    perfect lens is integrated as its closed coefficients with the decay
    folded in, as in simpson_green. error bounds both components.
    """
    k0 = omega
    lens = isinstance(geometry, PerfectLens)
    z_decay = z_A - geometry.thickness if lens else z_A

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
        r_s, r_p = (-1.0, 1.0) if lens else _reflections(geometry, q, omega)
        return parts(math.exp(-2.0 * kappa * z_decay)
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
