# src/planarcp/dispersion.py
"""Longitudinal wavenumbers and reflection coefficients for planar media.

Every function accepts scalars or numpy arrays of the transverse
wavenumber q (or of the wavenumbers computed from it). Natural units
(c = 1): the vacuum wavenumber is k0 = omega.
"""

from __future__ import annotations

import numpy as np

from .core import DegenerateDenominator, MaterialResponse

DEGENERATE_REL_TOL = 1e-30


def _i0_sign(material: MaterialResponse) -> float:
    """Direction in which Im(eps*mu) moves when infinitesimal loss is added.

    Only consulted when the in-medium radicand is exactly real. Adding
    equal loss i*delta to eps and mu shifts Im(eps*mu) by
    delta*(Re eps + Re mu); a real positive radicand then requires
    Re eps + Re mu != 0, so the sign is well defined there.
    """
    if material.is_lossless:
        return 1.0 if (material.epsilon.real + material.mu.real) >= 0.0 else -1.0
    return 1.0


def _passive_sqrt(w, i0_sign=1.0):
    """Square root with Im >= 0, using the i0+ limit for real radicands.

    For complex w the principal root is flipped onto the upper half
    plane. For exactly real positive w the sign of the (real) root
    follows i0_sign; for real negative w the root is +i*sqrt(|w|).
    """
    w = np.asarray(w, dtype=complex)
    r = np.sqrt(w)
    r = np.where(r.imag < 0.0, -r, r)
    if i0_sign < 0.0:
        real_pos = (w.imag == 0.0) & (w.real > 0.0)
        r = np.where(real_pos, -r, r)
    return r[()] if r.ndim == 0 else r


def vacuum_beta(q, omega):
    """Vacuum longitudinal wavenumber sqrt(omega^2 - q^2), Im >= 0."""
    q = np.asarray(q, dtype=float)
    w = omega ** 2 - q * q
    return _passive_sqrt(w)


def medium_beta1(q, omega, material: MaterialResponse):
    """In-medium longitudinal wavenumber sqrt(eps mu omega^2 - q^2) on the
    Im beta1 > 0 branch."""
    q = np.asarray(q, dtype=float)
    w = material.epsilon * material.mu * omega ** 2 - q * q
    return _passive_sqrt(w, _i0_sign(material))


def _ratio(num, den, what: str):
    """num / den, raising DegenerateDenominator where |den| is below
    DEGENERATE_REL_TOL of |num| (0/0 stays nan and is not flagged)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.divide(num, den)
    if np.any(np.abs(r) >= 1.0 / DEGENERATE_REL_TOL):
        raise DegenerateDenominator(
            f"{what} denominator within {DEGENERATE_REL_TOL} of zero "
            "(real-axis surface or guided mode; lossless input)")
    return r


def halfspace_rs_rp(beta, beta1, material: MaterialResponse):
    """Half-space Fresnel coefficients (r_s, r_p) from the wavenumbers."""
    eps, mu = material.epsilon, material.mu
    return (_ratio(mu * beta - beta1, mu * beta + beta1, "r_s"),
            _ratio(eps * beta - beta1, eps * beta + beta1, "r_p"))


def slab_mirror_rs_rp(beta, beta1, material: MaterialResponse, thickness: float):
    """Reflection coefficients of a slab backed by a perfect mirror.

    On the Im beta1 > 0 branch |exp(2i beta1 d)| <= 1, so the phase
    factor never overflows.
    """
    eps, mu = material.epsilon, material.mu
    phase = np.exp(2j * np.asarray(beta1, dtype=complex) * thickness)
    num_s = mu * beta - beta1 - (mu * beta + beta1) * phase
    den_s = mu * beta + beta1 - (mu * beta - beta1) * phase
    num_p = eps * beta - beta1 + (eps * beta + beta1) * phase
    den_p = eps * beta + beta1 + (eps * beta - beta1) * phase
    return _ratio(num_s, den_s, "slab r_s"), _ratio(num_p, den_p, "slab r_p")

