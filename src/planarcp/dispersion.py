# src/planarcp/dispersion.py
"""Longitudinal wavenumbers and reflection coefficients for planar media.

All low-level helpers accept scalars or numpy arrays of the transverse
wavenumber q; the typed wrappers (wave_numbers, reflect_*) operate on
scalars and return frozen value objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .core import DegenerateDenominator, MaterialResponse

DEGENERATE_REL_TOL = 1e-30

Regime = Literal["propagating", "evanescent", "grazing"]


@dataclass(frozen=True)
class WaveNumbers:
    """Longitudinal wavenumbers at fixed transverse wavenumber q.

    beta is the vacuum value, beta1 the in-medium value, both on the
    passive branch (Im beta1 > 0, fixed by the i0+ limit for lossless
    media).
    """

    q: float
    omega: float
    beta: complex
    beta1: complex
    regime: Regime


@dataclass(frozen=True)
class ReflectionPair:
    r_s: complex
    r_p: complex


def _i0_sign(material: MaterialResponse) -> float:
    """Direction in which Im(eps*mu) moves when infinitesimal loss is added.

    Only consulted when the in-medium radicand is exactly real. Adding
    equal loss i*delta to eps and mu shifts Im(eps*mu) by
    delta*(Re eps + Re mu); a real positive radicand then requires
    Re eps + Re mu != 0, so the sign is well defined there.
    """
    eps, mu = material.epsilon, material.mu
    if eps.imag == 0.0 and mu.imag == 0.0:
        return 1.0 if (eps.real + mu.real) >= 0.0 else -1.0
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


def vacuum_beta(q, omega, c=1.0):
    """Vacuum longitudinal wavenumber sqrt(omega^2/c^2 - q^2), Im >= 0."""
    q = np.asarray(q, dtype=float)
    w = (omega / c) ** 2 - q * q
    return _passive_sqrt(w)


def medium_beta1(q, omega, material: MaterialResponse, c=1.0):
    """In-medium longitudinal wavenumber on the Im beta1 > 0 branch."""
    q = np.asarray(q, dtype=float)
    w = material.epsilon * material.mu * (omega / c) ** 2 - q * q
    return _passive_sqrt(w, _i0_sign(material))


def wave_numbers(q: float, omega: float, material: MaterialResponse,
                 c: float = 1.0) -> WaveNumbers:
    """Both longitudinal wavenumbers with their branch certificate."""
    if q < 0.0:
        raise ValueError(f"q must be non-negative, got {q}")
    if omega <= 0.0:
        raise ValueError(f"omega must be positive, got {omega}")
    k0 = omega / c
    if q < k0:
        regime: Regime = "propagating"
    elif q > k0:
        regime = "evanescent"
    else:
        regime = "grazing"
    return WaveNumbers(
        q=float(q),
        omega=float(omega),
        beta=complex(vacuum_beta(q, omega, c)),
        beta1=complex(medium_beta1(q, omega, material, c)),
        regime=regime,
    )


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


def perfect_lens_rs_rp(beta, thickness: float):
    """Closed coefficients of the lossless eps = mu = -1 mirror-backed slab.

    r_s = -r_p = -exp(-2i beta d). In the evanescent sector (beta = i kappa)
    these grow like exp(2 kappa d); convergence of the Green integral then
    requires z_A > d, which the green module enforces.
    """
    phase = np.exp(-2j * np.asarray(beta, dtype=complex) * thickness)
    return -phase, phase


def reflect_halfspace(wn: WaveNumbers, material: MaterialResponse) -> ReflectionPair:
    r_s, r_p = halfspace_rs_rp(wn.beta, wn.beta1, material)
    return ReflectionPair(r_s=complex(r_s), r_p=complex(r_p))


def reflect_slab_mirror(wn: WaveNumbers, material: MaterialResponse,
                        thickness: float) -> ReflectionPair:
    if thickness <= 0.0:
        raise ValueError(f"thickness must be positive, got {thickness}")
    r_s, r_p = slab_mirror_rs_rp(wn.beta, wn.beta1, material, thickness)
    return ReflectionPair(r_s=complex(r_s), r_p=complex(r_p))


def reflect_perfect_lens(wn: WaveNumbers, thickness: float) -> ReflectionPair:
    if thickness <= 0.0:
        raise ValueError(f"thickness must be positive, got {thickness}")
    r_s, r_p = perfect_lens_rs_rp(wn.beta, thickness)
    return ReflectionPair(r_s=complex(r_s), r_p=complex(r_p))
