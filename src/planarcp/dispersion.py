# src/planarcp/dispersion.py
"""Longitudinal wavenumbers and reflection coefficients for planar media.

Every function accepts scalars or numpy arrays. The Green module passes
the complex vacuum wavenumber beta = k0 + i t of the steepest-descent
path to beta1_of_beta, which continues the in-medium wavenumber
analytically off the real q axis; vacuum_beta and medium_beta1 give both
on the real q axis itself. The reflection coefficients take the pair,
and a half space's branch cut takes them at beta1 = +-sqrt(beta^2 - b0^2).
Natural units (c = 1): the vacuum wavenumber is k0 = omega.
"""

from __future__ import annotations

import numpy as np

from .core import DegenerateDenominator, MaterialResponse

DEGENERATE_REL_TOL = 1e-30
# (x cos x - sin x)/x^3 = sum_j (-1)^(j+1) 2(j+1)/(2j+3)! x^2j for j = 6, 5, ..., 0;
# the first term left out is below 1e-17 of the sum for |x| < 1/2.
_SLOPE_SERIES = (-1 / 93405312000, 1 / 518918400, -1 / 3991680, 1 / 45360, -1 / 840, 1 / 30, -1 / 3)


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
    flip = r.imag < 0.0
    if i0_sign < 0.0:
        flip |= (w.imag == 0.0) & (w.real > 0.0)
    return np.where(flip, -r, r) if flip.any() else np.asarray(r)


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


def beta1_of_beta(beta, omega, material: MaterialResponse):
    """In-medium wavenumber sqrt(beta^2 + (eps mu - 1) omega^2), Im >= 0,
    as a function of the vacuum one.

    For beta with Im beta >= 0 (the real-q axis and the path
    Re beta = omega) this is medium_beta1 continued off the real q axis,
    with the same i0+ choice for a real radicand. Where that root is beta
    itself (eps mu = 1 with a positive i0+ direction, vacuum among them)
    it returns beta bit for bit: sqrt(beta^2) rounds, which would leave
    the vacuum a nonzero r_s of order 1e-16.
    """
    beta = np.asarray(beta, dtype=complex)
    shift = (material.epsilon * material.mu - 1.0) * omega ** 2
    i0_sign = _i0_sign(material)
    if material.epsilon * material.mu != 1.0 or i0_sign < 0.0:
        return _passive_sqrt(beta * beta + shift, i0_sign)
    return beta


def _ratio(num, den, what: tuple[str, str]):
    """num / den of stacked (s, p) rows, raising DegenerateDenominator,
    which names the rows what[i] concerned, where |den| is below
    DEGENERATE_REL_TOL of |num| (0/0 stays nan and is not flagged)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        r = num / den
    size = np.abs(r)
    # fmax, as >= does, passes over a nan.
    if np.fmax.reduce(size, axis=None, initial=0.0) >= 1.0 / DEGENERATE_REL_TOL:
        near = (size >= 1.0 / DEGENERATE_REL_TOL).reshape(2, -1).any(axis=-1)
        which = " and ".join(w for w, hit in zip(what, near) if hit)
        raise DegenerateDenominator(f"{which} denominator within {DEGENERATE_REL_TOL} of zero "
                                    "(surface or guided mode, or an amplified wave out of range)")
    return r


def _fresnel(material: MaterialResponse, beta, beta1):
    """a beta - beta1 and a beta + beta1, with a = mu and a = eps stacked first."""
    a_beta = np.array((material.mu, material.epsilon),
                      ndmin=max(np.ndim(beta), np.ndim(beta1)) + 1).T * beta
    return a_beta - beta1, a_beta + beta1


def halfspace_rs_rp(beta, beta1, material: MaterialResponse):
    """Half-space Fresnel coefficients r_s and r_p from the wavenumbers,
    stacked on a first axis of 2."""
    return _ratio(*_fresnel(material, beta, beta1), ("r_s", "r_p"))


def slab_mirror_rs_rp(beta, beta1, material: MaterialResponse, thickness: float):
    """Reflection coefficients r_s and r_p of a slab backed by a perfect
    mirror, stacked on a first axis of 2.

    On the Im beta1 > 0 branch |exp(2i beta1 d)| <= 1, so the phase
    factor never overflows.
    """
    phase = np.exp(2j * np.asarray(beta1, dtype=complex) * thickness)
    minus, plus = _fresnel(material, beta, beta1)
    # r_s subtracts what r_p adds; x - y is x + (-y) bit for bit.
    num, den = plus * phase, minus * phase
    num[0], den[0] = -num[0], -den[0]
    return _ratio(minus + num, plus + den, ("slab r_s", "slab r_p"))


def slab_mirror_denominators(beta, omega, material: MaterialResponse,
                             thickness: float, slopes: bool = False):
    """D_s, D_p and beta1 of a mirror-backed slab, stacked; with slopes,
    then D_s', D_p' and the numerators of r_s = N_s/D_s and r_p = N_p/D_p.

    The slab's (r_s, r_p) have the poles of the entire functions
    D_s = C - i mu beta S and D_p = eps beta C - i beta1^2 S, C = cos(beta1 d),
    S = sin(beta1 d)/beta1, even in beta1; N_s = D_s - 2C, N_p = 2 eps beta C - D_p.
    All come times exp(-|Im beta1| d) > 0: that keeps their phase and
    stops the overflow. For eps mu = 1, D_p and N_p come divided by
    beta = beta1, whose zero cancels in r_p.
    """
    eps, mu, d = material.epsilon, material.mu, thickness
    beta = np.asarray(beta, dtype=complex)
    w2 = beta * beta + (eps * mu - 1.0) * omega ** 2
    w = _passive_sqrt(w2)
    turn, em1 = np.exp(w.real * (-1j * d)), np.expm1(w * (2j * d))
    cos = turn * (1.0 + 0.5 * em1)
    sinc = np.divide(turn * em1, 2j * w, out=np.full_like(w, d), where=w != 0.0)
    unit, d_s = eps * mu == 1.0, cos - 1j * mu * beta * sinc
    d_p = eps * cos - 1j * beta * sinc if unit else eps * beta * cos - 1j * w2 * sinc
    if not slopes:
        return np.array((d_s, d_p, w))
    # S' = beta (d C - S)/beta1^2 = beta d^3 (x cos x - sin x)/x^3, x = beta1 d.
    # The difference loses about 2 log10(1/|x|) digits; below |x| = 1/2 the
    # series replaces it. q = (eps C - i beta S)'.
    big = abs(w2 * (d * d)) >= 0.25
    ds = np.divide(beta * (d * cos - sinc), w2, out=np.empty_like(w), where=big)
    if not big.all():
        series = np.polyval(_SLOPE_SERIES, np.where(big, 0.0, w2 * (d * d)))
        ds = np.where(big, ds, beta * d ** 3 * np.exp(-d * w.imag) * series)
    q = -eps * d * beta * sinc - 1j * d * cos
    return np.array((d_s, d_p, w, -d * beta * sinc - 1j * mu * (sinc + beta * ds),
                     q if unit else eps * cos - 1j * beta * sinc + beta * q, d_s - 2.0 * cos,
                     2.0 * eps * (cos if unit else beta * cos) - d_p))
