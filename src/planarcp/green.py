# src/planarcp/green.py
"""Scattering Green tensor components G_xx and G_zz at the atom's position.

For a planar structure the scattered tensor is diagonal with
G_yy = G_xx; both diagonal entries are integrals of a reflection
coefficient times the round-trip phase exp(2i beta z) along the contour
beta: i inf -> 0 -> k0. z is the atom's distance from the mirror plane:
z_A, or z_A - d for the perfect lens, which images its mirror to the
focal plane. Cauchy's theorem moves the contour onto the steepest-descent
path beta = k0 + i t, where G = exp(2i k0 z)/(8 pi) int_0^inf R(t)
exp(-2 t z) dt is one decaying, non-oscillating integral (Paulus,
Gay-Balmaz & Martin, PRE 62, 5797 (2000); Michalski & Mosig, IEEE TAP 45,
508 (1997)). What the move sweeps across in the strip 0 < Re beta < k0
is added: a half space's branch cut, turned to run up from its branch
point, with the same decay in the same integrand (no surface-mode pole of
10^5 random passive half spaces lies in the strip on the path's sheet);
and -(1/4) Res F, F = exp(2i beta z) R, at each pole of a mirror-backed
slab, whose coefficients are even in beta1 and so have no cut; one walk
per slab and set of transitions counts those poles for all transitions.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import (DegenerateDenominator, DomainError, Geometry, HalfSpace,
                   MaterialResponse, NotConverged, PerfectLens,
                   SlabWithMirror, require_distance)
# vacuum_beta, medium_beta1 and integrate_propagating are not called here;
# bench/tracing.py hooks them under these names.
from .dispersion import (_i0_sign, _passive_sqrt, beta1_of_beta,  # noqa: F401
                         halfspace_rs_rp, medium_beta1, slab_mirror_rs_rp,
                         slab_mirror_denominators, vacuum_beta)
from .quadrature import (_ROUNDOFF, REL_TOL, integrate_evanescent,  # noqa: F401
                         integrate_propagating)


@dataclass(frozen=True)
class GreenComponents:
    """Diagonal scattered Green components at coincident points.

    G_yy equals G_xx by the planar symmetry and is not stored separately;
    off-diagonal components vanish identically. A component that was not
    asked for is None, and so is its error. For an array of transition
    frequencies each field is an array over them; evaluations counts the
    path nodes, which all transitions share, once.
    """

    g_xx: complex | np.ndarray | None
    g_zz: complex | np.ndarray | None
    error_xx: float | np.ndarray | None
    error_zz: float | np.ndarray | None
    evaluations: int = 0

    @property
    def error_estimate(self) -> float | np.ndarray:
        return np.max([e for e in (self.error_xx, self.error_zz) if e is not None], axis=0)


def _branch_point(material: MaterialResponse, k0):
    """The branch point b0 = k0 sqrt(1 - eps mu), Im b0 >= 0, of a half
    space's beta1 if its cut crosses the path Re beta = k0, else None.

    beta1 = sqrt(beta^2 - b0^2), Im >= 0, changes sign where beta^2 - b0^2
    is real and positive: nowhere in the strip if Im(eps mu) > 0 or in
    its limit (real eps mu, positive i0+ direction); otherwise along
    Re beta Im beta = Re b0 Im b0 from b0 to Re beta -> inf, which meets
    the path if Re b0 < k0. That holds for every k0 or for none, so k0
    may be an array of transition frequencies.
    """
    eps_mu = material.epsilon * material.mu
    if eps_mu.imag > 0.0 or (eps_mu.imag == 0.0 and _i0_sign(material) > 0.0):
        return None
    root = complex(_passive_sqrt(1.0 - eps_mu))
    return k0 * root if root.real < 1.0 else None


def _coefficients(geometry, k0):
    """Return (rs_rp, z_offset, cut, poles): the reflection coefficients
    of the complex vacuum wavenumber beta, the depth of the plane they
    image, and what the path must add: poles is None or, per transition,
    a slab's _strip_poles, and cut is None or a half space's (b0, jump).

    k0 is a transition frequency or a column of them, against which
    rs_rp, b0 and jump broadcast. b0 is what _branch_point finds. Turning
    the cut to run up from b0, beta = b0 + i t, flips beta1 on the path
    above t = Re b0 Im b0 / k0 and adds the integral of jump(b0 + i t, t): each
    r = (a beta - beta1)/(a beta + beta1), a = mu or eps, at beta1 = s minus
    at -s, s^2 = beta^2 - b0^2 = t (2i b0 - t): -4 a beta s / (a^2 beta^2 - s^2).

    The ideal eps = mu = -1 slab of the perfect lens images its mirror to
    the focal plane (Pendry, PRL 85, 3966 (2000)): its coefficients
    -+exp(-2i beta d) are the ideal mirror's (-1, +1) seen from
    z_A - d, so it returns those constants with z_offset = thickness.
    """
    if isinstance(geometry, PerfectLens):
        def mirror(beta):
            ones = np.ones_like(beta, dtype=complex)
            return np.stack((-ones, ones))

        return mirror, geometry.thickness, None, None

    if isinstance(geometry, HalfSpace):
        material = geometry.material
        b0 = _branch_point(material, k0)
        flip_above = math.inf if b0 is None else b0.real * b0.imag / k0

        def half_space(beta):
            beta1 = beta1_of_beta(beta, k0, material)
            if b0 is not None:
                beta1 = np.where(beta.imag > flip_above, -beta1, beta1)
            return halfspace_rs_rp(beta, beta1, material)

        def jump(beta, t):
            s2 = t * (2j * b0 - t)
            a = np.reshape((material.mu, material.epsilon), (2,) + (1,) * beta.ndim)
            den = a * a * beta * beta - s2
            if (abs(den) <= 1e-15 * abs(s2)).any():  # zero to rounding
                raise DegenerateDenominator("a surface mode lies on the branch cut")
            return -4.0 * a * beta * _passive_sqrt(s2) / den

        return half_space, 0.0, None if b0 is None else (b0, jump), None

    if isinstance(geometry, SlabWithMirror):
        material, d = geometry.material, geometry.thickness
        return (lambda beta: slab_mirror_rs_rp(
                    beta, beta1_of_beta(beta, k0, material), material, d),
                0.0, None, _strip_poles(geometry, tuple(np.ravel(k0).tolist())))

    raise TypeError(f"unsupported geometry {geometry!r}")


def _strip_height(material: MaterialResponse, d: float, k0: float) -> float:
    """A height above which D_s and D_p have no zero in the strip.

    D_s = 0 needs |mu beta + beta1| = exp(-2 d Im beta1) |mu beta - beta1|
    (D_p: eps for mu). At Im beta = y, |beta1 - beta| <= s/y with
    s = |eps mu - 1| k0^2 bounds the left side from below and the right
    one from above; y doubles, from where both bounds are monotone, until
    they exclude a zero.
    """
    s = abs(material.epsilon * material.mu - 1.0) * k0 * k0
    y = max(k0, math.sqrt(s), 1.0 / d)
    for a in (material.mu, material.epsilon):
        while not (a == -1.0 and s == 0.0):  # D is then exp(i beta d)
            top = math.hypot(k0, y)
            near = s / (2.0 * top + s / y) if a == -1.0 else abs(a + 1.0) * y - s / y
            if near > math.exp(2.0 * d * min(0.0, s / y - y)) * (abs(a - 1.0) * top + s / y):
                break
            y *= 2.0
    return y


def _count_zeros(fns, corner: complex, wx: float, wy: float, d: float):
    """Zeros of D_s and D_p in the rectangle from corner to
    corner + wx + i wy, and each row's sum of them, s_1 = (1/2 pi i)
    closed int x D'/D dx, by the argument principle (Delves & Lyness,
    Math. Comp. 21, 543 (1967); Kravanja & Van Barel, LNM 1727 (2000));
    a lone zero is its own s_1. The walk takes the first of fns's two
    forms: fns(x) stacks D_s, D_p and beta1, one row per transition. Each
    step along the boundary is split until D turns by at most pi/4 along
    it, and so does d Re beta1, the phase of exp(2i beta1 d): a zero just
    outside an edge, such as a weakly lossy slab's guided mode 1e-7 off
    Re beta = 0, turns D by nearly pi within 1e-7, and two of them in one
    step would alias. A round evaluates only the unsettled steps.
    """
    ends = np.cumsum([0.0, wx, wy, wx, wy])
    # The boundary runs anticlockwise from corner, through these corners.
    corners = corner + np.array([0, wx, wx + 1j * wy, 1j * wy, 0])
    # Steps of h along the bottom and top, and up the sides steps that
    # grow from h by 1/8 each: far up, D turns slowly.
    h = min(wx, wy, 0.5 * math.pi / d) / 16.0
    ys = 8.0 * h * (1.125 ** np.arange(2 + int(math.log1p(wy / (8.0 * h)) / math.log(1.125))) - 1.0)
    ys, across = np.append(ys[ys < wy], wy), np.arange(0.0, wx, h)
    # Each step runs from a node to the next; the last node is the first.
    t = np.concatenate((across, wx + ys, ends[2] + across, ends[4] - ys[:0:-1], ends[4:]))
    f = vals = fns(np.interp(t, ends, corners))
    while True:
        # |arg p| <= pi/4 is Re p >= |Im p|, and min(|b - a|, |b + a|) is
        # ||b| - |a||.
        p = (f[:2, ..., 1:] * f[:2, ..., :-1].conj()).reshape(-1, len(t) - 1)
        phase = abs(f[2].real).reshape(-1, len(t))
        moved = d * abs(phase[:, 1:] - phase[:, :-1]) > math.pi / 4.0
        split = np.flatnonzero(~(p.real >= abs(p.imag)).all(axis=0) | moved.any(axis=0))
        a, b = t[split], t[split + 1]
        # A zero between samples leaves a turn of pi for good; one on a
        # sample turns D by np.angle(0) = 0 on both sides, and is missed.
        if (b - a <= 1e-15 * ends[-1]).any() or not vals[:2].all():
            raise DegenerateDenominator("a slab's reflection pole lies on the strip's "
                                        "boundary or nearer to it than the walk resolves")
        if not len(split):
            break
        # Eight parts per step: a zero 1e-7 off an edge takes seven rounds.
        x = (a[:, None] + (b - a)[:, None] * np.arange(1, 8) / 8.0).ravel()
        vals = fns(np.interp(x, ends, corners))
        order = np.argsort(np.concatenate((t, x)), kind="stable")
        t, f = np.concatenate((t, x))[order], np.concatenate((f, vals), axis=-1)[..., order]
    turn = np.angle(p).reshape(2, *f.shape[1:-1], -1)
    n = np.rint(turn.sum(axis=-1) / (2.0 * math.pi)).astype(int)
    if not n.any():
        return n, np.zeros(n.shape, complex)
    # By parts, s_1 = n x_0 - (1/2 pi i) closed int log D dx, by Simpson's
    # rule on each step with one more node in its middle; log D is
    # continued from the first node and takes out exp(-d Im beta1) > 0.
    # Each row is summed in its own order (cumsum), whatever the others.
    mid = np.stack((t[:-1], 0.5 * (t[:-1] + t[1:])), axis=-1).ravel()
    x = np.interp(np.append(mid, t[-1]), ends, corners)
    g = np.insert(f, np.arange(1, len(t)), fns(x[1::2]), axis=-1)
    q = np.log(abs(g[:2])) + d * g[2].imag + 1j * np.unwrap(np.angle(g[:2]))
    s = ((x[2::2] - x[:-2:2]) * (q[..., :-2:2] + 4.0 * q[..., 1::2] + q[..., 2::2])).cumsum(axis=-1)
    return n, n * x[0] - s[..., -1] / (12j * math.pi)


def _locate(fns, corner: complex, wx: float, wy: float, d: float, n, s, top: float):
    """(x, kind, row, dx), dx a bound on x's error, for each of the
    n[kind, row] zeros with sums s that _count_zeros counts on fns in the
    rectangle. A row's lone zero is its s, polished by Newton's method
    with fns's second form, fns(x, row), D' at each seed's row alone,
    until a step is below dx = max(1e-13 (|x| + top), 1e-15/|D'|), how far
    rounding moves a zero where D is flat. A row with more zeros, or a
    polish that does not settle inside, is found in the halves.
    """
    found, rest = [], n.copy()
    kind, row = np.nonzero(n == 1)
    if len(kind):
        b, pick, dx, floor = s[kind, row], (kind, np.arange(len(kind))), np.inf, 0.0
        with np.errstate(all="ignore"):
            for _ in range(10):
                if np.all(dx <= floor):
                    break
                f = fns(b, row)
                slope = f[3:5][pick]
                floor = np.maximum(1e-13 * (abs(b) + top), 1e-15 / abs(slope))
                dx = f[:2][pick] / slope
                b, dx = b - dx, abs(dx)
        off = b - corner
        good = ((dx <= floor) & (0.0 < off.real) & (off.real < wx)
                & (0.0 < off.imag) & (off.imag < wy))
        found += zip(b[good], kind[good], row[good], floor[good])
        rest[kind[good], row[good]] = 0
    if not rest.any():
        return found
    if max(wx, wy) <= 1e-12 * top:
        raise NotConverged("no slab pole found where the count puts one")
    half = (wx / 2.0, wy) if wx > wy else (wx, wy / 2.0)
    lower, s_lower = _count_zeros(fns, corner, *half, d)
    lower *= rest > 0
    return (found + _locate(fns, corner, *half, d, lower, s_lower, top)
            + _locate(fns, corner + wx + 1j * wy - half[0] - 1j * half[1], *half, d,
                      rest - lower, s - s_lower, top))


def check_slab_thickness(d: float, omegas) -> None:
    """Raise DomainError unless 1e-12 <= d omega <= 1e4 for each omega.

    The walk resolves no step under 1e-15 of its perimeter, about
    2e-15/(d k0) of the strip's width, and takes about 10 d k0 steps
    along its base: these bounds keep the first under 1/500 and the
    second under 10^5.
    """
    if not (1e-12 <= d * min(omegas) and d * max(omegas) <= 1e4):
        raise DomainError(f"slab thickness {d} times omega = {', '.join(map(str, omegas))} "
                          "is outside the pole search's range [1e-12, 1e4]")


@functools.lru_cache(maxsize=256)
def _strip_poles(geometry: SlabWithMirror, omegas: tuple[float, ...]):
    """Per transition frequency k0 in omegas, (beta, res, dbeta, dres,
    on_edge): the poles of a slab's (r_s, r_p) in the strip
    0 <= Re beta < k0, the residues of (r_s, r_p) stacked as rows (one
    row is 0 at each pole), their errors, and which lie on Re beta = 0;
    None if there are none. Cached per (geometry, omegas): a sweep's
    points share them.

    One walk in v = (top/k0) beta, top the largest k0, counts and sums
    every transition's zeros of D_s and D_p up to the tallest
    _strip_height, above its own none lies; _locate finds them. fns(v)
    evaluates every transition at v, for the walk; fns(v, row) transition
    row[i] at v[i] with slopes by v, for the polish and the residues: r =
    N/D, so res is k0/top times N/D' by v at the pole, and dres how far
    that moves when the pole moves by its dbeta, plus 1e-15 |res|.
    """
    material, d = geometry.material, geometry.thickness
    check_slab_thickness(d, omegas)
    # A lossless slab's guided modes lie on Re beta = 0, where the i0+
    # limit decides whether they count: its strip starts at -eta k0, and
    # they come back flagged as on the edge.
    eta = 1e-9 if material.is_lossless else 0.0
    top, k = max(omegas), np.array(omegas)

    def fns(v, row=None):
        k0 = k[:, None] if row is None else k[row]
        f = slab_mirror_denominators(k0 / top * v, k0, material, d, row is not None)
        f[3:5] *= k0 / top  # with slopes, D_s' and D_p' by v: d beta/dv = k0/top
        return f

    height = max(_strip_height(material, d, k0) * (top / k0) for k0 in omegas)
    box = (-eta * top + 0j, top + eta * top, height, d)
    counts, sums = _count_zeros(fns, *box)
    if not counts.any():
        return (None,) * len(omegas)
    v, kind, row, dv = map(np.array, zip(*_locate(fns, *box, counts, sums, top)))
    scale = k[row] / top
    beta, dbeta = scale * v, scale * dv
    f = fns(v[:, None] + dv[:, None] * [0.0, 1.0], row[:, None].repeat(2, axis=1))
    r = f[5:][kind, np.arange(len(v))] / f[3:5][kind, np.arange(len(v))] * scale[:, None]
    mine = kind == np.array([[0], [1]])
    res, dres = np.where(mine, r[:, 0], 0.0), np.where(mine, abs(r[:, 1] - r[:, 0]), 0.0)
    return tuple((beta[i], res[:, i], dbeta[i], dres[:, i] + 1e-15 * abs(res[:, i]),
                  abs(beta[i].real) < eta * k[row[i]]) if i.any() else None
                 for i in (row == j for j in range(len(omegas))))


def _product(a: float, b: float) -> tuple[float, float]:
    """a b as p + e: p rounded and e its rounding error (Dekker's product
    with Veltkamp's split); e is 0 where the split would overflow."""
    p = a * b
    a_hi = a * 134217729.0 - (a * 134217729.0 - a)
    b_hi = b * 134217729.0 - (b * 134217729.0 - b)
    e = (((a_hi * b_hi - p) + a_hi * (b - b_hi) + (a - a_hi) * b_hi)
         + (a - a_hi) * (b - b_hi))
    return p, e if math.isfinite(e) else 0.0


def green_components(z_A: float, omega, geometry: Geometry,
                     rel_tol: float = REL_TOL, *, xx: bool = True,
                     zz: bool = True) -> GreenComponents:
    """G_xx and G_zz at the atom, from one integrand for both components.

    In natural units, k0 = omega. G_xx integrates R = r_s - (beta/k0)^2 r_p
    and G_zz integrates R = 2 (q/k0)^2 r_p = 2 (1 - beta^2/k0^2) r_p,
    each times the round-trip phase, on the path with what _coefficients
    adds. Passing xx=False or zz=False leaves that component out of the
    integrand and out of the convergence test; it is returned as None.

    omega is a positive finite transition frequency or a non-empty 1-D
    array of them, which share one path integral (the decay exp(-2 t z)
    is the same for each) on the lowest one's ladder; each (transition,
    component) row meets its own tolerance, and each transition keeps its
    own cut, poles and phase. Any other omega raises ValueError.
    """
    if not (xx or zz):
        raise ValueError("green_components needs at least one of xx, zz")
    omegas = np.array(omega, dtype=float)
    single = omegas.ndim == 0
    omegas = omegas.ravel().tolist() if omegas.ndim < 2 else []
    if not (omegas and all([0.0 < w < math.inf for w in omegas])):
        raise ValueError("omega must be a positive finite number or a non-empty "
                         f"1-D array of them, got {omega!r}")
    # A column of frequencies broadcasts against the nodes; one stays a
    # float, on which numpy takes its faster scalar paths.
    k0 = omegas[0] if len(omegas) == 1 else np.array(omegas)[:, None]
    rs_rp, z_offset, cut, poles = _coefficients(geometry, k0)
    require_distance("z_A", z_A, z_offset)
    z_image = z_A - z_offset
    require_distance("2 omega z", 2.0 * max(omegas) * z_image)  # else cmath.exp raises

    def at(beta, r, k=k0):
        # The rows asked for, G_xx then G_zz, of r = (r_s, r_p); a lone row
        # has no axis of its own. q^2 = k0^2 - beta^2 as a product: k0 - beta
        # = -i t is exact on the path, where k0^2 - beta^2 would lose t^2.
        out = [r[0] - (beta / k) ** 2 * r[1]] if xx else []
        if zz:
            out.append(2.0 * ((k - beta) * (k + beta) / (k * k)) * r[1])
        return np.stack(out) if len(out) == 2 else out[0]

    if cut is not None:
        b0, jump = cut
        cut_phase = np.exp(2j * (b0 - k0) * z_image)
    lead = (len(omegas),) if len(omegas) > 1 else ()

    def path(t):
        # beta = k0 + i t, set by parts: k0 + 1j * t bit for bit, without its
        # complex product. The engine applies the decay exp(-2 t z_image).
        beta = np.empty(lead + t.shape, complex)
        beta.real, beta.imag = k0, t
        out = at(beta, rs_rp(beta))
        if cut is None:
            return out
        # The cut's beta = b0 + i t has the same decay, and its phase
        # relative to exp(2i k0 z_image) has modulus <= 1.
        on_cut = b0 + 1j * t
        return out + cut_phase * at(on_cut, jump(on_cut, t))

    # The lowest k0's onset k0/8 covers every higher one's. Once the square
    # of the integral's size 1/(k0^2 z^3) overflows, so may its products:
    # the integrand not finite is then the cause, without numpy's warnings.
    lowest = min(omegas)
    size = 1.0 / lowest / lowest / z_image / z_image / z_image
    args = path, z_image, rel_tol, lowest / 8.0, cut is not None
    if size * size < math.inf:
        res = integrate_evanescent(*args)
    else:
        with np.errstate(all="ignore"):
            res = integrate_evanescent(*args)
    # (transition, component) rows. The phase at the rounded k0 z_image
    # would be off by up to 1e-16 k0 z_image, above the path's error at
    # large distances.
    phase = [cmath.exp(2j * arg) * cmath.exp(2j * rounding) / (8.0 * math.pi)
             for arg, rounding in (_product(k, z_image) for k in omegas)]
    value = np.array(phase)[:, None] * res.value.reshape(-1, len(omegas)).T
    error = res.error_estimate.reshape(-1, len(omegas)).T / (8.0 * math.pi)
    for pole, k, v, e in zip(poles or (), omegas, value, error):
        if pole is not None:
            # -(1/4) Res F per pole; its error is what moving the pole by its
            # dbeta changes, plus the residue's and round-off. A pole on
            # Re beta = 0 is left out, which its term must allow. `-=` and
            # `+=` would reorder the operands below, and the rounding.
            beta, residue, dbeta, dresidue, on_edge = pole
            turn = np.exp(2j * beta * z_image) / 4.0
            terms = turn * at(beta, residue, k)
            v -= terms[..., ~on_edge].sum(axis=-1)
            edge = np.abs(terms[..., on_edge]).sum(axis=-1)
            if (edge > rel_tol * np.abs(v)).any():
                raise DegenerateDenominator("a lossless slab's guided mode on "
                                            "Re beta = 0 is not negligible here")
            # Each pole's dresidue is nonzero in its own polarisation only,
            # so |at| of it is the sum of its rows' |terms|: a bound.
            bound = np.abs(at(beta, dresidue, k))
            e[:] = e + edge + (np.abs(terms) * (2.0 * z_image * dbeta + _ROUNDOFF)
                               + abs(turn) * bound).sum(axis=-1)
    # Per component: numbers for a number omega, else arrays over omegas.
    value, error = (value[0].tolist(), error[0].tolist()) if single else (value.T, error.T)
    g_xx, error_xx = (value[0], error[0]) if xx else (None, None)
    g_zz, error_zz = (value[-1], error[-1]) if zz else (None, None)
    return GreenComponents(g_xx, g_zz, error_xx, error_zz, res.evaluations)
