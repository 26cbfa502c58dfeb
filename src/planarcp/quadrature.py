# src/planarcp/quadrature.py
"""Deterministic adaptive quadrature for the layered-media q-integral.

The Green module integrates on the steepest-descent path
beta = omega/c + i t: one integrate_evanescent call in t with the decay
exp(-2 t z), whose rows are all of an atom's transitions and components.
integrate_propagating integrates over (0, beta_max].

Each panel is estimated with an embedded Gauss(7)/Kronrod(15) pair.
Refinement is vectorised in the manner of Shampine's quadgk (J. Comput.
Appl. Math. 211, 131 (2008)): all pending panels go to the integrand as
one flat node array, and each round bisects, in one batch, the fewest
largest-error panels whose error exceeds the gap to the tolerance, until
the global estimate meets it. A pole near the path needs no panel edge
of its own: its 1/(x - x_p) tail makes the Kronrod-Gauss difference large
on every panel near it, so bisection homes in on it. The integrand may
return shape (N,) or (m, N) or (m, c, N); every row must meet its own
tolerance, and each round decides that on Python floats, row by row, the
same way for any number of rows. Identical inputs give bit-identical
results with one numpy build at one CPU feature level. Since each round
is one integrand call, cost follows the number of rounds. Every round's
weights carry its panels' half-widths and the decay exp(-rate x); the
integrand is never multiplied by it. An evanescent integral's first
round is laid out in s = 2 kappa z_snap, z_decay snapped down to a power
of two: built once per ladder depth, its nodes are the same at every
distance of an octave, where a run's table shares their integrand
values. Its later rounds, in kappa at rate 2 z_decay, also extend its
tail as Shampine's loop does an infinite interval. The error tested and
returned is the Kronrod-Gauss difference floored at the round-off of
the sum, as QUADPACK's (Piessens et al., 1983) is, which no bisection
lowers.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import NotConverged, require_distance

# Gauss-Kronrod 7/15 nodes on [0, 1] and their Kronrod and Gauss weights
# (the Gauss weight is 0 at the Kronrod-only nodes), mirrored onto [-1, 1].
_GK = np.array([
    [0.0, 0.207784955007898, 0.405845151377397, 0.586087235467691,
     0.741531185599394, 0.864864423359769, 0.949107912342759, 0.991455371120813],
    [0.209482141084728, 0.204432940075298, 0.190350578064785, 0.169004726639267,
     0.140653259715525, 0.104790010322250, 0.063092092629979, 0.022935322010529],
    [0.417959183673469, 0.0, 0.381830050505119, 0.0,
     0.279705391489277, 0.0, 0.129484966168870, 0.0]])
_GK = np.concatenate((_GK[:, :0:-1] * [[-1.0], [1.0], [1.0]], _GK), axis=1)
_GK_NODES = _GK[0]
# The Kronrod and the Kronrod-minus-Gauss weights as complex rows over an
# axis of panels: one product-sum, with no cast, gives a value and its error.
_GK_W = np.stack((_GK[1], _GK[1] - _GK[2]))[:, None] + 0j


# Default relative tolerance of every integral.
REL_TOL = 1e-8
# Most subdivisions one integral may spend, from one budget: a bisection
# and an appended tail panel each spend one.
_MAX_SUBDIVISIONS = 2000
# Relative size below which the evanescent tail counts as negligible
# (see integrate_evanescent).
_TAIL_CUTOFF = 1e-16
# Round-off floor of an error, per unit of the integral of |f|:
# QUADPACK's 50 eps_mach. A one-round GK15 estimate of a smooth decaying
# integrand can claim far less than the rounding of the sum.
_ROUNDOFF = 50.0 * sys.float_info.epsilon

# An evanescent integral's first round in s = 2 kappa z_snap: 8 panels
# _WIDTH wide, where the integrand peaks, then 2 and 4 wide once the decay
# has fallen by e^-8, up to _CUTOFF, where it is at most _TAIL_CUTOFF; then
# two tail panels _CUTOFF/4 wide (a kappa^2 prefactor can keep them above it).
_CUTOFF = -math.log(_TAIL_CUTOFF)
_WIDTH = _CUTOFF / math.ceil(_CUTOFF)
_EDGES = ([j * _WIDTH for j in range(9)] + [10.0, 12.0, 14.0, 16.0, 20.0, 24.0, 28.0, 32.0]
          + [_CUTOFF + 0.25 * _CUTOFF * j for j in range(3)])


@dataclass(frozen=True)
class IntegralResult:
    """A converged integral: for an integrand of shape S + (N,), arrays S."""

    value: np.ndarray
    error_estimate: np.ndarray
    evaluations: int


def _panels(a: np.ndarray, b: np.ndarray, rate: float):
    """The GK15 nodes of the panels [a_j, b_j], shape (P, 15), and both
    rules' weights times each panel's half-width and the decay
    exp(-rate x) at each node x, shape (2, P, 15)."""
    h = 0.5 * (b - a)[:, None]
    nodes = 0.5 * (a + b)[:, None] + h * _GK_NODES
    # x (-rate) is -rate x bit for bit, and exp(-0.0 x) = 1.
    return nodes, _GK_W * (h * np.exp(nodes * -rate))


def _sums(y, weights: np.ndarray):
    """The GK15 values of panels from the integrand's values y at their
    nodes, shape S + (N,), and their weights, shape (2, P, 15), N = 15 P:
    one row per component, (m, P); their |values| and errors on an axis
    of 2, (m, 2, P); and S."""
    y = np.asarray(y, dtype=complex)
    # Both rules in one product, summed over the contiguous node axis,
    # not BLAS: that keeps the bits independent of alignment and threads.
    rules = np.add.reduce(y.reshape(-1, 1, *weights.shape[1:]) * weights, -1)
    return rules[:, 0], np.abs(rules), y.shape[:-1]


def check_rel_tol(rel_tol: float) -> None:
    """Raise ValueError unless 0 < rel_tol < inf."""
    if not 0.0 < rel_tol < math.inf:
        raise ValueError(f"rel_tol must be positive and finite, got {rel_tol}")


def _integrate(f, edges: np.ndarray, first, rel_tol: float, sector: str,
               rate: float = 0.0, step: float = 0.0) -> IntegralResult:
    """Integrate f(x) exp(-rate x) over the panels between consecutive
    edges, from their first round of _sums, until every component's error
    meets rel_tol |total|. Raise NotConverged once a sum is not finite,
    _MAX_SUBDIVISIONS are spent, or bisection cannot help: a total is 0, or
    an error is at its floor above tolerance.

    Each round sorts the panels by error relative to the tolerance
    (largest first) and bisects the shortest prefix whose error exceeds
    every component's excess over its tolerance. With step > 0 the
    integral runs on past the last edge: while the last panel is above
    _TAIL_CUTOFF of the total, the round also appends, in the same
    integrand call, the next panel step wide. A bisection and a tail
    panel each spend one subdivision.
    """
    a, b = edges[:-1], edges[1:]
    val, scale, shape = first
    evals, spent, tail_open = 15 * len(a), 0, step > 0.0
    while True:
        total = np.add.reduce(val, -1)
        sums = np.add.reduce(scale, -1)
        sizes = abs(total).tolist()
        # While open, the tail panel is the last one appended. Once
        # negligible it stays so, and is not checked again.
        lasts = scale[:, 0, -1].tolist() if tail_open else [0.0] * len(sizes)
        # Each component on floats. The Kronrod-Gauss difference does not see
        # the rounding of the sum, whose scale is the panels' summed |values|;
        # that real sum can itself round below |total|.
        tols, errors, finite, converged, stuck, tail = [], [], True, True, False, False
        for size, (norm, kronrod), last in zip(sizes, sums.tolist(), lasts):
            tol, floor = rel_tol * size, _ROUNDOFF * max(norm, size)
            tols.append(tol)
            errors.append(max(kronrod, floor))
            # A nan fails every comparison: it is not finite.
            finite = finite and size < math.inf and norm < math.inf and kronrod < math.inf
            converged = converged and errors[-1] <= tol
            stuck = stuck or (kronrod <= floor and floor > tol) or tol == 0.0
            tail = tail or not last <= _TAIL_CUTOFF * size
        tail_open = tail_open and tail
        if finite and converged and not tail_open:
            return IntegralResult(total.reshape(shape)[()], np.array(errors).reshape(shape)[()],
                                  evals)
        if not finite or stuck or spent == _MAX_SUBDIVISIONS:
            why = ("integrand not finite" if not finite
                   else f"tail still contributing at {b[-1]:.3e}" if tail_open and not stuck
                   else f"error {max(errors):.3e} above tolerance")
            raise NotConverged(f"{sector} integral: {why} after {spent} subdivisions")
        # The next tail panel, if the tail is open, goes last.
        new_a = b[-1:] if tail_open else b[:0]
        new_b = new_a + step
        spent += tail_open
        if not converged:
            tols = np.array(tols)[:, None]
            scaled = scale[:, 1, :] / tols
            order = np.argsort(-scaled.max(axis=0), kind="stable")
            excess = sums[:, 1:] / tols - 1.0
            covered = (np.cumsum(scaled[:, order], axis=-1) > excess).all(axis=0)
            split = order[:min(int(np.argmax(covered)) + 1, _MAX_SUBDIVISIONS - spent)]
            mid = 0.5 * (a[split] + b[split])
            new_a = np.concatenate((a[split], mid, new_a))
            new_b = np.concatenate((mid, b[split], new_b))
            a, b = np.delete(a, split), np.delete(b, split)
            val, scale = np.delete(val, split, axis=-1), np.delete(scale, split, axis=-1)
            spent += len(split)
        nodes, weights = _panels(new_a, new_b, rate)
        new_val, new_scale, _ = _sums(f(nodes.ravel()), weights)
        a, b = np.concatenate((a, new_a)), np.concatenate((b, new_b))
        val = np.concatenate((val, new_val), axis=-1)
        scale = np.concatenate((scale, new_scale), axis=-1)
        evals += 15 * len(new_a)


def integrate_propagating(integrand, beta_max: float,
                          rel_tol: float = REL_TOL,
                          max_panel_width: float | None = None) -> IntegralResult:
    """Integrate a vectorized integrand over beta in (0, beta_max].

    max_panel_width bounds the initial panel width so oscillations like
    exp(2i beta z_A) are resolved from the start (a quarter period is a
    good choice).
    """
    if beta_max <= 0.0:
        raise ValueError(f"beta_max must be positive, got {beta_max}")
    check_rel_tol(rel_tol)
    n = max(1, math.ceil(beta_max / max_panel_width)) if max_panel_width else 1
    edges = np.linspace(0.0, beta_max, n + 1)
    nodes, weights = _panels(edges[:-1], edges[1:], 0.0)
    first = _sums(integrand(nodes.ravel()), weights)
    return _integrate(integrand, edges, first, rel_tol, "propagating")


@functools.lru_cache(maxsize=64)  # a sweep's distances share a few
def _layout(depth: int):
    """integrate_evanescent's first round in s: its edges, _EDGES and below
    them a ladder of depth edges halving _WIDTH, and the _panels between
    them at rate 1, whose weights carry exp(-s)."""
    edges = np.array(sorted({*_EDGES, *(_WIDTH * 0.5 ** j for j in range(1, depth + 1))}))
    nodes, weights = _panels(edges[:-1], edges[1:], 1.0)
    edges.flags.writeable = nodes.flags.writeable = weights.flags.writeable = False
    return edges, nodes, weights


def integrate_evanescent(integrand, z_decay: float, rel_tol: float = REL_TOL,
                         onset: float = math.inf, table: dict | None = None) -> IntegralResult:
    """Integrate integrand(kappa) * exp(-2 kappa z_decay) over kappa > 0.

    The caller supplies the prefactor; the decay is in every round's
    weights, not applied to it. The first round is one integrand call on
    the cached _layout of panels in s = 2 kappa z_snap, z_snap = 2^e <=
    z_decay < 2^(e+1): its nodes are the same at every z_decay of an
    octave, and its weights carry the rest of the decay. A table, the
    integrand's own dict, or without one this call's, keeps that round's
    edges and integrand values by (z_snap, depth). The layout's ladder
    halves the first panel down to the first edge at or below kappa =
    onset > 0, where the integrand has structure of its own. An
    endpoint singularity such as sqrt(kappa), on which bisection would
    spend a round per octave, is the caller's to smooth by a change of
    variable. Each refinement round appends one more tail panel while the
    last is not a negligible fraction of the total, which covers a
    prefactor whose growth delays the decay, such as the amplified waves
    of a weakly lossy left-handed slab.
    """
    require_distance("z_decay", z_decay)
    check_rel_tol(rel_tol)
    if not onset > 0.0:  # else the ladder would halve without end
        raise ValueError(f"onset must be positive, got {onset}")
    z_snap = math.ldexp(0.5, math.frexp(z_decay)[1])
    scale = 0.5 / z_snap  # kappa per unit of s
    depth, low, onset = 0, _WIDTH, onset / scale
    while low > onset:
        depth, low = depth + 1, 0.5 * low
    edges, nodes, weights = _layout(depth)
    table = {} if table is None else table
    if (entry := table.get((z_snap, depth))) is None:
        entry = table[z_snap, depth] = edges * scale, integrand(nodes.ravel() * scale)
    edges, values = entry
    # exp(-2 kappa z_decay) is the layout's exp(-s) times exp(-s (z_decay/z_snap
    # - 1)), and dkappa = scale ds, exactly: scale is a power of two.
    first = _sums(values, weights * (np.exp(nodes * (1.0 - z_decay / z_snap)) * scale))
    return _integrate(integrand, edges, first, rel_tol, "evanescent", 2.0 * z_decay,
                      0.125 * _CUTOFF / z_decay)
