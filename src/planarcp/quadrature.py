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
the global estimate meets it. A pole near the path needs no breakpoint:
its 1/(x - x_p) tail makes the Kronrod-Gauss difference large on every
panel near it, so bisection homes in on it. The integrand may return
shape (N,) or (m, N) or (m, c, N); every row must meet its own tolerance.
Identical inputs give bit-identical results. Since each round is one
integrand call, cost follows the number of rounds. An evanescent
integral's rounds also extend its tail, in the same call, as Shampine's
loop handles an infinite interval. The error tested and returned is
the Kronrod-Gauss difference floored at the round-off of the sum, as
QUADPACK's (Piessens et al., 1983) is, which no bisection lowers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import NotConverged, require_distance

# Gauss-Kronrod 7/15 nodes on [-1, 1], and the Kronrod and Gauss weights
# as rows over an axis of panels; the Gauss row is 0 at the Kronrod-only nodes.
_GK_NODES = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
])
_GK_W = np.array([[
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529,
], [
    0.0, 0.129484966168870, 0.0, 0.279705391489277, 0.0,
    0.381830050505119, 0.0, 0.417959183673469, 0.0,
    0.381830050505119, 0.0, 0.279705391489277, 0.0,
    0.129484966168870, 0.0,
]])[:, None]


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
_ROUNDOFF = 50.0 * np.finfo(float).eps

# Tail panels past kappa0 evaluated with the initial panels of an
# evanescent integral, before any refinement round appends more.
_TAIL_PANELS = 2
# Initial panels of an evanescent integral below kappa0: _FINE_PANELS
# _first_width wide, then edges at these values of 2 kappa z_decay.
_FINE_PANELS = 8
_COARSE_EDGES = (10.0, 12.0, 14.0, 16.0, 20.0, 24.0, 28.0, 32.0)


@dataclass(frozen=True)
class IntegralResult:
    """A converged integral: for an integrand of shape S + (N,), arrays S."""

    value: np.ndarray
    error_estimate: np.ndarray
    evaluations: int


def _evaluate(f, a: np.ndarray, b: np.ndarray):
    """GK15 values of the panels [a_j, b_j], and their |values| and errors
    stacked on an axis of 2. Both come back with the integrand's component
    axes first and the panel axis last: shape (P,) and (2, P), or (m, P)
    and (m, 2, P). All panels go to f as one flat node array.
    """
    h = 0.5 * (b - a)
    x = 0.5 * (a + b)[:, None] + h[:, None] * _GK_NODES
    y = np.asarray(f(x.ravel()), dtype=complex)
    # Both rules in one product, summed over the contiguous node axis,
    # not BLAS: that keeps the bits independent of alignment and threads.
    rules = h * (y.reshape(y.shape[:-1] + (1,) + x.shape) * _GK_W).sum(axis=-1)
    value = rules[..., 0, :]
    np.subtract(value, rules[..., 1, :], out=rules[..., 1, :])
    return value, np.abs(rules)


def check_rel_tol(rel_tol: float) -> None:
    """Raise ValueError unless 0 < rel_tol < inf."""
    if not 0.0 < rel_tol < math.inf:
        raise ValueError(f"rel_tol must be positive and finite, got {rel_tol}")


def _integrate(f, edges: np.ndarray, rel_tol: float, sector: str,
               step: float = 0.0) -> IntegralResult:
    """Integrate f over the panels between consecutive edges, refining
    until every component's error meets rel_tol |total|. Raise NotConverged
    once a sum is not finite, _MAX_SUBDIVISIONS are spent, or bisection
    cannot help: a total is 0, or an error is at its floor above tolerance.

    Each round sorts the panels by error relative to the tolerance
    (largest first) and bisects the shortest prefix whose error exceeds
    every component's excess over its tolerance. With step > 0 the
    integral runs on past the last edge: while the last panel is above
    _TAIL_CUTOFF of the total, the round also appends, in the same
    integrand call, the next panel step wide. A bisection and a tail
    panel each spend one subdivision.
    """
    check_rel_tol(rel_tol)
    a = edges[:-1]
    b = edges[1:]
    val, scale = _evaluate(f, a, b)
    evals = 15 * len(a)
    spent = 0
    tail_open = step > 0.0
    while True:
        total = val.sum(axis=-1)
        size = abs(total)
        tol = rel_tol * size
        # The Kronrod-Gauss difference does not see the rounding of the
        # sum, whose scale is the panels' summed |values|; that real sum
        # can itself round below |total|.
        sums = scale.sum(axis=-1)
        kronrod = sums[..., 1]
        floor = _ROUNDOFF * np.maximum(sums[..., 0], size)
        err_total = np.maximum(kronrod, floor)
        # While open, the tail panel is the last one appended. Once
        # negligible it stays so, and is not checked again.
        if tail_open:
            tail_open = not (scale[..., 0, -1] <= _TAIL_CUTOFF * size).all()
        # err_total >= 50 eps |total|, and np.maximum keeps a nan.
        finite = bool(err_total.max() < math.inf)
        converged = bool((err_total <= tol).all())
        if finite and converged and not tail_open:
            return IntegralResult(total, err_total, evals)
        stuck = bool((((kronrod <= floor) & (floor > tol)) | (tol == 0.0)).any())
        if not finite or stuck or spent == _MAX_SUBDIVISIONS:
            why = ("integrand not finite" if not finite
                   else f"tail still contributing at {b[-1]:.3e}" if tail_open and not stuck
                   else f"error {np.max(err_total):.3e} above tolerance")
            raise NotConverged(f"{sector} integral: {why} after {spent} subdivisions")
        # The next tail panel, if the tail is open, goes last.
        new_a = b[-1:] if tail_open else b[:0]
        new_b = new_a + step
        spent += tail_open
        if not converged:
            scaled = np.reshape(scale[..., 1, :] / tol[..., None], (-1, len(a)))
            order = np.argsort(-scaled.max(axis=0), kind="stable")
            excess = np.reshape(kronrod / tol - 1.0, (-1, 1))
            covered = (np.cumsum(scaled[:, order], axis=-1) > excess).all(axis=0)
            split = order[:min(int(np.argmax(covered)) + 1, _MAX_SUBDIVISIONS - spent)]
            mid = 0.5 * (a[split] + b[split])
            new_a = np.concatenate((a[split], mid, new_a))
            new_b = np.concatenate((mid, b[split], new_b))
            a = np.delete(a, split)
            b = np.delete(b, split)
            val = np.delete(val, split, axis=-1)
            scale = np.delete(scale, split, axis=-1)
            spent += len(split)
        new_val, new_scale = _evaluate(f, new_a, new_b)
        a = np.concatenate((a, new_a))
        b = np.concatenate((b, new_b))
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
    n = max(1, math.ceil(beta_max / max_panel_width)) if max_panel_width else 1
    return _integrate(integrand, np.linspace(0.0, beta_max, n + 1), rel_tol,
                      "propagating")


def _first_width(z_decay: float) -> float:
    """integrate_evanescent's first panel width: kappa0/37, below 1/(2 z_decay)."""
    return -math.log(_TAIL_CUTOFF) / (2.0 * z_decay) / math.ceil(-math.log(_TAIL_CUTOFF))


def integrate_evanescent(integrand, z_decay: float,
                         rel_tol: float = REL_TOL,
                         breakpoints=()) -> IntegralResult:
    """Integrate integrand(kappa) * exp(-2 kappa z_decay) over kappa > 0.

    The caller supplies the prefactor; the decay is applied here. The
    first call holds 17 panels up to kappa0, where the bare exponential
    reaches _TAIL_CUTOFF: 8 _first_width wide, where the integrand peaks,
    then 2 and 4 wide in 2 kappa z_decay, once the decay has fallen by
    e^-8. It also holds the first _TAIL_PANELS panels past kappa0 (a
    kappa^2 prefactor keeps the first above _TAIL_CUTOFF) and the
    breakpoints: the Green module's one ladder toward small kappa,
    graded toward a branch cut's sqrt(t) onset, where bisection would
    spend a round per octave. Each refinement round appends one more tail
    panel while the last is not a negligible fraction of the total, which
    covers a prefactor whose growth delays the decay, such as the amplified
    waves of a weakly lossy left-handed slab.
    """
    require_distance("z_decay", z_decay)

    def f(kappa):  # kappa (-2 z_decay) is -2 kappa z_decay bit for bit
        return np.asarray(integrand(kappa), dtype=complex) * np.exp(kappa * (-2.0 * z_decay))

    kappa0 = -math.log(_TAIL_CUTOFF) / (2.0 * z_decay)
    step = kappa0 / 4.0
    width = _first_width(z_decay)
    edges = ([j * width for j in range(_FINE_PANELS + 1)]
             + [c / (2.0 * z_decay) for c in _COARSE_EDGES]
             + [kappa0 + step * j for j in range(_TAIL_PANELS + 1)])
    inner = [b for b in breakpoints if 0.0 < b < kappa0 and b not in edges]
    return _integrate(f, np.array(sorted(edges + inner)), rel_tol, "evanescent", step)
