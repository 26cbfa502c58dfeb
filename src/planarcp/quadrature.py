# src/planarcp/quadrature.py
"""Deterministic adaptive quadrature for the layered-media q-integral.

The semi-infinite integral is evaluated in two pieces after the standard
variable changes that remove the 1/beta endpoint singularity:

  propagating  q in [0, omega/c):  beta = sqrt(omega^2/c^2 - q^2),
               q dq = -beta dbeta  ->  plain dbeta integral on (0, omega/c]
  evanescent   q > omega/c:        beta = i kappa,
               q dq = kappa dkappa ->  dkappa integral with decay
               exp(-2 kappa z)

Each panel is estimated with an embedded Gauss(7)/Kronrod(15) pair.
Refinement is vectorised in the manner of Shampine's quadgk (J. Comput.
Appl. Math. 211, 131 (2008)): all pending panels go to the integrand as
one flat node array (in chunks of at most _CHUNK_PANELS panels), and
each round bisects, in one batch, the fewest largest-error panels whose
error exceeds the gap to the tolerance, until the global estimate meets
it. The integrand may return shape (N,) or (m, N); every component must
meet its own tolerance. Everything is deterministic: identical inputs
give bit-identical results.

Since each round is one integrand call, cost follows the number of
rounds. The evanescent sector's first call therefore holds, besides the
uniform initial panels and the caller's breakpoints (the Green module
passes a ladder k0/8, k0/4, ... that resolves the small-kappa scale at
short distances), the first _TAIL_PANELS tail panels; further tail
panels are probed one per call only while the last is not negligible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import NonDecaying, NotConverged

# Gauss-Kronrod 7/15 nodes on [-1, 1] and weights. Gauss weights are zero
# at the Kronrod-only nodes.
_GK_NODES = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
])
_GK_WK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529,
])
_GK_WG = np.array([
    0.0, 0.129484966168870, 0.0, 0.279705391489277, 0.0,
    0.381830050505119, 0.0, 0.417959183673469, 0.0,
    0.381830050505119, 0.0, 0.279705391489277, 0.0,
    0.129484966168870, 0.0,
])


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and budgets for the adaptive engine."""

    rel_tol: float = 1e-8
    abs_tol: float = 1e-30
    max_subdivisions: int = 2000
    tail_cutoff: float = 1e-16

    def __post_init__(self):
        if self.rel_tol <= 0.0 or self.abs_tol <= 0.0:
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")
        if not 0.0 < self.tail_cutoff < 1.0:
            raise ValueError("tail_cutoff must be in (0, 1)")


DEFAULT_SPEC = QuadratureSpec()

# Most panels one integrand call evaluates: bounds the node arrays, and so
# the memory, of one evaluation.
_CHUNK_PANELS = 256

# Tail panels past kappa0 evaluated with the initial panels of an
# evanescent integral, before any single-panel probe.
_TAIL_PANELS = 2


@dataclass(frozen=True)
class IntegralResult:
    """value and error_estimate are scalars for an integrand returning
    shape (N,), and arrays of shape (m,) for one returning (m, N)."""

    value: complex | np.ndarray
    error_estimate: float | np.ndarray
    evaluations: int
    converged: bool


def _result(total, err_total, evals: int, converged: bool) -> IntegralResult:
    if np.ndim(total) == 0:
        total, err_total = complex(total), float(err_total)
    return IntegralResult(total, err_total, evals, converged)


def _evaluate(f, a: np.ndarray, b: np.ndarray):
    """GK15 values and errors of the panels [a_j, b_j].

    Both come back with the integrand's component axes first and the panel
    axis last: shape (P,) or (m, P). Panels go to f at most _CHUNK_PANELS
    at a time, as one flat node array.
    """
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    values, errors = [], []
    for lo in range(0, len(a), _CHUNK_PANELS):
        h = half[lo:lo + _CHUNK_PANELS]
        x = mid[lo:lo + _CHUNK_PANELS, None] + h[:, None] * _GK_NODES
        y = np.asarray(f(x.ravel()), dtype=complex)
        y = y.reshape(y.shape[:-1] + x.shape)
        # Sums over the contiguous node axis, not BLAS, keep the bits
        # independent of alignment and thread count.
        i15 = h * np.sum(y * _GK_WK, axis=-1)
        i7 = h * np.sum(y * _GK_WG, axis=-1)
        values.append(i15)
        errors.append(np.abs(i15 - i7))
    return np.concatenate(values, axis=-1), np.concatenate(errors, axis=-1)


def _refine(f, a, b, val, err, evals: int, spec: QuadratureSpec,
            sector: str) -> IntegralResult:
    """Bisect panels until every component's summed error meets its
    tolerance; raise NotConverged once max_subdivisions are spent.

    a, b are the panel edges and val, err their GK15 values and errors as
    returned by _evaluate. Each round sorts the panels by error relative
    to the tolerance (largest first) and bisects the shortest prefix whose
    error exceeds every component's excess over its tolerance.
    """
    bisections = 0
    while True:
        total = np.sum(val, axis=-1)
        err_total = np.sum(err, axis=-1)
        tol = np.maximum(spec.rel_tol * np.abs(total), spec.abs_tol)
        if np.all(err_total <= tol):
            return _result(total, err_total, evals, True)
        budget = spec.max_subdivisions - bisections
        if budget == 0:
            raise NotConverged(
                f"{sector} integral: error {np.max(err_total):.3e} above "
                f"tolerance after {spec.max_subdivisions} subdivisions",
                _result(total, err_total, evals, False))
        scaled = np.reshape(err / tol[..., None], (-1, err.shape[-1]))
        order = np.argsort(-scaled.max(axis=0), kind="stable")
        excess = np.reshape(err_total / tol - 1.0, (-1, 1))
        covered = np.all(np.cumsum(scaled[:, order], axis=-1) > excess, axis=0)
        split = order[:min(int(np.argmax(covered)) + 1, budget)]
        mid = 0.5 * (a[split] + b[split])
        new_a = np.concatenate((a[split], mid))
        new_b = np.concatenate((mid, b[split]))
        new_val, new_err = _evaluate(f, new_a, new_b)
        a = np.concatenate((np.delete(a, split), new_a))
        b = np.concatenate((np.delete(b, split), new_b))
        val = np.concatenate((np.delete(val, split, axis=-1), new_val), axis=-1)
        err = np.concatenate((np.delete(err, split, axis=-1), new_err), axis=-1)
        evals += 15 * len(new_a)
        bisections += len(split)


def _initial_edges(a: float, b: float, max_width: float | None) -> np.ndarray:
    n = 1
    if max_width is not None and max_width > 0.0:
        n = max(1, math.ceil((b - a) / max_width))
    n = min(n, 4096)
    return np.linspace(a, b, n + 1)


def integrate_propagating(integrand, beta_max: float,
                          spec: QuadratureSpec = DEFAULT_SPEC,
                          max_panel_width: float | None = None) -> IntegralResult:
    """Integrate a vectorized integrand over beta in (0, beta_max].

    max_panel_width bounds the initial panel width so oscillations like
    exp(2i beta z_A) are resolved from the start (a quarter period is a
    good choice).
    """
    if beta_max <= 0.0:
        raise ValueError(f"beta_max must be positive, got {beta_max}")
    edges = _initial_edges(0.0, beta_max, max_panel_width)
    a, b = edges[:-1], edges[1:]
    val, err = _evaluate(integrand, a, b)
    return _refine(integrand, a, b, val, err, 15 * len(a), spec, "propagating")


def integrate_evanescent(integrand, z_decay: float,
                         spec: QuadratureSpec = DEFAULT_SPEC,
                         breakpoints=()) -> IntegralResult:
    """Integrate integrand(kappa) * exp(-2 kappa z_decay) over kappa > 0.

    The decay factor is applied here; the caller supplies only the
    bounded prefactor. Truncation starts at the point where the bare
    exponential reaches tail_cutoff and is pushed outward until the last
    appended panel is a negligible fraction of the running total (this
    covers integrands whose own growth delays the decay, e.g. amplified
    evanescent waves of a weakly absorbing left-handed slab). The first
    _TAIL_PANELS panels past that point are evaluated with the initial
    ones, since a prefactor growing like kappa^2 keeps the first of them
    above tail_cutoff; refinement starts from the values of all of them
    and of any further tail probes.

    breakpoints are extra panel edges, used to pin near-singular features
    (surface-plasmon or guided-mode resonances of weakly lossy media)
    that uniform panels would step over without noticing.
    """
    if z_decay <= 0.0:
        raise NonDecaying(f"need z_decay > 0 for convergence, got {z_decay}")

    def f(kappa):
        return np.asarray(integrand(kappa), dtype=complex) * np.exp(-2.0 * kappa * z_decay)

    kappa0 = -math.log(spec.tail_cutoff) / (2.0 * z_decay)
    width = 1.0 / (2.0 * z_decay)
    step = max(kappa0 / 4.0, width)
    edges = np.concatenate((_initial_edges(0.0, kappa0, width),
                            kappa0 + step * np.arange(1, _TAIL_PANELS + 1)))
    inner = [b for b in breakpoints if 0.0 < b < kappa0]
    if inner:
        edges = np.unique(np.concatenate((edges, inner)))
    a, b = edges[:-1], edges[1:]
    val, err = _evaluate(f, a, b)
    evals = 15 * len(a)

    # Tail extension: single-panel probes until the last panel is a
    # negligible fraction of the running total.
    extensions = 0
    while True:
        running = np.sum(val, axis=-1)
        if np.all(np.abs(val[..., -1])
                  <= spec.tail_cutoff * np.maximum(np.abs(running), spec.abs_tol)):
            break
        if extensions == spec.max_subdivisions:
            raise NotConverged(
                "evanescent tail still contributing after "
                f"{extensions} extensions (kappa ~ {b[-1]:.3e})",
                _result(running, np.full(np.shape(running), np.inf), evals, False))
        lo, hi = b[-1:], b[-1:] + step
        probe_val, probe_err = _evaluate(f, lo, hi)
        a, b = np.concatenate((a, lo)), np.concatenate((b, hi))
        val = np.concatenate((val, probe_val), axis=-1)
        err = np.concatenate((err, probe_err), axis=-1)
        evals += 15
        extensions += 1

    return _refine(f, a, b, val, err, evals, spec, "evanescent")
