"""Boundary tracing for planarcp, installed from outside the library.

Each hook wraps a name that one planarcp module imports from the layer
below it (for example ``green.integrate_evanescent``), so a span covers
exactly one call across a layer boundary. Spans (layer, start, end,
parent) and per-layer counts are kept in memory and written out once, by
``Tracer.save``, when the benchmark ends.

A hook whose module or name no longer exists is skipped with a warning;
the metrics of a layer with no installed hook are then reported as
absent instead of as zero.
"""

from __future__ import annotations

import fnmatch
import importlib
import time
import warnings
from collections import Counter

import numpy as np

# (module under planarcp, name pattern, layer). Patterns match the names
# the module imported from the layer below.
HOOKS = (
    ("cli", "potential_*", "potential"),
    ("potential", "green_components", "green"),
    ("green", "integrate_propagating", "quadrature.propagating"),
    ("green", "integrate_evanescent", "quadrature.evanescent"),
    ("green", "vacuum_beta", "dispersion"),
    ("green", "medium_beta1", "dispersion"),
    ("green", "*_rs_rp", "dispersion"),
)

PACKAGE = "planarcp"

LAYERS = ("cli", "potential", "green", "quadrature.propagating",
          "quadrature.evanescent", "dispersion")


class Tracer:
    """Records spans and counts at the hooked layer boundaries."""

    def __init__(self):
        self._layer = []
        self._start = []
        self._end = []
        self._parent = []
        self._stack = [-1]
        self.counts = Counter()
        self.installed = set()
        self._patched = []

    def wrap(self, layer: str, fn):
        """Return fn wrapped so that each call records one span of layer."""
        layer_id = LAYERS.index(layer)
        count = _COUNTERS[layer.split(".")[0]]
        layers, starts, ends = self._layer, self._start, self._end
        parents, stack, counts = self._parent, self._stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            layers.append(layer_id)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                count(counts, layer, args, None, exc)
                raise
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
            count(counts, layer, args, out, None)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self, hooks=HOOKS) -> None:
        """Wrap every hooked name; warn about those that cannot be found."""
        for module_name, pattern, layer in hooks:
            patched = patch(module_name, pattern,
                            lambda fn, layer=layer: self.wrap(layer, fn),
                            f"{layer} metrics absent")
            if patched:
                self._patched.extend(patched)
                self.installed.add(layer)

    def uninstall(self) -> None:
        """Restore every wrapped name."""
        unpatch(self._patched)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def spans(self):
        """Spans as arrays: layer index, start, end, parent index (-1: root)."""
        return (np.asarray(self._layer, dtype=np.int8),
                np.asarray(self._start), np.asarray(self._end),
                np.asarray(self._parent, dtype=np.int64))

    def summary(self) -> dict:
        """Per layer: span count, total, self time and the durations."""
        layer, start, end, parent = self.spans()
        duration = end - start
        covered = np.bincount(parent + 1, weights=duration,
                              minlength=len(duration) + 1)
        self_time = duration - covered[1:]
        out = {}
        for i, name in enumerate(LAYERS):
            mask = layer == i
            out[name] = {"spans": int(mask.sum()),
                         "total_s": float(duration[mask].sum()),
                         "self_s": float(self_time[mask].sum()),
                         "durations": duration[mask]}
        return out

    def save(self, path) -> None:
        """Write the spans to an .npz file (arrays plus the layer names)."""
        layer, start, end, parent = self.spans()
        t0 = start.min() if len(start) else 0.0
        np.savez(path, layer=layer, start=start - t0, end=end - t0,
                 parent=parent, layer_names=np.asarray(LAYERS))


def find(module_name: str, pattern: str, absent: str):
    """planarcp.<module_name> and its callable names matching pattern.

    When the module or every such name is missing, warns that `absent`
    follows and returns (None, []).
    """
    try:
        module = importlib.import_module(f"{PACKAGE}.{module_name}")
    except ImportError:
        module = None
    names = [] if module is None else sorted(
        n for n in vars(module)
        if fnmatch.fnmatchcase(n, pattern) and callable(getattr(module, n)))
    if not names:
        warnings.warn(f"{PACKAGE}.{module_name} has no {pattern}; {absent}",
                      stacklevel=3)
        return None, []
    return module, names


def patch(module_name: str, pattern: str, make_wrapper, absent: str):
    """Replace each name `find` returns by make_wrapper(original).

    Returns the (module, name, original) triples for `unpatch`; an empty
    list (after find's warning) when nothing matched.
    """
    module, names = find(module_name, pattern, absent)
    patched = []
    for name in names:
        original = getattr(module, name)
        patched.append((module, name, original))
        setattr(module, name, make_wrapper(original))
    return patched


def unpatch(patched) -> None:
    """Restore the names `patch` replaced, and empty the list."""
    for module, name, original in reversed(patched):
        setattr(module, name, original)
    patched.clear()


def _count_calls(counts, layer, args, out, exc):
    counts[f"{layer}.calls"] += 1


def _count_dispersion(counts, layer, args, out, exc):
    counts["dispersion.calls"] += 1
    counts["dispersion.nodes"] += int(np.size(args[0])) if args else 0


def _count_quadrature(counts, layer, args, out, exc):
    counts[f"{layer}.calls"] += 1
    result = out if exc is None else getattr(exc, "result", None)
    counts[f"{layer}.evals"] += int(getattr(result, "evaluations", 0) or 0)
    if exc is not None and type(exc).__name__ == "NotConverged":
        counts["quadrature.not_converged"] += 1


def _count_green(counts, layer, args, out, exc):
    counts["green.calls"] += 1
    counts["green.evals"] += int(getattr(out, "evaluations", 0) or 0)


def _count_potential(counts, layer, args, out, exc):
    counts["potential.calls"] += 1
    method = getattr(out, "method", None)
    name = getattr(method, "value", "failed") if exc is None else "failed"
    counts[f"potential.calls.{name}"] += 1


_COUNTERS = {
    "cli": _count_calls,
    "potential": _count_potential,
    "green": _count_green,
    "quadrature": _count_quadrature,
    "dispersion": _count_dispersion,
}
