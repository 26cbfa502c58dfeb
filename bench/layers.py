"""Layer microbenchmarks and the error-calibration check of the traced run.

Each function looks up the library names it needs when called; a name a
later refactor removed makes that metric absent (``None``, with a
warning) instead of stopping the run.
"""

from __future__ import annotations

import importlib
import math
import statistics
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from tracing import find

# Materials of the halfspace-sweep and lens-sweep workloads.
HALFSPACE_EPS_MU = (-3 + 1e-3j, 1.0 + 0j)
SLAB_EPS_MU_D = (-1 + 1e-4j, -1 + 1e-4j, 5.0)

# Seconds each microbenchmark repeats its call for (median over batches).
BUDGET_S = 0.25
# Fixed initial panel count of the propagating-engine microbenchmark.
PANELS = 64
# Decay distance of the evanescent-engine microbenchmark's constant integrand.
Z_DECAY = 0.5

# Fixed oracle cases, (kind, eps, mu, thickness, z): lossy enough that the
# uniform-grid reference resolves them (its own error is reported too).
ORACLE_CASES = (
    ("halfspace", 2.0 + 0.1j, 1.0 + 0j, 0.0, 0.5),
    ("halfspace", -3.0 + 0.5j, 1.5 + 0.2j, 0.0, 2.0),
    ("slab-mirror", 2.5 + 0.2j, 1.2 + 0.05j, 0.7, 0.3),
)


def _lookup(module_name: str, *names):
    """The named callables of planarcp.<module_name>, or None (with a
    warning from tracing.find) when one is missing."""
    found = []
    for name in names:
        module, matched = find(module_name, name, "dependent layer metric absent")
        if not matched:
            return None
        found.append(getattr(module, name))
    return found


def _per_call_seconds(call) -> float:
    """Median over batches of the mean time of one call."""
    call()
    t0 = time.perf_counter()
    call()
    once = max(time.perf_counter() - t0, 1e-7)
    batch = max(1, int(0.02 / once))
    samples = []
    end = time.perf_counter() + BUDGET_S
    while time.perf_counter() < end or len(samples) < 5:
        t0 = time.perf_counter()
        for _ in range(batch):
            call()
        samples.append((time.perf_counter() - t0) / batch)
    return statistics.median(samples)


def dispersion_ns_per_node(kind: str, nodes: int):
    """Nanoseconds per node of the wavenumbers plus reflection coefficients.

    Nodes span both sectors (q in [0, 3 omega/c]), as one engine panel
    or one batched evaluation would.
    """
    fns = _lookup("dispersion", "vacuum_beta", "medium_beta1",
                  "halfspace_rs_rp" if kind == "halfspace" else "slab_mirror_rs_rp")
    core = _lookup("core", "validate_material")
    if fns is None or core is None:
        return None
    vacuum_beta, medium_beta1, rs_rp = fns
    q = np.linspace(0.0, 3.0, nodes)
    if kind == "halfspace":
        material = core[0](*HALFSPACE_EPS_MU)

        def call():
            rs_rp(vacuum_beta(q, 1.0), medium_beta1(q, 1.0, material), material)
    else:
        eps, mu, d = SLAB_EPS_MU_D
        material = core[0](eps, mu)

        def call():
            rs_rp(vacuum_beta(q, 1.0), medium_beta1(q, 1.0, material),
                  material, d)
    return _per_call_seconds(call) / nodes * 1e9


def quadrature_us_per_panel():
    """Microseconds per panel of integrate_propagating on a trivial integrand.

    A linear integrand is exact on every GK15 panel, so the engine keeps
    its initial PANELS panels and the time is pure engine overhead.
    """
    fns = _lookup("quadrature", "integrate_propagating")
    if fns is None:
        return None
    integrate = fns[0]
    result = integrate(_identity, 1.0, max_panel_width=1.0 / PANELS)
    done = result.evaluations / 15
    seconds = _per_call_seconds(
        lambda: integrate(_identity, 1.0, max_panel_width=1.0 / PANELS))
    return seconds / done * 1e6


def evanescent_evals_trivial():
    """Integrand evaluations integrate_evanescent spends on a constant
    prefactor (integrand exp(-2 kappa Z_DECAY))."""
    fns = _lookup("quadrature", "integrate_evanescent")
    if fns is None:
        return None
    return fns[0](np.ones_like, Z_DECAY).evaluations


def _identity(x):
    return x


def green_err_ratio_max(root: Path):
    """Max over fixed cases of |engine - oracle| / claimed error estimate.

    Above 1 the engine's error estimate undershoots its actual error
    against the independent Simpson reference in ``tests/oracle.py``.
    Returns (ratio, details) or (None, []) when a piece is missing.
    """
    tests_dir = str(root / "tests")
    if not (root / "tests" / "oracle.py").is_file():
        warnings.warn("tests/oracle.py not found; green.err_ratio_max absent",
                      stacklevel=2)
        return None, []
    sys.path.insert(0, tests_dir)
    try:
        oracle = importlib.import_module("oracle")
    finally:
        sys.path.remove(tests_dir)
    fns = _lookup("green", "green_components")
    core = _lookup("core", "HalfSpace", "SlabWithMirror", "validate_material")
    if fns is None or core is None:
        return None, []
    green_components = fns[0]
    HalfSpace, SlabWithMirror, validate_material = core
    ratio, details = 0.0, []
    for kind, eps, mu, d, z in ORACLE_CASES:
        material = validate_material(eps, mu)
        geometry = (HalfSpace(material) if kind == "halfspace"
                    else SlabWithMirror(material, d))
        g = green_components(z, 1.0, geometry)
        ref_xx, ref_zz, oerr_xx, oerr_zz = oracle.simpson_green_with_error(
            z, 1.0, geometry)
        for name, value, claimed, ref, oerr in (
                ("xx", g.g_xx, getattr(g, "error_xx", g.error_estimate), ref_xx, oerr_xx),
                ("zz", g.g_zz, getattr(g, "error_zz", g.error_estimate), ref_zz, oerr_zz)):
            actual = abs(value - ref)
            r = actual / claimed if claimed > 0.0 else math.inf
            ratio = max(ratio, float(r))
            details.append({"case": f"{kind} eps={eps} mu={mu} d={d} z={z} G_{name}",
                            "actual": float(actual), "claimed": float(claimed),
                            "oracle_err": float(oerr), "ratio": float(r)})
    return ratio, details
