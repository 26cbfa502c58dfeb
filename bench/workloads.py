"""Workload inputs, output parsing and correctness checks.

Three workloads:

halfspace-sweep  The README half-space sweep through ``cli.main`` with
                 ``--workers 1 --reproducible``: the documented user path
                 and the plain serial baseline. Evanescent-heavy.
lens-sweep       The README mirror-backed left-handed slab sweep, JSON
                 output, ``--workers 2``: guided-mode scan, graded
                 breakpoints, amplified evanescent tails and the CLI's
                 process pool.
material-scan    Seeded random passive materials (half space,
                 mirror-backed slab, some perfect lenses), one
                 ``potential_auto`` call per point with a two-transition
                 mixed-dipole atom; z is log-uniform so every ``auto``
                 branch is reached. No two points share a material.

Only material-scan reads the seed; the sweeps are fixed README inputs.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import multiprocessing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import calibration
from tracing import patch, unpatch

SWEEP_ARGS = {
    "halfspace-sweep": [
        "sweep", "--geometry", "halfspace", "--eps-re", "-3",
        "--eps-im", "1e-3", "--zmin", "0.05", "--zmax", "50",
        "--points", "200", "--dipole", "par", "--reproducible",
        "--workers", "1"],
    "lens-sweep": [
        "sweep", "--geometry", "slab-mirror", "--eps-re", "-1",
        "--eps-im", "1e-4", "--mu-re", "-1", "--mu-im", "1e-4",
        "--thickness", "5", "--zmin", "5.2", "--zmax", "8",
        "--points", "60", "--reproducible", "--format", "json",
        "--workers", "2"],
}
WORKLOADS = ("halfspace-sweep", "lens-sweep", "material-scan")
REFERENCE_FILES = {"halfspace-sweep": "halfspace-sweep.csv",
                   "lens-sweep": "lens-sweep.json",
                   "material-scan": "material-scan.json"}
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Default quadrature tolerance of the CLI and of QuadratureSpec.
REL_TOL = 1e-8
# A value passes when |U - U_ref| <= ERR_FACTOR (err + err_ref)
# + REL_FACTOR rel_tol max(|U|, |U_ref|): both error estimates claim to
# bound their own distance from the true value.
ERR_FACTOR = 2.0
REL_FACTOR = 10.0

SCAN_BLOCK = 100      # points per stratified material-scan block
REFERENCE_SEED = 0    # seed whose first block is stored as the reference
SCAN_Z = (1e-3, 3e3)  # log-uniform range of z_A (normalized units)
# Slabs stay numeric at every z and cost ~z omega panels, so they stop
# earlier: otherwise a handful of points would carry most of a block's time.
SLAB_Z_MAX = 1e3
SCAN_OMEGAS = (1.0, 0.8)  # transition frequencies of the scan's atom
# Blocks per material-scan run, per second of --seconds: the scan's
# content depends on --seconds only, never on how fast the code is.
SCAN_BLOCKS_PER_SECOND = 0.25


def reference(workload: str) -> str:
    """Stored reference output of a workload (written by make_reference.py)."""
    return (REFERENCE_DIR / REFERENCE_FILES[workload]).read_text()


def workers(name: str) -> int:
    args = SWEEP_ARGS[name]
    return int(args[args.index("--workers") + 1])


def with_workers(args, n: int):
    out = list(args)
    out[out.index("--workers") + 1] = str(n)
    return out


def run_cli(args) -> str:
    """Run ``planarcp.cli.main`` in-process and return what it printed.

    Exit code 2 (some points failed) still yields rows, which the checks
    count; any other non-zero code is an error of the benchmark itself.
    """
    cli = importlib.import_module("planarcp.cli")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(args))
    if code not in (0, 2):
        raise RuntimeError(f"planarcp {' '.join(args)} exited with {code}")
    return buf.getvalue()


def first_point(workload: str):
    """(atom, geometry, z) of the first point of a workload's set-up probe.

    For material-scan this is the reference seed's first point, so that
    set-up time does not vary with the seed.
    """
    from planarcp import (Atom, HalfSpace, SlabWithMirror, Transition,
                          validate_material)

    if workload == "material-scan":
        point = scan_block(REFERENCE_SEED, 0)[0]
        return point.atom, point.geometry, point.z
    atom = Atom([Transition(1.0, 1.0, 0.0)])
    if workload == "halfspace-sweep":
        return atom, HalfSpace(validate_material(-3 + 1e-3j, 1.0)), 0.05
    material = validate_material(-1 + 1e-4j, -1 + 1e-4j)
    return atom, SlabWithMirror(material, 5.0), 5.2


def sweep_rows(text: str):
    """(z, U, U_err, method) rows of a CSV or JSON sweep output."""
    if text.lstrip().startswith("{"):
        return [(r["z_norm"], r["U_norm"], r["U_err"], r["method"])
                for r in json.loads(text)["rows"]]
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    rows = []
    for line in lines[1:]:
        z, u, err, method = line.split(",")
        rows.append((float(z), float(u), float(err), method))
    return rows


def within_tolerance(value, error, ref_value, ref_error) -> bool:
    if not (math.isfinite(value) and math.isfinite(error)):
        return False
    tol = (ERR_FACTOR * (error + ref_error)
           + REL_FACTOR * REL_TOL * max(abs(value), abs(ref_value)))
    return abs(value - ref_value) <= tol


def check_sweep(text: str, ref_text: str, first_text: str | None) -> list[bool]:
    """One flag per row: True when the row failed.

    A row fails if the CLI marked it failed, if it lies outside the
    tolerance of the stored reference, or if it differs from the same row
    of the first sweep of the run (reproducible output must repeat
    bytewise; a differing header fails every row).
    """
    rows, ref = sweep_rows(text), sweep_rows(ref_text)
    if len(rows) != len(ref):
        return [True] * max(len(rows), len(ref))
    header_differs = (first_text is not None and text != first_text
                      and _header(text) != _header(first_text))
    first = sweep_rows(first_text) if first_text is not None else rows
    failed = []
    for row, ref_row, first_row in zip(rows, ref, first):
        z, u, err, method = row
        bad = (method == "failed" or z != ref_row[0] or row != first_row
               or header_differs
               or not within_tolerance(u, err, ref_row[1], ref_row[2]))
        failed.append(bad)
    return failed


def _header(text: str) -> str:
    if text.lstrip().startswith("{"):
        meta = json.loads(text)
        meta.pop("rows", None)
        return json.dumps(meta, sort_keys=True)
    return "\n".join(ln for ln in text.splitlines() if ln.startswith("#"))


class PointClock:
    """Wall time of each call the CLI makes into the potential layer.

    The timer replaces ``cli.potential_*`` before the CLI starts its
    process pool, so forked workers inherit it. Around each call it also
    times the calibration kernel in the same process (see calibration.py).
    (z, seconds, kernel seconds) records go to shared memory, so those
    made inside workers reach this process. A call that raises is recorded
    too, with z = NaN, so every row of the output has its record.
    """

    def __init__(self, capacity: int):
        self._lock = multiprocessing.Lock()
        self._n = multiprocessing.RawValue("l", 0)
        self._slots = [multiprocessing.RawArray("d", capacity) for _ in range(3)]

    def __enter__(self):
        self._patched = patch("cli", "potential_*", self._timed,
                              "no point can be timed")
        if not self._patched:
            raise RuntimeError("planarcp.cli has no potential_* names to time")
        return self

    def __exit__(self, *exc):
        unpatch(self._patched)

    def _timed(self, fn):
        lock, n, slots = self._lock, self._n, self._slots
        clock = calibration.KernelClock()

        def call(*args, **kwargs):
            try:
                return fn(*args, **kwargs), None
            except Exception as exc:  # recorded below, then raised again
                return None, exc

        def timed(*args, **kwargs):
            (out, exc), seconds, kernel_s = clock.time(call, *args, **kwargs)
            with lock:
                i = n.value
                n.value = i + 1
            if i < len(slots[0]):
                z = float("nan") if exc is not None else out.z_A
                for slot, value in zip(slots, (z, seconds, kernel_s)):
                    slot[i] = value
            if exc is not None:
                raise exc
            return out

        return timed

    def take(self) -> list[tuple[float, float, float]]:
        """(z, seconds, kernel seconds) of the calls since the last take."""
        with self._lock:
            count = self._n.value
            self._n.value = 0
        if count > len(self._slots[0]):
            raise RuntimeError(f"{count} potential calls overflow the "
                               f"{len(self._slots[0])}-slot timer")
        return list(zip(*(slot[:count] for slot in self._slots)))


# --- material-scan ---------------------------------------------------------

@dataclass(frozen=True)
class ScanPoint:
    record: dict      # plain-JSON description of the inputs
    atom: object
    geometry: object
    z: float


def scan_block(seed: int, block: int, n: int = SCAN_BLOCK) -> list[ScanPoint]:
    """n seeded points, stratified in every drawn input.

    Stratifying z (the main cost driver: the propagating sector needs
    ~z omega panels) and the losses (which set how finely resonances are
    pinned) keeps the cost of one block nearly the same from seed to seed,
    while every point still gets its own material.
    Geometries: 45% half space, 45% mirror-backed slab, 10% perfect lens.
    z is log-uniform in SCAN_Z (slabs: up to SLAB_Z_MAX); perfect lenses
    sit at z = d (1 + 10^[-2, 1]). Losses are log-uniform in [1e-4, 1];
    Re eps and Re mu uniform in [-4, 4]; slab thickness log-uniform in
    [0.05, 2]; transitions at SCAN_OMEGAS, each with a random mix of
    parallel and perpendicular dipole.
    """
    from planarcp import (Atom, HalfSpace, PerfectLens, SlabWithMirror,
                          Transition, validate_material)

    rng = np.random.default_rng([seed, block])

    n_half, n_lens = (45 * n) // 100, (10 * n) // 100
    kinds = rng.permutation(np.repeat(
        ["halfspace", "slab-mirror", "perfect-lens"],
        [n_half, n - n_half - n_lens, n_lens]))
    groups = [np.flatnonzero(kinds == k) for k in np.unique(kinds)]

    def strata(offset=None):
        # Systematic sampling within each geometry: every block holds nearly
        # the same values for each geometry, so its cost barely changes
        # with the seed, which shuffles how they are combined.
        u = np.empty(n)
        for where in groups:
            shift = rng.random() if offset is None else offset
            u[where] = (rng.permutation(len(where)) + shift) / len(where)
        return u

    # z alone sets most of a point's cost (~z omega panels), so its offset
    # does not come from the seed: block b takes the b-th point of the
    # base-2 van der Corput sequence, and the blocks of a run fill in a
    # fixed log-uniform grid.
    u_z = strata(_van_der_corput(block + 1))
    u_eps_re, u_eps_im, u_mu_re, u_mu_im, u_d, u_mix1, u_mix2 = (
        strata() for _ in range(7))
    z_max = np.where(kinds == "slab-mirror", SLAB_Z_MAX, SCAN_Z[1])
    log_z = np.log10(SCAN_Z[0]) + u_z * np.log10(z_max / SCAN_Z[0])
    points = []
    for i in range(n):
        eps = complex(-4.0 + 8.0 * u_eps_re[i], 10.0 ** (-4.0 + 4.0 * u_eps_im[i]))
        mu = complex(-4.0 + 8.0 * u_mu_re[i], 10.0 ** (-4.0 + 4.0 * u_mu_im[i]))
        d = 0.05 * 40.0 ** u_d[i]
        z = 10.0 ** log_z[i]
        kind = str(kinds[i])
        if kind == "perfect-lens":
            z = d * (1.0 + 10.0 ** (-2.0 + 3.0 * u_z[i]))
        mix = (0.1 + 0.8 * u_mix1[i], 0.1 + 0.8 * u_mix2[i])
        transitions = [(omega, m, 1.0 - m)
                       for omega, m in zip(SCAN_OMEGAS, mix)]
        record = {"kind": kind, "eps": [eps.real, eps.imag],
                  "mu": [mu.real, mu.imag], "d": d, "z": z,
                  "transitions": transitions}
        if kind == "halfspace":
            geometry = HalfSpace(validate_material(eps, mu))
        elif kind == "slab-mirror":
            geometry = SlabWithMirror(validate_material(eps, mu), d)
        else:
            geometry = PerfectLens(d)
        atom = Atom([Transition(*t) for t in transitions])
        points.append(ScanPoint(record, atom, geometry, z))
    return points


def _van_der_corput(k: int) -> float:
    """k-th point (k >= 1) of the base-2 van der Corput sequence in (0, 1)."""
    x, f = 0.0, 0.5
    while k:
        x += f * (k & 1)
        k >>= 1
        f /= 2.0
    return x


def point_failed(sample) -> bool:
    value = getattr(sample, "value", float("nan"))
    error = getattr(sample, "error_estimate", float("nan"))
    return not (math.isfinite(value) and math.isfinite(error) and error >= 0.0)


def check_scan(points, samples, reference) -> list[bool]:
    """Flags (True: failed) for a scan compared with stored reference rows."""
    if len(samples) != len(reference):
        return [True] * max(len(samples), len(reference))
    failed = []
    for point, sample, ref in zip(points, samples, reference):
        bad = (sample is None
               or json.loads(json.dumps(point.record)) != ref["inputs"]
               or point_failed(sample)
               or not within_tolerance(sample.value, sample.error_estimate,
                                       ref["value"], ref["error"]))
        failed.append(bad)
    return failed


def scan_reference_rows(points, samples) -> list[dict]:
    return [{"inputs": p.record, "value": s.value, "error": s.error_estimate,
             "method": s.method.value} for p, s in zip(points, samples)]
