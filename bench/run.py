"""planarcp benchmark: run one workload, print its metrics.

    python3 bench/run.py --workload halfspace-sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; planarcp is imported from
``src/``. With ``--trace 0`` the run times the workload and prints the
end-to-end metrics; with ``--trace 1`` it hooks the layer boundaries
(see tracing.py) and prints the per-layer metrics. Human-readable lines
come first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. Spans of a traced
run are written to ``.bench_out/``. See bench/README.md for the design.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import calibration
import layers
import workloads as wl
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_SAMPLES = 9
SCAN_DETERMINISM_POINTS = 5


def _import_planarcp():
    if not (SRC / "planarcp" / "__init__.py").is_file():
        raise SystemExit(f"bench: no planarcp sources under {SRC}; run from "
                         "the root of a planarcp checkout")
    sys.path.insert(0, str(SRC))
    import planarcp

    if Path(planarcp.__file__).resolve().parent != SRC / "planarcp":
        raise SystemExit(f"bench: imported planarcp from {planarcp.__file__}, "
                         f"not from {SRC}")


def _percentile(values, q):
    """Linear-interpolation percentile (numpy's default), q in [0, 100]."""
    return float(np.percentile(np.asarray(values, dtype=float), q))


class Tally:
    """Attempted and failed points of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, flags):
        self.attempted += len(flags)
        self.failed += sum(1 for f in flags if f)


# --- set-up ----------------------------------------------------------------

def setup_seconds(workload: str) -> list[float]:
    """Import-plus-first-point times, each in a fresh interpreter.

    Each probe is rescaled by the mean of the calibration import probes
    run just before and just after it (see calibration.py). One probe of
    each kind runs first, untimed, so that bytecode caches are warm.
    """
    probe = [sys.executable, str(ROOT / "bench" / "first_point.py"), workload]
    reference = [sys.executable, "-c", calibration.IMPORT_PROBE]

    def seconds(command):
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=False)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        return float(done.stdout)

    seconds(probe)
    seconds(reference)
    before = seconds(reference)
    samples = []
    for _ in range(SETUP_SAMPLES):
        raw = seconds(probe)
        after = seconds(reference)
        samples.append(raw * calibration.REFERENCE_IMPORT_S / (0.5 * (before + after)))
        before = after
    return samples


# --- timed runs (--trace 0) ------------------------------------------------

def time_sweeps(workload: str, seconds: float, tally: Tally):
    """Repeat the CLI sweep until `seconds` have passed.

    Each point is followed by the calibration kernel in the process that
    computed it. A sweep's wall time, less the kernels' share, is rescaled
    by the mean kernel time of the sweep; each point's latency by the
    kernel runs around it. Returns the median rescaled rate (points/s),
    the rescaled latencies (s) and notes.
    """
    args = wl.SWEEP_ARGS[workload]
    reference = wl.reference(workload)
    n_points = len(wl.sweep_rows(reference))
    n_workers = wl.workers(workload)
    walls, rates, latencies, first = [], [], [], None
    with wl.PointClock(4 * n_points) as clock:
        wl.run_cli(_two_point_args(args))  # warm-up, untimed
        clock.take()
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            text = wl.run_cli(args)
            wall = time.perf_counter() - t0
            timed = clock.take()
            if len(timed) != n_points:
                raise RuntimeError(f"timed {len(timed)} potential calls "
                                   f"for {n_points} points")
            kernels = [k for _, _, k in timed]
            busy = wall - sum(kernels) / n_workers
            rates.append(n_points / calibration.rescale(busy, statistics.fmean(kernels)))
            walls.append(busy)
            latencies.extend(calibration.rescale(dt, k) for _, dt, k in timed)
            tally.add(wl.check_sweep(text, reference, first))
            first = first or text
            if time.perf_counter() - start >= seconds:
                break
    if n_workers > 1:
        # The pool must not change the bytes: compare with a serial sweep.
        serial = wl.run_cli(wl.with_workers(args, 1))
        tally.add(wl.check_sweep(serial, reference, first))
    notes = {"sweeps": len(walls),
             "unscaled_points_per_s": n_points / statistics.median(walls)}
    return statistics.median(rates), latencies, notes


def _two_point_args(args):
    out = list(args)
    out[out.index("--points") + 1] = "2"
    return out


def evaluate_scan(points, potential_auto, latencies=None):
    """potential_auto on every point; None marks a point that raised.

    With `latencies`, appends each point's time rescaled by the
    calibration kernel runs around it.
    """
    def call(p):
        try:
            return potential_auto(p.atom, p.geometry, p.z)
        except Exception:  # a raising point is a failed point, not a crash
            traceback.print_exc(limit=3, file=sys.stderr)
            return None

    if latencies is None:
        return [call(p) for p in points]
    clock = calibration.KernelClock()
    timed = [clock.time(call, p) for p in points]
    latencies.extend(calibration.rescale(dt, k) for _, dt, k in timed)
    return [sample for sample, _, _ in timed]


def scan_flags(samples):
    return [s is None or wl.point_failed(s) for s in samples]


def time_scan(seed: int, seconds: float, tally: Tally):
    """A fixed number of stratified blocks of the seeded scan.

    The number of blocks follows from `seconds` alone (about that long at
    the speed of the commit that added the benchmark), so faster code
    measures the same points. Every point is a fresh material; its time
    is rescaled by the calibration kernel timed around it. Returns the
    rate over all points, their rescaled latencies and notes.
    """
    from planarcp import potential_auto

    reference = json.loads(wl.reference("material-scan"))
    latencies = []
    start = time.perf_counter()
    blocks = max(1, round(seconds * wl.SCAN_BLOCKS_PER_SECOND))
    for block in range(blocks):
        points = wl.scan_block(seed, block)
        samples = evaluate_scan(points, potential_auto, latencies)
        flags = scan_flags(samples)
        if block == 0:
            first_block = (points, samples)
            if seed == wl.REFERENCE_SEED:
                flags = [a or b for a, b in
                         zip(flags, wl.check_scan(points, samples, reference))]
        tally.add(flags)
    wall = time.perf_counter() - start
    if seed != wl.REFERENCE_SEED:
        points = wl.scan_block(wl.REFERENCE_SEED, 0)
        samples = evaluate_scan(points, potential_auto)
        tally.add(wl.check_scan(points, samples, reference))
    # Identical inputs must give identical values.
    points, samples = first_block
    again = evaluate_scan(points[:SCAN_DETERMINISM_POINTS], potential_auto)
    tally.add([_sample_bytes(a) != _sample_bytes(b)
               for a, b in zip(again, samples)])
    notes = {"blocks": blocks, "wall_points_per_s": len(latencies) / wall}
    return len(latencies) / sum(latencies), latencies, notes


def _sample_bytes(sample):
    if sample is None:
        return None
    return repr((sample.value, sample.error_estimate, sample.method.value))


def timed_run(workload: str, seed: int, seconds: float):
    tally = Tally()
    setup = setup_seconds(workload)
    if workload == "material-scan":
        rate, latencies, notes = time_scan(seed, seconds, tally)
    else:
        rate, latencies, notes = time_sweeps(workload, seconds, tally)
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    metrics = {
        "points_per_s": (rate, "1/s"),
        "point_ms_p50": (_percentile(latencies, 50) * 1e3, "ms"),
        "point_ms_p90": (_percentile(latencies, 90) * 1e3, "ms"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    notes.update(latency_samples=len(latencies),
                 fail_frac=tally.failed / max(tally.attempted, 1))
    return metrics, tally, notes


# --- traced runs (--trace 1) -----------------------------------------------

def fixed_pass(workload: str, seed: int, tracer=None):
    """The fixed work of a traced run, serially: one sweep or one scan block.

    Returns (wall seconds, CPU seconds, output bytes, failure flags).
    """
    if workload == "material-scan":
        import planarcp.potential as potential

        points = wl.scan_block(seed, 0)
        call, scan = potential.potential_auto, evaluate_scan
        if tracer is not None:
            # The scan loop stands in for the CLI: it drives the points
            # and calls the potential layer, so its span is the cli layer.
            call = tracer.wrap("potential", call)
            scan = tracer.wrap("cli", scan)
        t0, c0 = time.perf_counter(), time.process_time()
        samples = scan(points, call)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        text = "\n".join(str(_sample_bytes(s)) for s in samples)
        return wall, cpu, text, scan_flags(samples)
    import planarcp.cli as cli

    args = wl.with_workers(wl.SWEEP_ARGS[workload], 1)
    main = cli.main
    if tracer is not None:
        cli.main = tracer.wrap("cli", main)
    try:
        t0, c0 = time.perf_counter(), time.process_time()
        text = wl.run_cli(args)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    finally:
        cli.main = main
    return wall, cpu, text, wl.check_sweep(text, wl.reference(workload), None)


def pooled_pass(workload: str):
    """One untraced sweep at the workload's own worker count.

    Returns (wall seconds, worker CPU seconds, output bytes).
    """
    args = wl.SWEEP_ARGS[workload]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    text = wl.run_cli(args)
    wall = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return wall, cpu, text


def traced_run(workload: str, seed: int, seconds: float):
    """Alternate untraced and traced fixed passes until `seconds` have passed.

    Counts come from the first traced pass (they repeat exactly); times
    are medians over the passes. A workload with a process pool also gets
    an untraced pass at its own worker count in every round.
    """
    pooled = workload in wl.SWEEP_ARGS and wl.workers(workload) > 1
    tally = Tally()
    plain, traced, busy, summaries, first = [], [], [], [], None
    start = time.perf_counter()
    while True:
        wall, cpu, text, flags = fixed_pass(workload, seed)
        plain.append(wall)
        tally.add(flags)
        tracer = Tracer()
        with tracer:
            t_wall, _, t_text, t_flags = fixed_pass(workload, seed, tracer)
        traced.append(t_wall)
        summaries.append(tracer.summary())
        first = first or tracer  # later passes keep only their summaries
        # Tracing must not change a single byte of the output.
        tally.add([f or t_text != text for f in t_flags])
        if pooled:
            # How busy the workers are; the pool must not change the bytes.
            wall, cpu, pooled_text = pooled_pass(workload)
            tally.add([a != b for a, b in zip(wl.sweep_rows(pooled_text),
                                              wl.sweep_rows(text))]
                      + [pooled_text != text])
        busy.append((cpu, cpu / (wall * (wl.workers(workload) if pooled else 1))))
        if time.perf_counter() - start >= seconds:
            break
    OUT_DIR.mkdir(exist_ok=True)
    first.save(OUT_DIR / f"spans-{workload}-seed{seed}.npz")

    micro, err_details = micro_metrics()
    # The benchmark wraps its cli-layer driver itself on every workload:
    # cli.main on the sweeps, the scan loop on material-scan.
    installed = first.installed | {"cli"}
    metrics = layer_metrics(first.counts, summaries, installed, micro)
    # CPU time and efficiency of the processes that evaluate points, in
    # untraced passes at the workload's own worker count (the benchmark
    # loop for material-scan, which does not use the CLI). They need no
    # hook, so they are reported on every workload.
    metrics["cli.worker_cpu_s"] = (statistics.median(c for c, _ in busy), "s")
    metrics["cli.parallel_efficiency"] = (statistics.median(e for _, e in busy),
                                          "ratio")
    overheads = [t / p - 1.0 for t, p in zip(traced, plain)]
    metrics["trace.overhead_frac"] = (statistics.median(overheads), "ratio")
    notes = {"passes": len(traced), "fail_frac": tally.failed / max(tally.attempted, 1),
             "err_ratio_cases": err_details}
    return metrics, tally, notes


def micro_metrics():
    """Layer microbenchmarks and the oracle check: name -> (value, unit, layer)."""
    out = {}
    for kind in ("halfspace", "slab"):
        for n in (15, 600):
            out[f"dispersion.{kind}.ns_per_node.{n}"] = (
                layers.dispersion_ns_per_node(kind, n), "ns", "dispersion")
    out["quadrature.us_per_panel"] = (
        layers.quadrature_us_per_panel(), "us", "quadrature.propagating")
    out["quadrature.evanescent.evals_trivial"] = (
        layers.evanescent_evals_trivial(), "count", "quadrature.evanescent")
    ratio, details = layers.green_err_ratio_max(ROOT)
    out["green.err_ratio_max"] = (ratio, "ratio", "green")
    return out, details


def layer_metrics(counts, summaries, installed, micro):
    """Per-layer metrics from the traced passes' counts and span summaries.

    Metrics of a layer without an installed hook, and microbenchmarks
    that returned None, are left out.
    """
    metrics = {}

    def put(name, value, unit, layer):
        if layer in installed and value is not None:
            metrics[name] = (value, unit)

    def self_s(layer):
        return statistics.median(s[layer]["self_s"] for s in summaries)

    def ratio(a, b):
        return counts[a] / counts[b] if counts[b] else 0.0

    put("dispersion.calls", counts["dispersion.calls"], "count", "dispersion")
    put("dispersion.nodes", counts["dispersion.nodes"], "count", "dispersion")
    put("dispersion.nodes_per_call",
        ratio("dispersion.nodes", "dispersion.calls"), "count", "dispersion")
    put("dispersion.self_s", self_s("dispersion"), "s", "dispersion")
    for sector in ("evanescent", "propagating"):
        layer = f"quadrature.{sector}"
        put(f"{layer}.calls", counts[f"{layer}.calls"], "count", layer)
        put(f"{layer}.evals", counts[f"{layer}.evals"], "count", layer)
        put(f"{layer}.self_s", self_s(layer), "s", layer)
    put("quadrature.not_converged", counts["quadrature.not_converged"], "count",
        "quadrature.evanescent")
    put("green.calls", counts["green.calls"], "count", "green")
    put("green.evals_per_call", ratio("green.evals", "green.calls"), "count", "green")
    green_ms = [d for s in summaries for d in s["green"]["durations"]]
    put("green.ms_per_call_p50",
        _percentile(green_ms, 50) * 1e3 if green_ms else 0.0, "ms", "green")
    put("green.self_s", self_s("green"), "s", "green")
    for method in ("numeric", "nonretarded", "retarded", "closed-form"):
        put(f"potential.calls.{method}", counts[f"potential.calls.{method}"],
            "count", "potential")
    put("potential.green_calls_per_point",
        ratio("green.calls", "potential.calls"), "count", "potential")
    put("potential.self_s", self_s("potential"), "s", "potential")
    put("cli.self_s", self_s("cli"), "s", "cli")
    for name, (value, unit, layer) in micro.items():
        put(name, value, unit, layer)
    return metrics


# --- entry point -----------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_planarcp()
    if args.workload not in wl.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(wl.WORKLOADS)}")
    run = traced_run if args.trace else timed_run
    metrics, tally, notes = run(args.workload, args.seed, args.seconds)

    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    for name, value in notes.items():
        if name == "err_ratio_cases":
            for case in value:
                print(f"{args.workload} err_ratio {case}")
        else:
            print(f"{args.workload} {name} {value}")
    for name in [n for n, (v, _) in metrics.items() if not math.isfinite(v)]:
        print(f"bench: {name} is not finite; reported as absent", file=sys.stderr)
        del metrics[name]
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": _number(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _number(value):
    return value if isinstance(value, int) else float(value)


if __name__ == "__main__":
    sys.exit(main())
