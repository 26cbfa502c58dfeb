"""Tests of the benchmark's own machinery.

    python3 -m pytest bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import planarcp.green  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import HOOKS, LAYERS, Tracer  # noqa: E402


class TestTracer:
    def test_install_wraps_and_uninstall_restores(self):
        original = planarcp.green.integrate_evanescent
        tracer = Tracer()
        with tracer:
            assert planarcp.green.integrate_evanescent is not original
            assert planarcp.green.integrate_evanescent.__wrapped__ is original
        assert planarcp.green.integrate_evanescent is original
        assert tracer.installed == {"potential", "green", "dispersion",
                                    "quadrature.propagating",
                                    "quadrature.evanescent"}

    def test_missing_names_warn_and_leave_layer_absent(self):
        hooks = (("green", "green_xx_removed", "green"),
                 ("no_such_module", "potential_*", "potential"),
                 ("green", "vacuum_beta", "dispersion"))
        tracer = Tracer()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            tracer.install(hooks)
        tracer.uninstall()
        assert tracer.installed == {"dispersion"}
        text = " ".join(str(w.message) for w in caught)
        assert "green metrics absent" in text
        assert "potential metrics absent" in text

    def test_absent_layer_metrics_are_omitted(self):
        tracer = Tracer()
        tracer.installed = {"dispersion"}
        metrics = run.layer_metrics(tracer.counts, [tracer.summary()],
                                    tracer.installed, micro={})
        assert metrics
        assert all(name.startswith("dispersion.") for name in metrics)

    def test_self_time_subtracts_children(self):
        tracer = Tracer()

        def leaf():
            time.sleep(0.01)

        traced_leaf = tracer.wrap("dispersion", lambda q: leaf())

        def parent():
            time.sleep(0.01)
            traced_leaf([1.0, 2.0])
            traced_leaf([1.0])

        tracer.wrap("green", parent)()
        summary = tracer.summary()
        green, disp = summary["green"], summary["dispersion"]
        assert green["spans"] == 1 and disp["spans"] == 2
        assert disp["self_s"] == pytest.approx(disp["total_s"])
        assert green["self_s"] == pytest.approx(green["total_s"] - disp["total_s"])
        assert 0.005 < green["self_s"] < green["total_s"]
        assert tracer.counts["dispersion.calls"] == 2
        assert tracer.counts["dispersion.nodes"] == 3

    def test_exception_closes_span_and_is_counted(self):
        from planarcp import NotConverged

        tracer = Tracer()

        def fails():
            raise NotConverged("no", None)

        with pytest.raises(NotConverged):
            tracer.wrap("quadrature.evanescent", fails)()
        assert tracer.counts["quadrature.not_converged"] == 1
        assert tracer.summary()["quadrature.evanescent"]["spans"] == 1
        assert tracer._stack == [-1]

    def test_scan_loop_is_the_cli_layer_of_material_scan(self, monkeypatch):
        scan_block = wl.scan_block
        monkeypatch.setattr(wl, "scan_block",
                            lambda seed, block: scan_block(seed, block, n=2))
        tracer = Tracer()
        *_, flags = run.fixed_pass("material-scan", 3, tracer)
        assert flags == [False, False]
        layer, _, _, parent = tracer.spans()
        summary = tracer.summary()
        assert summary["cli"]["spans"] == 1 and summary["potential"]["spans"] == 2
        cli = list(layer).index(LAYERS.index("cli"))
        assert all(parent[layer == LAYERS.index("potential")] == cli)
        assert 0 < summary["cli"]["self_s"] < summary["cli"]["total_s"]

    def test_hooks_name_existing_library_names(self):
        tracer = Tracer()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tracer.install(HOOKS)
        tracer.uninstall()


class TestChecks:
    REF = wl.reference("halfspace-sweep")

    def test_reference_passes_itself(self):
        assert not any(wl.check_sweep(self.REF, self.REF, self.REF))

    def test_value_outside_tolerance_fails(self):
        rows = wl.sweep_rows(self.REF)
        z, u, err, _ = rows[3]
        line = f"{z!r},{u!r},{err!r},numeric"
        moved = f"{z!r},{u + 10 * err + 1e-6 * abs(u)!r},{err!r},numeric"
        flags = wl.check_sweep(self.REF.replace(line, moved), self.REF, None)
        assert flags == [i == 3 for i in range(len(rows))]

    def test_value_inside_tolerance_passes_but_must_repeat(self):
        rows = wl.sweep_rows(self.REF)
        z, u, err, _ = rows[5]
        line = f"{z!r},{u!r},{err!r},numeric"
        nudged = self.REF.replace(line, f"{z!r},{u + err!r},{err!r},numeric")
        assert not any(wl.check_sweep(nudged, self.REF, None))
        flags = wl.check_sweep(nudged, self.REF, self.REF)
        assert flags == [i == 5 for i in range(len(rows))]

    def test_failed_row_fails(self):
        rows = wl.sweep_rows(self.REF)
        z, u, err, _ = rows[0]
        line = f"{z!r},{u!r},{err!r},numeric"
        broken = self.REF.replace(line, f"{z!r},nan,inf,failed")
        assert wl.check_sweep(broken, self.REF, None)[0]

    def test_json_reference_parses(self):
        rows = wl.sweep_rows(wl.reference("lens-sweep"))
        assert len(rows) == 60 and rows[0][0] == 5.2


class TestScan:
    def test_blocks_repeat_per_seed_and_differ_across_seeds(self):
        a = [p.record for p in wl.scan_block(7, 0, n=20)]
        b = [p.record for p in wl.scan_block(7, 0, n=20)]
        c = [p.record for p in wl.scan_block(8, 0, n=20)]
        assert a == b and a != c

    def test_block_mix_and_ranges(self):
        points = wl.scan_block(3, 1)
        kinds = [p.record["kind"] for p in points]
        assert kinds.count("halfspace") == 45 and kinds.count("perfect-lens") == 10
        for p in points:
            assert 1e-4 <= p.record["eps"][1] <= 1.0
            if p.record["kind"] == "perfect-lens":
                assert p.z > p.record["d"]
            else:
                assert wl.SCAN_Z[0] <= p.z <= wl.SCAN_Z[1]

    def test_reference_rows_match_generator(self):
        reference = json.loads(wl.reference("material-scan"))
        points = wl.scan_block(wl.REFERENCE_SEED, 0)
        assert [r["inputs"] for r in reference] == \
            [json.loads(json.dumps(p.record)) for p in points]


def test_point_clock_sees_pool_workers():
    args = ["sweep", "--geometry", "halfspace", "--eps-re", "2",
            "--eps-im", "0.1", "--zmin", "0.5", "--zmax", "2",
            "--points", "6", "--spacing", "lin", "--reproducible",
            "--workers", "2"]
    with wl.PointClock(16) as clock:
        wl.run_cli(args)
        records = clock.take()
    assert sorted(z for z, _, _ in records) == pytest.approx(
        [0.5, 0.8, 1.1, 1.4, 1.7, 2.0])
    assert all(dt > 0.0 and k > 0.0 for _, dt, k in records)
    assert clock.take() == []


def test_point_that_raises_in_timed_sweep_is_counted_failed(monkeypatch):
    import planarcp.cli
    from planarcp import NotConverged

    args = ["sweep", "--geometry", "halfspace", "--eps-re", "2",
            "--eps-im", "0.1", "--zmin", "0.5", "--zmax", "2",
            "--points", "5", "--spacing", "lin", "--reproducible",
            "--workers", "1"]
    reference = wl.run_cli(args)
    potential_auto = planarcp.cli.potential_auto

    def fails_at_middle(atom, geometry, z, *rest):
        if z == 1.25:
            raise NotConverged("forced", None)
        return potential_auto(atom, geometry, z, *rest)

    monkeypatch.setitem(wl.SWEEP_ARGS, "halfspace-sweep", args)
    monkeypatch.setattr(wl, "reference", lambda workload: reference)
    monkeypatch.setattr(planarcp.cli, "potential_auto", fails_at_middle)
    tally = run.Tally()
    _, latencies, notes = run.time_sweeps("halfspace-sweep", 0.0, tally)
    assert (tally.attempted, tally.failed) == (5, 1)
    assert len(latencies) == 5 and notes["sweeps"] == 1


def test_without_sources_exits_nonzero_without_result(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "lens-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
