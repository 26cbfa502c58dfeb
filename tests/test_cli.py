# tests/test_cli.py
"""Command-line interface: formats, config handling, exit codes."""

import json
import math

import pytest

import planarcp.cli
from planarcp.cli import main
from planarcp.green import _evanescent_breakpoints


def run(tmp_path, *args, name="out.csv"):
    out = tmp_path / name
    code = main(list(args) + ["--output", str(out)])
    return code, out


BASE = ["sweep", "--geometry", "halfspace", "--eps-re", "2", "--eps-im", "0.1",
        "--zmin", "0.5", "--zmax", "2", "--points", "4", "--spacing", "lin",
        "--workers", "1", "--reproducible"]


class TestSweep:
    def test_csv_layout(self, tmp_path):
        code, out = run(tmp_path, *BASE)
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "# planarcp sweep"
        assert lines[1].startswith("# config: ")
        assert lines[2] == "z_norm,U_norm,U_err,method"
        rows = [l.split(",") for l in lines[3:]]
        assert len(rows) == 4
        assert [float(r[0]) for r in rows] == [0.5, 1.0, 1.5, 2.0]
        for r in rows:
            float(r[1]); float(r[2])  # parse back
            assert r[3] in ("numeric", "nonretarded", "retarded", "closed-form")

    def test_reproducible_runs_byte_identical(self, tmp_path):
        _, a = run(tmp_path, *BASE, name="a.csv")
        _, b = run(tmp_path, *BASE, name="b.csv")
        assert a.read_bytes() == b.read_bytes()

    def test_timestamp_only_without_reproducible(self, tmp_path):
        args = [x for x in BASE if x != "--reproducible"]
        _, out = run(tmp_path, *args)
        assert any(l.startswith("# generated: ")
                   for l in out.read_text().splitlines())
        _, out2 = run(tmp_path, *BASE)
        assert not any(l.startswith("# generated: ")
                       for l in out2.read_text().splitlines())

    def test_vacuum_sweep_is_zero(self, tmp_path):
        code, out = run(tmp_path, "sweep", "--zmin", "0.1", "--zmax", "10",
                        "--points", "5", "--workers", "1", "--reproducible")
        assert code == 0
        for line in out.read_text().splitlines()[3:]:
            assert float(line.split(",")[1]) == 0.0

    def test_json_format(self, tmp_path):
        code, out = run(tmp_path, *BASE, "--format", "json", name="out.json")
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["command"] == "sweep"
        assert doc["config"]["eps_re"] == 2.0
        assert len(doc["rows"]) == 4
        assert set(doc["rows"][0]) == {"z_norm", "U_norm", "U_err", "method"}

    def test_workers_do_not_change_output(self, tmp_path):
        args = BASE + ["--points", "8"]
        _, serial = run(tmp_path, *args, "--workers", "1", name="serial.csv")
        _, parallel = run(tmp_path, *args, "--workers", "4", name="par.csv")
        assert serial.read_bytes() == parallel.read_bytes()
        # The slab's guided-mode breakpoints are memoised per process: the
        # pool starts with an empty cache, the later serial runs fill and
        # then reuse this process's one.
        lens = ["sweep", "--geometry", "slab-mirror", "--eps-re", "-1",
                "--eps-im", "1e-4", "--mu-re", "-1", "--mu-im", "1e-4",
                "--thickness", "5", "--zmin", "5.2", "--zmax", "8",
                "--points", "8", "--dipole", "par", "--reproducible"]
        _evanescent_breakpoints.cache_clear()
        _, cold = run(tmp_path, *lens, "--workers", "2", name="cold.csv")
        _, filling = run(tmp_path, *lens, "--workers", "1", name="fill.csv")
        _, warm = run(tmp_path, *lens, "--workers", "1", name="warm.csv")
        assert cold.read_bytes() == filling.read_bytes() == warm.read_bytes()

    def test_forced_method_column(self, tmp_path):
        code, out = run(tmp_path, *BASE, "--method", "retarded")
        assert code == 0
        for line in out.read_text().splitlines()[3:]:
            assert line.split(",")[3] == "retarded"

    def test_lossless_slab_fails_row_not_traceback(self, tmp_path, capsys):
        # A real-axis guided mode of the lossless eps = mu = -1 slab makes
        # the reflection denominator vanish at z = 1.5.
        code, out = run(tmp_path, "sweep", "--geometry", "slab-mirror",
                        "--eps-re", "-1", "--eps-im", "0", "--mu-re", "-1",
                        "--mu-im", "0", "--thickness", "1", "--zmin", "1.5",
                        "--zmax", "3", "--points", "3", "--workers", "1",
                        "--method", "numeric")
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err
        assert "1/3 points failed" in err
        assert out.read_text().splitlines()[-3].endswith(",nan,inf,failed")


    def test_pool_never_larger_than_points(self, tmp_path, monkeypatch):
        # A fake pool that records its size and runs the jobs in this
        # process, so no worker is started.
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs, chunksize=1):
                return map(fn, jobs)

        monkeypatch.setattr(planarcp.cli, "ProcessPoolExecutor", RecordingPool)
        args = [a for a in BASE if a not in ("--workers", "1")]
        code, _ = run(tmp_path, *args, "--points", "4", "--workers", "64")
        assert code == 0
        assert sizes == [4]

    def test_overflowing_distance_exits_1(self, tmp_path, capsys):
        # The 1/z^3 term of the short-distance form overflows at 1e-300.
        code, _ = run(tmp_path, "sweep", "--eps-re", "2", "--method",
                      "nonretarded", "--zmin", "1e-300", "--zmax", "1e-299",
                      "--points", "2", "--workers", "1")
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("planarcp: error:")
        assert "Traceback" not in err

    def test_lossless_nonretarded_pole_fails_row(self, tmp_path, capsys):
        code, out = run(tmp_path, "sweep", "--geometry", "halfspace",
                        "--eps-re", "-1", "--eps-im", "0", "--zmin", "0.01",
                        "--zmax", "0.1", "--points", "3", "--workers", "1",
                        "--method", "nonretarded")
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err
        assert "3/3 points failed" in err
        assert all(line.endswith(",nan,inf,failed")
                   for line in out.read_text().splitlines()[-3:])


def _strict_json(text):
    """Parse as RFC 8259 JSON, which has no NaN or Infinity."""
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")
    return json.loads(text, parse_constant=reject)


class TestJsonNonFinite:
    def test_failed_row_is_null(self, tmp_path):
        code, out = run(tmp_path, "sweep", "--geometry", "slab-mirror",
                        "--eps-re", "-1", "--eps-im", "0", "--mu-re", "-1",
                        "--mu-im", "0", "--thickness", "1", "--zmin", "1.5",
                        "--zmax", "3", "--points", "3", "--workers", "1",
                        "--method", "numeric", "--format", "json",
                        "--reproducible", name="out.json")
        assert code == 2
        rows = _strict_json(out.read_text())["rows"]
        failed = [r for r in rows if r["method"] == "failed"]
        assert len(failed) == 1
        assert failed[0]["U_norm"] is None and failed[0]["U_err"] is None

    def test_nan_compare_column_is_null(self, tmp_path):
        code, out = run(tmp_path, "compare", "--eps-re", "1", "--mu-re", "-1",
                        "--zmin", "0.01", "--zmax", "1", "--points", "3",
                        "--workers", "1", "--format", "json", "--reproducible",
                        name="out.json")
        assert code == 0
        for row in _strict_json(out.read_text())["rows"]:
            assert row["U_nonretarded"] is None
            assert row["dev_nonretarded"] is None
            assert math.isfinite(row["U_numeric"])


class TestCompare:
    def test_halfspace_columns(self, tmp_path):
        code, out = run(tmp_path, "compare", "--eps-re", "2", "--eps-im",
                        "1e-3", "--zmin", "1e-3", "--zmax", "100",
                        "--points", "5", "--workers", "1", "--reproducible")
        assert code == 0
        lines = out.read_text().splitlines()
        header = lines[2].split(",")
        assert header == ["z_norm", "U_numeric", "U_nonretarded",
                          "dev_nonretarded", "U_retarded", "dev_retarded"]
        first = dict(zip(header, lines[3].split(",")))
        last = dict(zip(header, lines[-1].split(",")))
        # Asymptotics hold at the matching edges of the sweep.
        assert float(first["dev_nonretarded"]) < 0.01
        assert float(last["dev_retarded"]) < 0.05

    def test_lens_column(self, tmp_path):
        code, out = run(tmp_path, "compare", "--geometry", "perfect-lens",
                        "--thickness", "0.5", "--zmin", "1", "--zmax", "3",
                        "--points", "3", "--workers", "1", "--reproducible")
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[2].split(",") == ["z_norm", "U_numeric", "U_closed_form",
                                       "dev_closed_form"]
        for line in lines[3:]:
            assert float(line.split(",")[3]) < 1e-9

    def test_thick_lens_up_to_focal_plane(self, tmp_path):
        code, out = run(tmp_path, "compare", "--geometry", "perfect-lens",
                        "--thickness", "5", "--zmin", "5.01", "--zmax", "6",
                        "--points", "5", "--workers", "1")
        assert code == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        assert len(rows) == 5
        for row in rows:
            assert math.isfinite(float(row["U_numeric"]))

    def test_closed_form_pole_gives_nan_column(self, tmp_path, capsys):
        # eps = 1, mu = -1: the short-distance form's (mu - 1)/(mu + 1)
        # has no finite value; the other columns are still computed.
        code, out = run(tmp_path, "compare", "--eps-re", "1", "--mu-re", "-1",
                        "--zmin", "0.01", "--zmax", "1", "--points", "3",
                        "--workers", "1", "--reproducible")
        assert "Traceback" not in capsys.readouterr().err
        assert code == 0
        lines = out.read_text().splitlines()
        header = lines[2].split(",")
        for line in lines[3:]:
            row = dict(zip(header, line.split(",")))
            assert row["U_nonretarded"] == "nan"
            assert math.isfinite(float(row["U_numeric"]))
            assert math.isfinite(float(row["U_retarded"]))


class TestConfigHandling:
    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"eps_re": 2.0, "eps_im": 0.1, "points": 3,
                                   "zmin": 0.5, "zmax": 2.0, "spacing": "lin",
                                   "workers": 1, "reproducible": True}))
        _, out = run(tmp_path, "sweep", "--config", str(cfg), name="a.csv")
        meta = json.loads(out.read_text().splitlines()[1][len("# config: "):])
        assert meta["points"] == 3 and meta["eps_re"] == 2.0
        _, out2 = run(tmp_path, "sweep", "--config", str(cfg),
                      "--points", "5", name="b.csv")
        meta2 = json.loads(out2.read_text().splitlines()[1][len("# config: "):])
        assert meta2["points"] == 5

    @pytest.mark.parametrize("args", [
        ["sweep", "--zmin", "-1"],
        ["sweep", "--zmin", "2", "--zmax", "1"],
        ["sweep", "--points", "1"],
        ["sweep", "--geometry", "slab-mirror"],  # missing thickness
        ["sweep", "--geometry", "perfect-lens", "--thickness", "2",
         "--zmin", "1", "--zmax", "3"],  # starts inside the lens
        ["sweep", "--method", "closed-form"],  # halfspace has none
        ["sweep", "--geometry", "perfect-lens", "--thickness", "0.2",
         "--method", "nonretarded"],
        ["compare", "--method", "numeric"],
        ["sweep", "--eps-im", "-0.5"],  # gain medium
        ["sweep", "--zmin", "1", "--zmax", "inf"],
        ["sweep", "--workers", "-1"],
        ["sweep", "--geometry", "slab-mirror", "--thickness", "0.5",
         "--zmin", "1", "--zmax", "2", "--method", "closed-form"],  # slab has none
    ])
    def test_config_errors_exit_1(self, tmp_path, args):
        code, _ = run(tmp_path, *args)
        assert code == 1

    @pytest.mark.parametrize("values", [
        {"points": "ten"},
        {"zmin": None},
        {"points": 5.5},
        {"eps_re": True},
        {"reproducible": "yes"},
    ])
    def test_wrongly_typed_config_value_exit_1(self, tmp_path, capsys, values):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        code, _ = run(tmp_path, "sweep", "--config", str(cfg))
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("planarcp: error: ")
        assert "Traceback" not in err

    def test_config_numbers_coerced_to_field_type(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"eps_re": 2, "points": 3.0, "zmin": 1,
                                   "zmax": 2, "workers": 1,
                                   "reproducible": True}))
        code, out = run(tmp_path, "sweep", "--config", str(cfg))
        assert code == 0
        meta = json.loads(out.read_text().splitlines()[1][len("# config: "):])
        assert meta["points"] == 3 and isinstance(meta["points"], int)
        assert meta["eps_re"] == 2.0 and isinstance(meta["eps_re"], float)

    def test_unknown_config_key_exit_1(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"epsilon_real": 2.0}')
        code, _ = run(tmp_path, "sweep", "--config", str(cfg))
        assert code == 1

    def test_missing_config_file_exit_1(self, tmp_path):
        code, _ = run(tmp_path, "sweep", "--config", str(tmp_path / "no.json"))
        assert code == 1
