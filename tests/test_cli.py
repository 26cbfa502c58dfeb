# tests/test_cli.py
"""Command-line interface: formats, config handling, exit codes."""

import contextlib
import json
import math
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import planarcp.cli
import planarcp.green
from planarcp.cli import SweepConfig, main
from conftest import false_zero_count


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
        _, out = run(tmp_path, *args, "--format", "json", name="a.json")
        assert "generated" in json.loads(out.read_text())
        _, out2 = run(tmp_path, *BASE, "--format", "json", name="b.json")
        assert "generated" not in json.loads(out2.read_text())
        # The parser serves every call in the process; a --reproducible run
        # leaves the next one its timestamp.
        _, out = run(tmp_path, *args, "--format", "json", name="c.json")
        assert "generated" in json.loads(out.read_text())

    def test_perp_dipole_is_the_unit_perpendicular_mix(self, tmp_path):
        _, perp = run(tmp_path, *BASE, "--dipole", "perp", name="perp.csv")
        _, mixed = run(tmp_path, *BASE, "--dipole", "mixed", "--w-par", "0",
                       "--w-perp", "1", name="mixed.csv")
        _, par = run(tmp_path, *BASE, "--dipole", "par", name="par.csv")

        def rows(out):
            return out.read_text().splitlines()[2:]

        assert rows(perp) == rows(mixed)
        assert rows(perp) != rows(par)

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
        lens = ["sweep", "--geometry", "slab-mirror", "--eps-re", "-1",
                "--eps-im", "1e-4", "--mu-re", "-1", "--mu-im", "1e-4",
                "--thickness", "5", "--zmin", "5.2", "--zmax", "8",
                "--points", "8", "--dipole", "par", "--reproducible"]
        _, pooled = run(tmp_path, *lens, "--workers", "2", name="pool.csv")
        _, first = run(tmp_path, *lens, "--workers", "1", name="first.csv")
        _, again = run(tmp_path, *lens, "--workers", "1", name="again.csv")
        assert pooled.read_bytes() == first.read_bytes() == again.read_bytes()

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
        assert err.count("guided mode") == 1
        assert out.read_text().splitlines()[-3].endswith(",nan,inf,failed")

    @staticmethod
    def values(out):
        return [(float(row.split(",")[1]), row.split(",")[3])
                for row in out.read_text().splitlines()[3:]]

    @pytest.mark.parametrize("eps_re,mu_re", [
        # The surface plasmon lies on the real q axis but off the
        # steepest-descent path, which gives the i0+ answer directly; the
        # path's error is linear in the loss, so 1e-9 of it is the limit.
        ("-2", "1"),
        # eps mu = 4 with a negative i0+ direction puts the branch point at
        # i sqrt(3) k0; the path with its cut holds no pole and gives the
        # limit as well.
        ("-2", "-2"),
        # eps mu = 0.25 with a negative i0+ direction: the branch point
        # lies on the real axis, at sqrt(3)/2 k0, and the cut is needed
        # all the same.
        ("-0.5", "-0.5"),
    ])
    def test_lossless_half_space_is_the_lossy_limit(self, tmp_path, eps_re, mu_re):
        args = ["sweep", "--geometry", "halfspace", "--eps-re", eps_re,
                "--mu-re", mu_re, "--zmin", "0.05", "--zmax", "5",
                "--points", "4", "--workers", "1", "--reproducible"]
        code, out = run(tmp_path, *args, "--eps-im", "0", "--mu-im", "0",
                        name="a.csv")
        code_lossy, lossy = run(tmp_path, *args, "--eps-im", "1e-9",
                                "--mu-im", "0" if mu_re == "1" else "1e-9",
                                name="b.csv")
        assert (code, code_lossy) == (0, 0)
        rows, lossy_rows = self.values(out), self.values(lossy)
        assert len(rows) == 4
        for (u, method), (u_lossy, _) in zip(rows, lossy_rows):
            assert math.isfinite(u) and method == "numeric"
            assert abs(u - u_lossy) <= 1e-8 * abs(u_lossy)

    def test_lossless_uncertified_surface_mode_fails_rows(self, tmp_path, capsys):
        # eps = -3, mu = -0.5: eps mu = 1.5 > 0 with a negative i0+
        # direction puts the branch point at i sqrt(0.5) k0, and the
        # lossless s-polarised surface mode on the cut itself. The cut
        # integral then meets a pole, whose i0+ half residue the engine
        # does not add, so these points fail with a typed error. From
        # z = 20 on they match loss 1e-8 to 1e-8.
        code, out = run(tmp_path, "sweep", "--geometry", "halfspace",
                        "--eps-re", "-3", "--eps-im", "0", "--mu-re", "-0.5",
                        "--mu-im", "0", "--zmin", "0.05", "--zmax", "5",
                        "--points", "3", "--workers", "1")
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err
        assert "3/3 points failed" in err
        assert err.count("a surface mode lies on the branch cut") == 3
        assert all(line.endswith(",nan,inf,failed")
                   for line in out.read_text().splitlines()[-3:])

    def test_far_left_handed_half_space(self, tmp_path, capsys):
        # On the real axis the two sectors of eps = mu = -1 + 0.1i cancel
        # to 1e-7 of either at z = 1e3, and did not converge beyond; the
        # path with its cut costs the same at every distance.
        code, out = run(tmp_path, "sweep", "--geometry", "halfspace",
                        "--eps-re", "-1", "--eps-im", "0.1", "--mu-re", "-1",
                        "--mu-im", "0.1", "--method", "numeric", "--zmin",
                        "1e3", "--zmax", "1e5", "--points", "3", "--workers",
                        "1", "--reproducible")
        assert code == 0
        assert capsys.readouterr().err == ""
        rows = self.values(out)
        assert len(rows) == 3
        assert all(math.isfinite(u) and method == "numeric" for u, method in rows)

    def test_far_slab(self, tmp_path, capsys):
        # On the real axis this slab's sectors cancelled at z = 1e4, which
        # failed; the path with its residues costs the same at every
        # distance.
        code, out = run(tmp_path, "sweep", "--geometry", "slab-mirror",
                        "--eps-re", "2", "--eps-im", "0.1", "--thickness", "1",
                        "--zmin", "1e3", "--zmax", "1e4", "--points", "3",
                        "--workers", "1", "--reproducible")
        assert code == 0
        assert capsys.readouterr().err == ""
        assert all(math.isfinite(u) and method == "numeric"
                   for u, method in self.values(out))

    def test_pole_search_failure_fails_rows(self, tmp_path, capsys, monkeypatch):
        # A count that puts a zero in the zero-free slab's strip makes the
        # pole search raise NotConverged at every point: failed rows with
        # exit code 2, not a traceback.
        monkeypatch.setattr(planarcp.green, "_count_zeros", false_zero_count)
        planarcp.green._strip_poles.cache_clear()
        code, out = run(tmp_path, "sweep", "--geometry", "slab-mirror",
                        "--eps-re", "2", "--eps-im", "0.1", "--thickness", "1",
                        "--zmin", "1", "--zmax", "2", "--points", "2",
                        "--workers", "1", "--reproducible")
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err and "2/2 points failed" in err
        # One line per failed point names its z and its cause.
        assert err.count("NotConverged: no slab pole found") == 2
        assert "z = 1.0:" in err and "z = 2.0:" in err
        assert all(line.endswith(",nan,inf,failed")
                   for line in out.read_text().splitlines()[-2:])

    def test_quadrature_failure_states_its_cause(self, tmp_path, capsys):
        # A tolerance below the round-off floor: the path integral stops
        # at every point once bisection has brought its error down to the
        # floor, and stderr names that error.
        code, _ = run(tmp_path, "sweep", "--eps-re", "2", "--eps-im", "0.1",
                      "--zmin", "0.5", "--zmax", "1", "--points", "2",
                      "--workers", "1", "--reproducible", "--rel-tol", "1e-20")
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert err[0] == ("planarcp: z = 0.5: NotConverged: evanescent integral: "
                          "error 1.076e-14 above tolerance after 18 subdivisions")
        assert err[-1] == "planarcp: 2/2 points failed"

    @pytest.mark.parametrize("mu_re,failed", [
        # A lossless eps = 4 slab's guided modes lie on the strip's edge
        # Re beta = 0 and matter at every one of these distances: typed
        # failures, no traceback, no hang.
        ("1", 3),
        # mu = -1 exactly leaves no height bound from |mu + 1|, but the
        # finite rows stay finite.
        ("-1", 0),
    ])
    def test_slab_edge_cases(self, tmp_path, capsys, mu_re, failed):
        eps = ["--eps-re", "4", "--eps-im", "0", "--thickness", "3"] if failed \
            else ["--eps-re", "2", "--eps-im", "0.1", "--thickness", "1"]
        code, out = run(tmp_path, "sweep", "--geometry", "slab-mirror", *eps,
                        "--mu-re", mu_re, "--mu-im", "0", "--zmin", "0.05",
                        "--zmax", "20", "--points", "3", "--workers", "1",
                        "--reproducible")
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert code == (2 if failed else 0)
        assert err.count("guided mode") == failed
        rows = self.values(out)
        assert sum(method == "failed" for _, method in rows) == failed
        assert all(math.isfinite(u) for u, method in rows if method != "failed")

    def test_failure_causes_come_back_from_the_pool(self, tmp_path, capsys):
        # Each failed row's cause reaches stderr from the worker that
        # evaluated it, in the order of the rows.
        code, out = run(tmp_path, "sweep", "--geometry", "slab-mirror",
                        "--eps-re", "4", "--thickness", "3", "--zmin", "0.05",
                        "--zmax", "20", "--points", "4", "--workers", "2")
        lines = capsys.readouterr().err.splitlines()
        assert code == 2 and lines[-1] == "planarcp: 4/4 points failed"
        zs = [row.split(",")[0] for row in out.read_text().splitlines()[-4:]]
        assert lines[:-1] == [f"planarcp: z = {z}: DegenerateDenominator: a lossless "
                              "slab's guided mode on Re beta = 0 is not negligible here"
                              for z in zs]

    def test_pool_never_larger_than_points(self, tmp_path, pool_sizes):
        # 4 points in 4 processes: this one and 3 children, one point each.
        args = [a for a in BASE if a not in ("--workers", "1")]
        code, _ = run(tmp_path, *args, "--points", "4", "--workers", "64")
        assert code == 0
        assert pool_sizes == [4]

    def test_one_process_unless_asked(self, tmp_path, pool_sizes, capsys):
        # No --workers evaluates in this process; 0 workers is a config error.
        args = [a for a in BASE if a not in ("--workers", "1")]
        code, _ = run(tmp_path, *args)
        assert code == 0 and pool_sizes == [1]
        code, _ = run(tmp_path, *args, "--workers", "0")
        assert code == 1 and pool_sizes == [1]
        assert capsys.readouterr().err.startswith("planarcp: error: workers: ")

    def test_two_workers_start_a_pool_however_few_points(self, tmp_path, pool_sizes):
        # No size cut-off: min(N, points) processes in all, however few
        # points there are.
        args = [a for a in BASE if a not in ("--workers", "1")]
        for points in ("3", "2"):
            code, _ = run(tmp_path, *args, "--points", points, "--workers", "2")
            assert code == 0
        assert pool_sizes == [2, 2]

    def test_workers_need_fork(self, tmp_path, monkeypatch, capsys):
        # Where os.fork does not exist, one process is all there can be.
        monkeypatch.delattr(planarcp.cli.os, "fork")
        args = [a for a in BASE if a not in ("--workers", "1")]
        assert run(tmp_path, *args, "--workers", "1")[0] == 0
        assert run(tmp_path, *args, "--workers", "2")[0] == 1
        assert capsys.readouterr().err == ("planarcp: error: workers: need 1 where "
                                           "os.fork does not exist, got 2\n")

    @pytest.mark.parametrize("command,args,failed", [
        # The 1/z^3 term of the short-distance form overflows at 1e-300,
        # not at 1.
        ("sweep", ["--eps-re", "2", "--method", "nonretarded",
                   "--zmin", "1e-300", "--zmax", "1"], [True, False]),
        # The lens closed form, formed in 1/zt, is finite out to
        # z - d = 1e200, and its 1/zt^3 overflows at 1e-200.
        ("sweep", ["--geometry", "perfect-lens", "--thickness", "1",
                   "--zmin", "2", "--zmax", "1e200"], [False, False]),
        ("compare", ["--geometry", "perfect-lens", "--thickness", "1",
                     "--zmin", "2", "--zmax", "1e200"], [False, False]),
        ("sweep", ["--geometry", "perfect-lens", "--thickness", "1e-200",
                   "--zmin", "2e-200", "--zmax", "3e-200"], [True, True]),
    ], ids=["nonretarded", "lens-far", "lens-far-compare", "lens-near"])
    def test_overflowing_distance_fails_its_row(self, tmp_path, capsys, command,
                                                args, failed):
        # Such a distance fails its row, with its DomainError on stderr;
        # every other row is the one its distance gets as a sweep's first.
        code, out = run(tmp_path, command, *args, "--points", "2", "--workers", "1")
        err = capsys.readouterr().err
        assert code == (2 if any(failed) else 0) and "Traceback" not in err
        assert err.count(": DomainError: ") == sum(failed)
        rows = out.read_text().splitlines()[-2:]
        assert [row.endswith(",nan,inf,failed") for row in rows] == failed
        for row in (row for row, bad in zip(rows, failed) if not bad):
            z = row.split(",")[0]
            _, first = run(tmp_path, command, *args, "--zmin", z, "--zmax",
                           repr(2.0 * float(z)), "--points", "2", "--workers", "1",
                           name="first.csv")
            assert first.read_text().splitlines()[-2] == row
        if args[-1] == "1e200":
            # The last row's closed form against quadrature at z - d = 1e200:
            # within the 4.4e-216 that potential_numeric claims, times 8 pi.
            u = float(rows[-1].split(",")[1 if command == "sweep" else 2])
            assert abs(u - 8.0 * math.pi * 6.788299673822464e-203) <= 8.0 * math.pi * 4.42e-216

    @pytest.mark.parametrize("command,args", [
        ("compare", []), ("sweep", ["--method", "numeric"])], ids=["compare", "sweep"])
    def test_tiny_distance_fails_its_row_without_warnings(self, tmp_path, capsys,
                                                         command, args):
        # At z = 1e-200 the path integral's 1/z^3 and beta^2 overflow: the
        # numeric row fails with its cause, and numpy warns of nothing
        # (a RuntimeWarning is an error in this suite, which main would
        # not catch). z = 1e-100 and 1 are finite.
        code, out = run(tmp_path, command, "--eps-re", "2", "--eps-im", "0.1",
                        "--zmin", "1e-200", "--zmax", "1", "--points", "3",
                        "--workers", "1", *args)
        err = capsys.readouterr().err
        assert code == 2 and "Traceback" not in err and "Warning" not in err
        assert (f"planarcp: z = 1e-200: {'numeric: ' if command == 'compare' else ''}"
                "NotConverged: evanescent integral: integrand not finite") in err
        rows = out.read_text().splitlines()[-3:]
        assert [math.isfinite(float(row.split(",")[1])) for row in rows] == [False, True, True]

    @pytest.mark.parametrize("where,args", [
        pytest.param(where, args, id=place + suffix)
        for where, place in (("missing/out.csv", "missing-dir"), (".", "dir"))
        for args, suffix in ((["sweep"], ""), (["compare"], "-compare"),
                             (["sweep", "--format", "json"], "-json"),
                             (["sweep", "--workers", "2"], "-workers-2"))])
    def test_unwritable_output_exits_1(self, tmp_path, capsys, monkeypatch,
                                       pool_sizes, where, args):
        # A missing directory, and a directory, as the output file: refused
        # when the run starts, as a shell redirection is, before any point
        # is evaluated and before any pool is started.
        calls = []

        def spy(name, fn):
            def counted(*a, **kw):
                calls.append(name)
                return fn(*a, **kw)
            return counted

        for name in dir(planarcp.cli):
            if name.startswith("potential_"):
                monkeypatch.setattr(planarcp.cli, name,
                                    spy(name, getattr(planarcp.cli, name)))
        code = main([*args, "--points", "2000", "-o", str(tmp_path / where)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("planarcp: error:") and err.count("\n") == 1
        assert "Traceback" not in err
        assert calls == [] and pool_sizes == []

    @pytest.mark.parametrize("args", [
        BASE, [*BASE, "--format", "json"], ["compare", *BASE[1:]]],
        ids=["csv", "json", "compare"])
    def test_output_file_holds_the_stdout_bytes(self, tmp_path, capsysbinary, args):
        assert main(args) == 0
        printed = capsysbinary.readouterr().out
        code, out = run(tmp_path, *args)
        assert code == 0 and printed and out.read_bytes() == printed

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


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def raise_type_error():
    raise TypeError("a fault, not a distance's error")


def process_state(pid):
    """pid's state letter in /proc (Z for a zombie), or None if it is gone."""
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return None


def cli_process(*args):
    """planarcp.cli ARGS in a fresh interpreter that imports this package."""
    env = {**os.environ, "PYTHONPATH": str(Path(planarcp.__file__).parent.parent)}
    return subprocess.Popen([sys.executable, "-m", "planarcp.cli", *args], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


class TestForkedChildren:
    """--workers 2 with a real child: one fork per run."""

    LENS = ["sweep", "--geometry", "perfect-lens", "--thickness", "1",
            "--zmin", "2", "--points", "4", "--reproducible"]

    @pytest.mark.parametrize("args,failed", [
        # The child takes z_1 and z_3 of the 4 points: at 1e200 every lens
        # row is finite, at 1e308 the child's z_3 fails. The short-distance
        # form fails at z_0 in this process and at z_1 in the child.
        pytest.param([*LENS, "--zmax", "1e200"], 0, id="1e200"),
        pytest.param([*LENS, "--zmax", "1e308"], 1, id="1e308"),
        pytest.param(["sweep", "--eps-re", "2", "--eps-im", "0.1", "--method",
                      "nonretarded", "--zmin", "1e-300", "--zmax", "1",
                      "--points", "4", "--reproducible"], 2, id="nonretarded"),
    ])
    def test_error_in_a_child_exits_as_in_one_process(self, tmp_path, capsys,
                                                      args, failed):
        runs = []
        for workers in ("1", "2"):
            code, out = run(tmp_path, *args, "--workers", workers, name=f"{workers}.csv")
            runs.append((code, out.read_text(), capsys.readouterr().err))
            assert_no_child_left()
        assert runs[0] == runs[1] and runs[0][0] == (2 if failed else 0)
        assert runs[0][2].count(": DomainError: ") == failed

    @pytest.mark.parametrize("end,cause", [
        (lambda: os._exit(3), "exit code 3"),
        (lambda: os.kill(os.getpid(), signal.SIGKILL), "signal 9"),
        (raise_type_error, "exit code 1")],
        ids=["exit", "killed", "raised"])
    def test_child_without_a_result_exits_1(self, tmp_path, capsys, monkeypatch,
                                            end, cause):
        here, potential_auto = os.getpid(), planarcp.cli.potential_auto

        def ends_in_a_child(*args):
            if os.getpid() != here:
                end()
            return potential_auto(*args)

        monkeypatch.setattr(planarcp.cli, "potential_auto", ends_in_a_child)
        args = [a for a in BASE if a not in ("--workers", "1")]
        code, out = run(tmp_path, *args, "--workers", "2")
        assert code == 1 and out.read_text() == ""
        assert re.fullmatch(r"planarcp: error: worker process \d+ ended without a "
                            rf"result \({cause}\)\n", capsys.readouterr().err)
        assert_no_child_left()

    def test_fault_here_kills_the_child(self, tmp_path, monkeypatch):
        # A fault in this process's own share, after the fork, leaves main;
        # on its way out the child still at work is killed and reaped, and
        # -o is left empty.
        here, children = os.getpid(), []
        fork, potential_auto = os.fork, planarcp.cli.potential_auto

        def recorded_fork():
            pid = fork()
            if pid:
                children.append(pid)
            return pid

        def fails_here_after_the_fork(*args):
            if os.getpid() == here and children:
                raise RuntimeError("a fault in the calling process")
            return potential_auto(*args)

        monkeypatch.setattr(os, "fork", recorded_fork)
        monkeypatch.setattr(planarcp.cli, "potential_auto", fails_here_after_the_fork)
        args = [a for a in BASE if a not in ("--workers", "1")]
        with pytest.raises(RuntimeError, match="a fault in the calling process"):
            run(tmp_path, *args, "--points", "4", "--workers", "2")
        assert len(children) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(children[0], os.WNOHANG)
        assert (tmp_path / "out.csv").read_text() == ""

    def test_import_starts_no_pool_machinery(self):
        # The sweeps' set-up imports planarcp.cli; it loads neither module.
        code = ("import sys, planarcp.cli; print([m for m in ('concurrent.futures', "
                "'multiprocessing') if m in sys.modules])")
        env = {**os.environ, "PYTHONPATH": str(Path(planarcp.__file__).parent.parent)}
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        assert done.stdout == "[]\n"

    @pytest.mark.skipif(not Path(f"/proc/{os.getpid()}/task").is_dir(),
                        reason="finds the child in /proc")
    def test_child_ends_with_its_caller(self, tmp_path):
        # A child whose caller is killed skips the distances it has left:
        # within 0.5 s it is gone, or a zombie that no one has reaped yet.
        # Its share of these 40,000 points would take it seconds.
        args = [a for a in BASE if a not in ("--workers", "1")]
        caller = cli_process(*args, "--points", "40000", "--workers", "2",
                             "-o", str(tmp_path / "out.csv"))
        children, kids = Path(f"/proc/{caller.pid}/task/{caller.pid}/children"), []
        try:
            start = time.monotonic()
            while not (kids := children.read_text().split()):
                assert caller.poll() is None and time.monotonic() < start + 60
                time.sleep(0.01)
            assert len(kids) == 1  # two planarcp processes: the caller and its child
            caller.kill()
            caller.wait()
            killed = time.monotonic()
            while process_state(kids[0]) not in (None, "Z"):
                assert time.monotonic() < killed + 0.5, "the child outlived its caller"
                time.sleep(0.01)
        finally:
            caller.kill()
            caller.communicate()
            for kid in kids:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(int(kid), signal.SIGKILL)


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


def _csv_rows(tmp_path, *args, name):
    """The data rows of a --reproducible --workers 1 CSV run, as dicts of
    the written strings; the run must exit 0."""
    code, out = run(tmp_path, *args, "--workers", "1", "--reproducible", name=name)
    assert code == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


HALF = ["--eps-re", "2", "--eps-im", "1e-3", "--zmin", "1e-3", "--zmax", "100",
        "--points", "5"]
# Linear in halves, so the lens sweep from 5.5 hits the same z bit for bit.
SLAB = ["--geometry", "slab-mirror", "--eps-re", "-1", "--eps-im", "1e-4",
        "--mu-re", "-1", "--mu-im", "1e-4", "--thickness", "5", "--zmin", "4",
        "--zmax", "8", "--points", "9", "--spacing", "lin"]
LENS = ["--geometry", "perfect-lens", "--thickness", "1", "--zmin", "1.1",
        "--zmax", "8", "--points", "5", "--dipole", "mixed", "--w-perp", "0.5"]


class TestCompare:
    @pytest.mark.parametrize("flags, sweeps", [
        (HALF, {"U_numeric": ["--method", "numeric"],
                "U_nonretarded": ["--method", "nonretarded"],
                "U_retarded": ["--method", "retarded"]}),
        # A slab's closed form is the perfect lens's of its thickness,
        # which sweep evaluates beyond the slab only; up to z = d the
        # column is nan.
        (SLAB, {"U_numeric": ["--method", "numeric"],
                "U_closed_form": ["--geometry", "perfect-lens", "--zmin", "5.5",
                                  "--points", "6", "--method", "closed-form"]}),
        (LENS, {"U_numeric": ["--method", "numeric"],
                "U_closed_form": ["--method", "closed-form"]}),
    ], ids=["halfspace", "slab", "lens"])
    def test_columns_are_sweep_rows(self, tmp_path, flags, sweeps):
        # Each float is written as its shortest repr, so equal strings are
        # equal bits.
        table = _csv_rows(tmp_path, "compare", *flags, name="compare.csv")
        for column, extra in sweeps.items():
            swept = {row["z_norm"]: row["U_norm"] for row in _csv_rows(
                tmp_path, "sweep", *flags, *extra, name=f"{column}.csv")}
            assert set(swept) <= {row["z_norm"] for row in table}
            for row in table:
                assert row[column] == swept.get(row["z_norm"], "nan")

    def test_readme_compare_out_to_far_field(self, tmp_path, capsys):
        # README's compare example taken to z = 1e5: the real-axis
        # propagating sector did not converge for z >= 9.4e3, the path
        # costs the same at every distance.
        code, out = run(tmp_path, "compare", "--eps-re", "2", "--eps-im", "1e-3",
                        "--zmin", "1e-3", "--zmax", "1e5", "--points", "40")
        assert code == 0
        assert capsys.readouterr().err == ""
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")][1:]
        assert len(rows) == 40
        assert all(math.isfinite(float(row.split(",")[1])) for row in rows)

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

    def test_failed_column_states_its_cause(self, tmp_path, capsys):
        # Each failed cell's method and cause reach stderr in row order,
        # also through the pool; the exit code follows U_numeric alone.
        args = ["compare", "--eps-re", "1", "--mu-re", "-1", "--zmin", "0.01",
                "--zmax", "1", "--points", "3", "--reproducible"]
        outputs = []
        for workers in ("1", "2"):
            code, out = run(tmp_path, *args, "--workers", workers,
                            name=f"{workers}.csv")
            assert code == 0
            zs = [row.split(",")[0] for row in out.read_text().splitlines()[3:]]
            assert capsys.readouterr().err.splitlines() == [
                f"planarcp: z = {z}: nonretarded: DegenerateDenominator: "
                "mu + 1 = 0j too close to zero" for z in zs]
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_failed_short_distance_column_ends_no_run(self):
        # At z = 1e-200 every column fails: the short-distance form's 1/z^3
        # overflows, and so does the retarded form's claimed error, which
        # would divide by zero below 1e-162. A fresh interpreter, as the
        # numeric column's overflow warns there.
        done = cli_process("compare", "--eps-re", "2", "--eps-im", "0.1", "--zmin",
                           "1e-200", "--zmax", "1", "--points", "3").communicate()
        assert "Traceback" not in done[1]
        assert done[1].splitlines()[-4:] == [
            "planarcp: z = 1e-200: numeric: NotConverged: evanescent integral: "
            "integrand not finite after 0 subdivisions",
            "planarcp: z = 1e-200: nonretarded: DomainError: short-distance "
            "potential not finite at z_A = 1e-200",
            "planarcp: z = 1e-200: retarded: DomainError: long-distance potential "
            "not finite at z_A = 1e-200",
            "planarcp: 1/3 points failed"]
        assert done[0].splitlines()[-3] == "1e-200,nan,nan,nan,nan,nan"

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


@pytest.mark.parametrize("command", ["sweep", "compare"])
def test_model_built_once_per_run(tmp_path, monkeypatch, command):
    # Every point, and each of compare's columns, shares the atom and
    # geometry that validate builds.
    calls = []
    for name in ("build_atom", "build_geometry"):
        def counted(config, _name=name, _real=getattr(SweepConfig, name)):
            calls.append(_name)
            return _real(config)

        monkeypatch.setattr(SweepConfig, name, counted)
    _csv_rows(tmp_path, command, *HALF, "--points", "9", name="out.csv")
    assert sorted(calls) == ["build_atom", "build_geometry"]


def test_branch_cut_keeps_no_table(tmp_path, monkeypatch):
    # A left-handed half space's cut crosses the path, and its rows depend
    # on z: its run passes every point the one table, which stays empty.
    tables = []
    auto = planarcp.cli.potential_auto

    def recorded(atom, geometry, z, rel_tol, table):
        tables.append(table)
        return auto(atom, geometry, z, rel_tol, table)

    monkeypatch.setattr(planarcp.cli, "potential_auto", recorded)
    code, _ = run(tmp_path, "sweep", "--eps-re", "-1", "--eps-im", "0.1", "--mu-re", "-1",
                  "--mu-im", "0.1", "--zmin", "0.3", "--zmax", "0.45", "--points", "4",
                  "--workers", "1")
    assert code == 0 and len(tables) == 4
    assert all(t is tables[0] for t in tables) and tables[0] == {}


def test_reproducible_help_says_what_readme_says(capsys):
    # `sweep --help` gives --reproducible README's promise: the bytes are
    # fixed for one numpy build at one CPU feature level, and each row is
    # the lone call at its distance.
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    start = text.index("--reproducible ")
    flag = text[start:text.index("--workers WORKERS", start)]
    readme = " ".join((Path(__file__).resolve().parent.parent / "README.md").read_text(
        encoding="utf-8").split())
    for claim in ("fixed for one numpy build at one CPU feature level", "lone",
                  "call at its distance"):
        assert claim in flag and claim in readme


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
         "--zmin", "0.5", "--zmax", "1", "--method", "nonretarded"],
        ["compare", "--method", "numeric"],
        ["sweep", "--eps-im", "-0.5"],  # gain medium
        ["sweep", "--zmin", "1", "--zmax", "inf"],
        ["sweep", "--workers", "-1"],
        ["sweep", "--geometry", "slab-mirror", "--thickness", "0.5",
         "--zmin", "1", "--zmax", "2", "--method", "closed-form"],  # slab has none
        ["sweep", "--geometry", "foo"],  # rejected by the argument parser
        ["sweep", "--points", "abc"],
        ["sweep", "--no-such-flag"],
        ["sweep", "--rel-tol", "nan"],
        ["sweep", "--rel-tol", "0"],
        ["sweep", "--dipole", "mixed", "--w-par", "nan"],
        ["sweep", "--dipole", "mixed", "--w-par", "0"],  # no weight left
        # Non-finite numbers in fields the sweep ignores: a par dipole's
        # w_par, a half space's thickness.
        ["sweep", "--dipole", "par", "--w-par", "nan"],
        ["sweep", "--thickness", "nan"],
        ["sweep", "--workers", "0"],
        # A slab too thick for the pole search's walk, refused before it
        # is built and before -o is opened, as no distance can mend it.
        ["sweep", "--geometry", "slab-mirror", "--eps-re", "2", "--eps-im", "0.1",
         "--thickness", "1e12"],
    ])
    def test_config_errors_exit_1(self, tmp_path, args, capsys):
        code, out = run(tmp_path, *args)
        err = capsys.readouterr().err
        assert code == 1 and not out.exists()
        assert err.startswith("planarcp: error: ")
        assert "Traceback" not in err and "green_components" not in err

    @pytest.mark.parametrize("w_par,w_perp", [("1e308", "1e308"), ("-1", "2")],
                             ids=["total-overflows", "negative"])
    def test_mixed_weights_name_their_flags(self, tmp_path, w_par, w_perp, capsys):
        # Weights whose total overflows, and a negative one: refused as
        # w_par/w_perp, not by the transition they would make.
        code, out = run(tmp_path, "sweep", "--dipole", "mixed", "--w-par", w_par,
                        "--w-perp", w_perp)
        assert code == 1 and not out.exists()
        assert capsys.readouterr().err == (
            "planarcp: error: w_par/w_perp: mixed dipole needs weights >= 0 with a "
            f"positive finite total, got {float(w_par)} and {float(w_perp)}\n")

    @pytest.mark.parametrize("geometry", [
        ["perfect-lens", "--thickness", "0.2"],
        ["slab-mirror", "--thickness", "0.5"],
    ], ids=["perfect-lens", "slab-mirror"])
    def test_limit_methods_need_halfspace(self, tmp_path, geometry, capsys):
        code, _ = run(tmp_path, "sweep", "--geometry", *geometry, "--zmin", "0.5",
                      "--zmax", "1", "--method", "nonretarded")
        assert code == 1
        assert "applies to halfspace only" in capsys.readouterr().err

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

    @pytest.mark.parametrize("text, message", [
        ('{"geometry": "foo"}', "geometry: must be"),
        ("[1, 2]", "expected a JSON object"),
    ], ids=["bad-choice", "not-an-object"])
    def test_bad_config_file_exit_1(self, tmp_path, capsys, text, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        code, _ = run(tmp_path, "sweep", "--config", str(cfg))
        assert code == 1
        assert message in capsys.readouterr().err

    def test_unknown_config_key_exit_1(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"epsilon_real": 2.0}')
        code, _ = run(tmp_path, "sweep", "--config", str(cfg))
        assert code == 1

    def test_missing_config_file_exit_1(self, tmp_path):
        code, _ = run(tmp_path, "sweep", "--config", str(tmp_path / "no.json"))
        assert code == 1
