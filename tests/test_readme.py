# tests/test_readme.py
"""The README's library example and CLI commands run as documented."""

import json
import re
import shlex
from pathlib import Path

import pytest

import planarcp.green
from planarcp import cli
from planarcp.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"),
                        re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 2


def cli_examples():
    """The planarcp commands of the sh block under "Command line", each
    joined over its continuation lines, as argument lists for main."""
    block = re.search(r"## Command line\n\n```sh\n(.*?)```",
                      README.read_text(encoding="utf-8"), re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("planarcp ")]


def data_rows(argv, capsys):
    """Run argv through main in the working directory: its exit code and
    its data rows, the CSV lines that do not start with '#' or the JSON
    rows, read from stdout or from the -o file."""
    code = main(argv)
    text = capsys.readouterr().out
    if "-o" in argv:
        text = Path(argv[argv.index("-o") + 1]).read_text(encoding="utf-8")
    if "json" in argv:
        return code, json.loads(text)["rows"]
    return code, [line for line in text.splitlines() if not line.startswith("#")]


def test_cli_examples_run_as_documented(tmp_path, monkeypatch, capsys):
    # The pool changes no row: each command's rows equal those of the
    # same command with --workers 2, which runs in two processes.
    monkeypatch.chdir(tmp_path)
    examples = cli_examples()
    assert len(examples) == 3
    for argv in examples:
        code, rows = data_rows(argv, capsys)
        assert code == 0 and rows
        assert data_rows(argv + ["--workers", "2"], capsys) == (0, rows)


def test_cli_examples_start_no_process(tmp_path, monkeypatch, pool_sizes):
    monkeypatch.chdir(tmp_path)
    for argv in cli_examples():
        assert main(argv) == 0
    assert pool_sizes == [1, 1, 1]


@pytest.mark.parametrize("workers", ["1", "2"])
def test_sweep_rows_are_lone_calls(tmp_path, monkeypatch, workers):
    # A run's points share first-round integrand values, in this process
    # and in a forked one: each row's sample is still the bits of the lone
    # potential_auto call at its distance, evaluations included.
    monkeypatch.chdir(tmp_path)
    auto, eval_point, run_parallel = cli.potential_auto, cli._eval_point, cli._run_parallel
    samples, checked = [], []

    def recorded(*args, **kwargs):
        samples.append(auto(*args, **kwargs))
        return samples[-1]

    def with_sample(job):
        row, why = eval_point(job)
        s = samples[-1]
        return {**row, "sample": repr((s.value, s.error_estimate, s.method, s.evaluations))}, why

    def compared(fn, config, atom, geometry, distances):
        rows = run_parallel(fn, config, atom, geometry, distances)
        for (row, _), z in zip(rows, distances):
            s = auto(atom, geometry, float(z), config.rel_tol)
            checked.append(row["sample"] == repr((s.value, s.error_estimate, s.method,
                                                  s.evaluations)))
        return rows

    monkeypatch.setattr(cli, "potential_auto", recorded)
    monkeypatch.setattr(cli, "_eval_point", with_sample)
    monkeypatch.setattr(cli, "_run_parallel", compared)
    half_space, _, lens = cli_examples()
    for argv in (half_space, lens):
        assert main(argv + ["--workers", workers, "-o", "out"]) == 0
    assert len(checked) == 260 and all(checked)


def test_reference_sweeps_make_a_fixed_work(tmp_path, monkeypatch, capsys, round_sizes):
    # A run's points share the first round's integrand values within each
    # octave of z. README's half-space sweep converges in one round at
    # each of its 200 points, which span 11 octaves: 11 integrand calls.
    # Its lens sweep spans 2, and its last point, z = 8, adds a tail panel.
    # A change that adds or drops a round, or a shared value, moves these
    # counts of integrand calls and nodes.
    monkeypatch.chdir(tmp_path)
    half_space, _, lens = cli_examples()
    for argv, calls, nodes in ((half_space, 11, 3_555), (lens, 3, 585)):
        round_sizes.clear()
        assert main(argv + ["--workers", "1"]) == 0
        assert (len(round_sizes), sum(round_sizes)) == (calls, nodes)
    capsys.readouterr()


def test_lens_sweep_builds_its_setup_once(tmp_path, monkeypatch):
    # A run's table keeps each integrand's z-free set-up: README's lens
    # sweep builds it, and looks up its slab's strip poles, at its first
    # point only; its other 59 points evaluate just what depends on z.
    monkeypatch.chdir(tmp_path)
    calls = []
    for name in ("_setup", "_strip_poles"):
        def counted(*args, real=getattr(planarcp.green, name), name=name):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(planarcp.green, name, counted)
    _, _, lens = cli_examples()
    assert main(lens + ["--workers", "1"]) == 0
    assert sorted(calls) == ["_setup", "_strip_poles"]
