# src/planarcp/cli.py
"""Command-line front end: distance sweeps of the potential, emitted as
CSV or JSON for external plotting. `compare`'s numeric and closed-form
columns are the U_norm of `sweep --method` rows at the same distances.

Inputs and outputs are in the library's natural units for a unit
transition (omega = d^2 = 1): distances in c/omega. The library returns
potentials in mu_0 omega^3 d^2 / c (UnitSystem.potential_si); the CLI
prints them in U0 = mu_0 omega^3 d^2 / (8 pi c), that is, times 8 pi.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import functools
import json
import math
import os
import pickle
import signal
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from .core import (Atom, DegenerateDenominator, DomainError, Geometry,
                   HalfSpace, NotConverged, PerfectLens, SlabWithMirror,
                   Transition, validate_material)
from .green import check_slab_thickness
from .potential import (PotentialMethod, potential_auto,
                        potential_nonretarded, potential_numeric,
                        potential_perfect_lens, potential_retarded)
from .quadrature import REL_TOL, check_rel_tol

U0_INV = 8.0 * math.pi  # 1 / U0 in natural units with omega = d^2 = 1

# Allowed values of the SweepConfig fields that take one of a few names.
CHOICES = {
    "geometry": ("halfspace", "slab-mirror", "perfect-lens"),
    "spacing": ("lin", "log"),
    "dipole": ("par", "perp", "mixed"),
    "method": ("auto", *(m.value for m in PotentialMethod)),
    "format": ("csv", "json"),
}


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class SweepConfig:
    geometry: str = "halfspace"
    eps_re: float = 1.0
    eps_im: float = 0.0
    mu_re: float = 1.0
    mu_im: float = 0.0
    thickness: float = 0.0
    zmin: float = 0.1
    zmax: float = 10.0
    points: int = 100
    spacing: str = "log"
    dipole: str = "par"
    w_par: float = 1.0
    w_perp: float = 0.0
    method: str = "auto"
    rel_tol: float = REL_TOL
    format: str = "csv"
    output: str = "-"
    reproducible: bool = False
    workers: int = 1  # processes in all, this one among them: min(N, points)

    def validate(self) -> tuple[Atom, Geometry]:
        for key, value in vars(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{key}: must be finite, got {value}")
        for key, allowed in CHOICES.items():
            if getattr(self, key) not in allowed:
                raise ConfigError(f"{key}: must be {'|'.join(allowed)}, "
                                  f"got {getattr(self, key)!r}")
        if not 0.0 < self.zmin < self.zmax < math.inf:
            raise ConfigError("zmin/zmax: need 0 < zmin < zmax < inf, got "
                              f"{self.zmin} and {self.zmax}")
        if self.points < 2:
            raise ConfigError(f"points: need >= 2, got {self.points}")
        if self.workers < 1:
            raise ConfigError(f"workers: need >= 1, got {self.workers}")
        if self.workers > 1 and not hasattr(os, "fork"):
            raise ConfigError(f"workers: need 1 where os.fork does not exist, got {self.workers}")
        check_rel_tol(self.rel_tol)
        if self.dipole == "mixed" and self.w_par + self.w_perp <= 0.0:
            raise ConfigError("w_par/w_perp: mixed dipole needs a positive total weight")
        if self.geometry == "perfect-lens" and self.zmin <= self.thickness:
            raise ConfigError("zmin: perfect-lens potential requires zmin > thickness")
        if self.method in ("nonretarded", "retarded") and self.geometry != "halfspace":
            raise ConfigError(f"method: {self.method} applies to halfspace only")
        if self.method == "closed-form" and self.geometry != "perfect-lens":
            raise ConfigError("method: closed-form applies to perfect-lens only")
        # Built once for all points; the model's own checks, before any point starts.
        atom, geometry = self.build_atom(), self.build_geometry()
        if isinstance(geometry, SlabWithMirror):  # no distance can mend a thickness
            check_slab_thickness(geometry.thickness, [t.omega for t in atom.transitions])
        return atom, geometry

    def material(self):
        return validate_material(complex(self.eps_re, self.eps_im),
                                 complex(self.mu_re, self.mu_im))

    def build_geometry(self):
        if self.geometry == "halfspace":
            return HalfSpace(self.material())
        if self.geometry == "slab-mirror":
            return SlabWithMirror(self.material(), self.thickness)
        return PerfectLens(self.thickness)

    def build_atom(self) -> Atom:
        if self.dipole == "par":
            w_par, w_perp = 1.0, 0.0
        elif self.dipole == "perp":
            w_par, w_perp = 0.0, 1.0
        else:
            total = self.w_par + self.w_perp
            w_par, w_perp = self.w_par / total, self.w_perp / total
        return Atom([Transition(1.0, w_par, w_perp)])

    def distances(self) -> np.ndarray:
        if self.spacing == "log":
            return np.geomspace(self.zmin, self.zmax, self.points)
        return np.linspace(self.zmin, self.zmax, self.points)


def _eval_point(args):
    """A sweep row and the causes of its failure: none, or one."""
    config, atom, geometry, z = args
    try:
        if config.method == "auto":
            s = potential_auto(atom, geometry, z, config.rel_tol)
        elif config.method == "numeric":
            s = potential_numeric(atom, geometry, z, config.rel_tol)
        elif config.method == "nonretarded":
            s = potential_nonretarded(atom, geometry.material, z)
        elif config.method == "retarded":
            s = potential_retarded(atom, geometry.material, z)
        else:
            s = potential_perfect_lens(atom, config.thickness, z)
    except (NotConverged, DegenerateDenominator, DomainError) as exc:
        return ({"z_norm": z, "U_norm": float("nan"), "U_err": float("inf"),
                 "method": "failed"}, [f"{type(exc).__name__}: {exc}"])
    return ({"z_norm": z, "U_norm": s.value * U0_INV,
             "U_err": s.error_estimate * U0_INV, "method": s.method.value}, [])


def _eval_compare(args):
    """A compare row and, for each of its failed columns, its method and why."""
    config, atom, geometry, z = args
    refs = (("nonretarded", "retarded") if config.geometry == "halfspace"
            else ("closed-form",))
    row, causes = {"z_norm": z}, []
    for method in ("numeric", *refs):
        name = method.replace("-", "_")
        u = float("nan")  # the lens closed form holds beyond the slab only
        if method != "closed-form" or z > config.thickness:
            cell, why = _eval_point((replace(config, method=method), atom, geometry, z))
            u = cell["U_norm"]
            causes += [f"{method}: {cause}" for cause in why]
        row[f"U_{name}"] = u
        if method != "numeric":
            row[f"dev_{name}"] = _relative_deviation(row["U_numeric"], u)
    return row, causes


def _relative_deviation(num: float, ref: float) -> float:
    if not (math.isfinite(num) and math.isfinite(ref)) or ref == 0.0:
        return float("nan") if ref != 0.0 or num != ref else 0.0
    return abs(num - ref) / abs(ref)


def _fork(fn, jobs):
    """Evaluates [fn(job) for job in jobs] in a forked child and returns
    join: join() reaps the child and returns its rows, join(stop=True)
    kills and reaps it. The child pickles its rows to a pipe and leaves by
    os._exit, so it never returns into the caller's code nor flushes the
    stdio buffers it inherited. Once its caller is gone (os.getppid()
    changes), no one reads the rows: it skips the jobs left and exits 1."""
    caller, (r, w) = os.getpid(), os.pipe()
    if (pid := os.fork()) == 0:
        try:
            os.close(r)  # so that a write fails, not blocks, once the caller is gone
            rows = [fn(job) for job in jobs if os.getppid() == caller]
            with open(w, "wb") as sink:
                pickle.dump(rows, sink)
        except BaseException:  # stated by join as a child without a result
            os._exit(1)
        os._exit(0)
    os.close(w)

    def join(stop=False):
        if stop:
            os.kill(pid, signal.SIGKILL)
        with open(r, "rb") as pipe:
            data = pipe.read()
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        if not stop and (code or not data):
            raise ChildProcessError(f"worker process {pid} ended without a result "
                                    f"({'signal' if code < 0 else 'exit code'} {abs(code)})")
        return None if stop else pickle.loads(data)
    return join


def _run_parallel(fn, config, atom, geometry, distances):
    """fn over the jobs in n = min(workers, points) processes, this one
    among them, process k taking every n-th job from the k-th. This one
    takes the first before it forks, so that the others inherit a slab's
    poles. fn returns a failed row for a distance's error, so an exception
    here or in a child is a fault, which ends the run."""
    jobs = [(config, atom, geometry, float(z)) for z in distances]
    n, rows, joins = min(config.workers, len(jobs)), [fn(jobs[0])] * len(jobs), []
    try:
        for k in range(1, n):
            joins.append(_fork(fn, jobs[k::n]))
        rows[n::n] = [fn(job) for job in jobs[n::n]]
        for k in range(1, n):
            rows[k::n] = joins.pop(0)()
    finally:  # after an error, the children not yet joined are killed
        for join in joins:
            join(stop=True)
    return rows


def _json_value(x):
    """x, with a non-finite float as None: JSON (RFC 8259) has no NaN or
    Infinity, so failed rows and nan columns are written as null."""
    if isinstance(x, float) and not math.isfinite(x):
        return None
    return x


def _emit(fh, config: SweepConfig, columns, rows, command: str) -> None:
    # output path and worker count do not influence the numbers; keeping
    # them out of the metadata makes reproducible runs byte-comparable
    # across destinations.
    meta = {"command": command, "config": {k: v for k, v in vars(config).items()
                                           if k not in ("output", "workers")}}
    if not config.reproducible:
        meta["generated"] = datetime.datetime.now().isoformat()
    if config.format == "json":
        meta["rows"] = [{k: _json_value(v) for k, v in row.items()} for row in rows]
        fh.write(json.dumps(meta, indent=2, allow_nan=False) + "\n")
        return
    lines = [f"# planarcp {command}"]
    if "generated" in meta:
        lines.append(f"# generated: {meta['generated']}")
    lines += [f"# config: {json.dumps(meta['config'], sort_keys=True)}", ",".join(columns)]
    lines += [",".join(map(str, row.values())) for row in rows]
    fh.write("\n".join(lines) + "\n")


def run(command: str, config: SweepConfig) -> int:
    """Evaluate and emit a sweep or compare table; the exit code."""
    atom, geometry = config.validate()
    if command == "compare" and config.method != "auto":
        raise ConfigError("method: compare requires method = auto")
    evaluate = _eval_point if command == "sweep" else _eval_compare
    # Opened first, as a shell redirection is: an -o that cannot be written
    # fails before any point, and one that exits 1 later is left empty.
    with (contextlib.nullcontext(sys.stdout) if config.output in ("-", "")
          else open(config.output, "w", encoding="utf-8", newline="\n")) as fh:
        rows, causes = zip(*_run_parallel(evaluate, config, atom, geometry, config.distances()))
        _emit(fh, config, list(rows[0]), rows, command)
    for row, why in zip(rows, causes):
        for cause in why:
            print(f"planarcp: z = {row['z_norm']}: {cause}", file=sys.stderr)
    value = "U_norm" if command == "sweep" else "U_numeric"
    failed = sum(1 for row in rows if math.isnan(row[value]))
    if failed:
        print(f"planarcp: {failed}/{len(rows)} points failed",
              file=sys.stderr)
        return 2
    return 0


class _Parser(argparse.ArgumentParser):
    """Raises ConfigError on a bad flag, so that it exits 1 like every
    other configuration error instead of argparse's 2."""

    def error(self, message):
        raise ConfigError(message)


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    """--config, then one flag per SweepConfig field (--eps-re for
    eps_re), typed by the field's default."""
    p.add_argument("--config", help="JSON config file; flags override its values")
    for field in fields(SweepConfig):
        names = ["--" + field.name.replace("_", "-")]
        if field.name == "output":
            names.append("-o")
        kind = type(field.default)
        if kind is bool:
            p.add_argument(*names, action="store_true", default=None)
        else:
            p.add_argument(*names, type=kind, choices=CHOICES.get(field.name))


def _typed(key: str, val):
    """val as the type of SweepConfig's default for key; ConfigError if
    it has another type (an int is a valid float, an integral float a
    valid int, a bool neither)."""
    kind = type(SweepConfig.__dataclass_fields__[key].default)
    if kind is float and isinstance(val, (int, float)) and not isinstance(val, bool):
        return float(val)
    if kind is int and isinstance(val, float) and val.is_integer():
        return int(val)
    if isinstance(val, kind) and (kind is bool or not isinstance(val, bool)):
        return val
    raise ConfigError(f"{key}: expected {kind.__name__}, got {val!r}")


def _build_config(args: argparse.Namespace) -> SweepConfig:
    values = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"config file {args.config}: {exc}")
        if not isinstance(loaded, dict):
            raise ConfigError(f"config file {args.config}: expected a JSON object")
        for key, val in loaded.items():
            if key not in SweepConfig.__dataclass_fields__:
                raise ConfigError(f"config file {args.config}: unknown field {key!r}")
            values[key] = val
    for key in SweepConfig.__dataclass_fields__:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    return SweepConfig(**{k: _typed(k, v) for k, v in values.items()})


@functools.cache  # built once per process: it costs about what a two-point sweep does
def _parser() -> _Parser:
    parser = _Parser(
        prog="planarcp",
        description="Resonant Casimir-Polder potential sweeps near planar "
                    "magneto-electric media (natural units).")
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    _add_common_flags(common)
    for name, help_text in (("sweep", "potential vs distance"),
                            ("compare", "numeric vs closed-form columns")):
        sub.add_parser(name, help=help_text, parents=[common])
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return run(args.command, _build_config(args))
    except (ValueError, OSError) as exc:  # also an -o that cannot be written
        print(f"planarcp: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
